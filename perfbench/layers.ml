(* The traced run's in-process layers: the workload's own inputs replayed
   through each layer's public functions, one span per call. Every
   workload reports the same metric names; a layer the workload never
   calls reports 0. *)

open Out
module Api = Serve.Api
module Plugplay = Wavefront_core.Plugplay

(* Every per-layer metric, in report order. *)
let names =
  [
    ("serve.connect_us_p50", "us");
    ("serve.ttfb_us_p50", "us");
    ("serve.ttfb_us_p99", "us");
    ("serve.read_us_p50", "us");
    ("serve.daemon_latency_us_p50", "us");
    ("serve.conns_per_request", "count");
    ("serve.shed_frac", "fraction");
    ("serve.timeout_frac", "fraction");
    ("serve.response_bytes", "bytes");
    ("api.parse_predict_us", "us");
    ("api.eval_predict_into_us", "us");
    ("api.predict_into_minor_words", "words");
    ("api.parse_sweep_us", "us");
    ("api.run_sweep_us_per_point", "us");
    ("api.pareto_us", "us");
    ("api.render_sweep_into_us", "us");
    ("api.run_sweep_minor_words_per_point", "words");
    ("api.shared_config_frac", "fraction");
    ("plugplay.eval_create_us", "us");
    ("plugplay.eval_run_us", "us");
    ("plugplay.eval_create_minor_words", "words");
    ("plugplay.eval_run_minor_words", "words");
    ("plugplay.iteration_us", "us");
    ("plugplay.eval_create_share", "fraction");
    ("loggp.total_offnode_ns", "ns");
    ("loggp.allreduce_ns", "ns");
    ("recover.expected_term_us", "us");
    ("costs.loggp_build_ms", "ms");
    ("batched.run_s", "s");
    ("batched.messages_per_s", "1/s");
    ("batched.minor_words_per_rank_wave", "words");
    ("xtsim.run_s", "s");
    ("xtsim.events", "count");
    ("xtsim.events_per_s", "1/s");
    ("xtsim.minor_words_per_event", "words");
    ("xtsim.model_err_max_pct", "%");
    ("dataflow.run_s", "s");
    ("dataflow.messages_per_s", "1/s");
    ("dataflow.minor_words_per_message", "words");
    ("bench.trace_overhead_pct", "%");
  ]

(* The full list in canonical order, 0 for layers the workload skipped. *)
let complete measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x -> x
      | None -> m name unit_ 0.0)
    names

let tracer () = Obs.Tracer.create ~capacity:65536 ()

(* Time one call (us) and record its span. *)
let timed tr name f =
  let t0 = Obs.Clock.monotonic () in
  let r = f () in
  let t1 = Obs.Clock.monotonic () in
  Obs.Tracer.record tr ~cat:"layer" ~rank:0 ~start:t0 ~dur:(t1 -. t0) name;
  (r, t1 -. t0)

(* Mean ns of a call too short to time alone, over a batch of 1000. *)
let batch_ns tr name f =
  let (), us =
    timed tr name (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  us

let words ?(iterations = 1) f = (Obs.Runtime.measure_alloc ~iterations f).minor_words_per_iter

let avg l = mean (Array.of_list l)

(* --- model and LogGP at a list of configurations ------------------- *)

let model tr (configs : (Wavefront_core.App_params.t * Plugplay.config) list) =
  let rows =
    List.map
      (fun (app, cfg) ->
        let ev, create = timed tr "plugplay.eval_create" (fun () -> Plugplay.Eval.create app cfg) in
        let (), run = timed tr "plugplay.eval_run" (fun () -> Plugplay.Eval.run ev) in
        let r, iteration = timed tr "plugplay.iteration" (fun () -> Plugplay.iteration app cfg) in
        let cw = words (fun () -> ignore (Sys.opaque_identity (Plugplay.Eval.create app cfg))) in
        let rw = words ~iterations:3 (fun () -> Plugplay.Eval.run ev) in
        let p = cfg.Plugplay.platform in
        let cores = Wgrid.Proc_grid.cores cfg.pgrid in
        let offnode =
          batch_ns tr "loggp.total_offnode" (fun () ->
              Loggp.Comm_model.total_offnode p.Loggp.Params.offnode r.Plugplay.msg_ew)
        in
        let allreduce = batch_ns tr "loggp.allreduce" (fun () -> Loggp.Allreduce.time p ~cores) in
        (create, run, cw, rw, iteration, offnode, allreduce))
      configs
  in
  let col f = avg (List.map f rows) in
  [
    m "plugplay.eval_create_us" "us" (col (fun (c, _, _, _, _, _, _) -> c));
    m "plugplay.eval_run_us" "us" (col (fun (_, r, _, _, _, _, _) -> r));
    m "plugplay.eval_create_minor_words" "words" (col (fun (_, _, w, _, _, _, _) -> w));
    m "plugplay.eval_run_minor_words" "words" (col (fun (_, _, _, w, _, _, _) -> w));
    m "plugplay.iteration_us" "us" (col (fun (_, _, _, _, i, _, _) -> i));
    m "loggp.total_offnode_ns" "ns" (col (fun (_, _, _, _, _, o, _) -> o));
    m "loggp.allreduce_ns" "ns" (col (fun (_, _, _, _, _, _, a) -> a));
  ]

(* --- /v1/predict bodies -------------------------------------------- *)

let predict tr bodies =
  let buf = Buffer.create 1024 in
  let rows =
    Array.to_list bodies
    |> List.filter_map (fun body ->
           let parsed, parse = timed tr "api.parse_predict" (fun () -> Api.parse_predict body) in
           match parsed with
           | Error _ -> None
           | Ok p ->
               let (), eval =
                 timed tr "api.eval_predict_into" (fun () ->
                     Api.eval_predict_into buf p ~validation:Api.Not_requested)
               in
               let _, into = timed tr "api.predict_into" (fun () -> Api.predict_into buf body) in
               let w = words (fun () -> ignore (Api.predict_into buf body)) in
               Some (p, parse, eval, into, w))
  in
  let configs = List.map (fun ((p : Api.predict), _, _, _, _) -> (p.app, p.cfg)) rows in
  let model = model tr configs in
  let create = (List.hd model).value and into = avg (List.map (fun (_, _, _, i, _) -> i) rows) in
  [
    m "api.parse_predict_us" "us" (avg (List.map (fun (_, p, _, _, _) -> p) rows));
    m "api.eval_predict_into_us" "us" (avg (List.map (fun (_, _, e, _, _) -> e) rows));
    m "api.predict_into_minor_words" "words" (avg (List.map (fun (_, _, _, _, w) -> w) rows));
    m "plugplay.eval_create_share" "fraction" (if into > 0.0 then create /. into else 0.0);
  ]
  @ model

(* --- /v1/sweep bodies ---------------------------------------------- *)

(* The (app, config) of each distinct (htile, grid) of a sweep request,
   built the way the daemon builds a point: the app and platform through
   the daemon's own request parser, the processor grid as given. *)
let sweep_configs (r : Gen.sweep) =
  List.concat_map
    (fun h ->
      List.filter_map
        (fun (cols, rows) ->
          let body =
            Printf.sprintf
              {|{"app":{"name":"%s","nx":%d,"ny":%d,"nz":%d,"htile":%d},"machine":{"platform":"%s","cores":%d,"cores_per_node":%d}}|}
              r.s_app r.s_side r.s_side r.s_side h r.s_platform (cols * rows) r.s_cpn
          in
          match Api.parse_predict body with
          | Error _ -> None
          | Ok p ->
              let pgrid = Wgrid.Proc_grid.v ~cols ~rows in
              Some (p.app, { p.cfg with pgrid }))
        (List.sort_uniq compare r.s_grids))
    r.s_htiles

(* At most this many configurations go through the model layer: the
   largest sweep grids cost tens of milliseconds each. *)
let max_model_configs = 48

let every n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i * n / len <> (i + 1) * n / len) l

let sweep tr (requests : Gen.sweep array) ~shared =
  let buf = Buffer.create 65536 in
  let rows =
    Array.to_list requests
    |> List.filter_map (fun (r : Gen.sweep) ->
           let parsed, parse = timed tr "api.parse_sweep" (fun () -> Api.parse_sweep r.s_body) in
           match parsed with
           | Error _ -> None
           | Ok s -> (
               let w0 = Gc.minor_words () in
               let res, run =
                 timed tr "api.run_sweep" (fun () -> Api.run_sweep ~deadline:Serve.Deadline.none s)
               in
               let w = Gc.minor_words () -. w0 in
               match res with
               | `Expired _ -> None
               | `Done points ->
                   let n = float_of_int (Api.sweep_points s) in
                   let _, pareto = timed tr "api.pareto" (fun () -> Api.pareto points) in
                   let (), render =
                     timed tr "api.render_sweep_into" (fun () -> Api.render_sweep_into buf s points)
                   in
                   Some (parse, run /. n, pareto, render, w /. n)))
  in
  let configs = Array.to_list requests |> List.map (fun r -> (sweep_configs r, r.Gen.s_ks)) in
  let model_configs = every max_model_configs (List.concat_map fst configs) in
  let recover =
    List.concat_map
      (fun (cfgs, ks) ->
        List.concat_map
          (fun (app, cfg) ->
            let r = Plugplay.iteration app cfg in
            let waves = Gen.waves app in
            List.map
              (fun k ->
                let policy = Perturb.Recover.v ~ckpt_cost:40.0 ~restart_cost:400.0 k in
                batch_ns tr "recover.expected_term" (fun () ->
                    Perturb.Recover.expected_term policy ~waves
                      ~wave_cost:(r.Plugplay.w +. r.Plugplay.w_pre) ~failures:1)
                /. 1e3)
              ks)
          (every 4 cfgs))
      configs
  in
  let col f = avg (List.map f rows) in
  [
    m "api.parse_sweep_us" "us" (col (fun (p, _, _, _, _) -> p));
    m "api.run_sweep_us_per_point" "us" (col (fun (_, r, _, _, _) -> r));
    m "api.pareto_us" "us" (col (fun (_, _, p, _, _) -> p));
    m "api.render_sweep_into_us" "us" (col (fun (_, _, _, r, _) -> r));
    m "api.run_sweep_minor_words_per_point" "words" (col (fun (_, _, _, _, w) -> w));
    m "api.shared_config_frac" "fraction" shared;
    m "recover.expected_term_us" "us" (avg recover);
  ]
  @ model tr model_configs
