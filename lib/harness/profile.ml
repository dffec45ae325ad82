(* The profiling workflow behind `wavefront profile`: evaluate the
   closed-form model and the dataflow evaluator, execute the same
   configuration on the event-level simulator with full instrumentation,
   optionally execute the real shared-memory kernel with per-rank tracers,
   and reconcile everything in one report: a model-vs-simulated-vs-real
   breakdown, the simulated message mix, the critical path through the
   simulated run, and a Chrome trace of both timelines. *)

open Wavefront_core
open Wgrid

type t = {
  metrics : Obs.Metrics.t;
  breakdown : Table.t;
  protocols : Table.t;
  path : Table.t;
  processes : Obs.Chrome_trace.process list;
  sim : Xtsim.Wavefront_sim.outcome;
  sim_dropped : int;
  real_dropped : int;
  timeline : Obs.Timeline.t;  (** of the simulated run *)
  divergence : Divergence.t;
      (** model error attributed wave-by-wave against the analytic term
          schedule *)
  runtime : (string * Obs.Runtime.delta) list;
      (** host-side cost of producing this report, per phase *)
}

let count m name =
  match Obs.Metrics.find m name with Some (Obs.Metrics.Count n) -> n | _ -> 0

(* Total time covered by the union of a span list's intervals: nested spans
   (sends inside an all-reduce) are not double-counted. *)
let covered spans =
  let iv =
    List.sort compare
      (List.map (fun (s : Obs.Span.t) -> (s.t_start, Obs.Span.end_time s)) spans)
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (lo, hi) -> acc +. (hi -. lo))
    | (lo, hi) :: rest -> (
        match cur with
        | None -> go acc (Some (lo, hi)) rest
        | Some (clo, chi) ->
            if lo <= chi then go acc (Some (clo, Float.max chi hi)) rest
            else go (acc +. (chi -. clo)) (Some (lo, hi)) rest)
  in
  go 0.0 None iv

(* Communication share of the last-finishing rank of a real traced run:
   the rank whose ["rank"] span ends last, its comm/sync span coverage over
   its program span. *)
let real_comm_share spans =
  let ranks = List.filter (fun (s : Obs.Span.t) -> s.name = "rank") spans in
  match ranks with
  | [] -> nan
  | first :: rest ->
      let last =
        List.fold_left
          (fun (b : Obs.Span.t) (s : Obs.Span.t) ->
            if Obs.Span.end_time s > Obs.Span.end_time b then s else b)
          first rest
      in
      let comm =
        List.filter
          (fun (s : Obs.Span.t) ->
            s.rank = last.rank && (s.cat = "comm" || s.cat = "sync"))
          spans
      in
      if last.dur <= 0.0 then nan else covered comm /. last.dur

let dash = "-"
let share v = Printf.sprintf "%.1f%%" (100.0 *. v)

let run ?(real = false) ?(capacity = Obs.Tracer.default_capacity)
    (cfg : Plugplay.config) (app : App_params.t) =
  (* Host-side runtime cost of each stage, for the report's runtime
     section. No tracer is attached: runtime spans are wall-clock
     nondeterministic and would pollute the simulated-time timelines. *)
  let phases = Obs.Runtime.phases () in
  let metrics = Obs.Metrics.create () in
  (* Model side: closed form (r5) plus the dataflow evaluator. *)
  let r, c, t_dataflow =
    Obs.Runtime.phase phases "model" (fun () ->
        let r = Predictor.record_breakdown metrics app cfg in
        let c = Plugplay.components app cfg in
        let t_dataflow = Pipeline_model.record_iteration metrics app cfg in
        (r, c, t_dataflow))
  in
  (* Simulator side, with spans stamped in simulated time and the message
     trace kept for exact dependency edges. *)
  let machine = Xtsim.Machine.v ~cmp:cfg.cmp cfg.platform cfg.pgrid in
  let obs = Obs.Tracer.create ~capacity () in
  let trace = Xtsim.Trace.create ~capacity () in
  let sim =
    Obs.Runtime.phase phases "simulate" (fun () ->
        Xtsim.Wavefront_sim.run ~trace ~obs ~metrics machine app)
  in
  let sim_spans = Obs.Tracer.spans obs in
  (* Optional real run on one domain per rank. *)
  let real_result =
    if not real then None
    else
      Obs.Runtime.phase phases "real" (fun () ->
          let htile = max 1 (int_of_float app.htile) in
          let plan =
            Kernels.Sweep_exec.plan ~htile ~schedule:app.schedule
              ~nonwavefront:app.nonwavefront app.grid cfg.pgrid
          in
          let trs =
            Array.init (Proc_grid.cores cfg.pgrid) (fun _ ->
                Obs.Tracer.create ~capacity ())
          in
          let out = Kernels.Sweep_exec.run ~obs:trs plan in
          Obs.Metrics.set
            (Obs.Metrics.gauge metrics "real.wall_time")
            out.wall_time;
          let spans = Obs.Tracer.merge trs in
          let dropped =
            Array.fold_left (fun a tr -> a + Obs.Tracer.dropped tr) 0 trs
          in
          Some (out, spans, dropped))
  in
  let real_dropped =
    match real_result with Some (_, _, d) -> d | None -> 0
  in
  (* Everything below is pure analysis of the collected data — one
     phase; the record is assembled inside it with an empty runtime
     section and patched once the phase has closed. *)
  let report =
    Obs.Runtime.phase phases "analyze" @@ fun () ->
  (* Model vs simulated vs real. The real kernel computes with its own Wg,
     so its wall time is only comparable when the model was given a
     measured Wg (wavefront measure-wg); the share row compares shape
     regardless. *)
  let err m s = Table.pct ((m -. s) /. s) in
  let breakdown =
    let model_sim_real quantity m s rl =
      [ quantity; Table.fcell m;
        (match s with None -> dash | Some s -> Table.fcell s);
        (match rl with None -> dash | Some v -> Table.fcell v);
        (match s with None -> dash | Some s -> err m s) ]
    in
    let share_row =
      let model = c.communication /. c.total in
      let sim_share = Xtsim.Wavefront_sim.comm_share sim in
      let real_share =
        match real_result with
        | Some (_, spans, _) ->
            let v = real_comm_share spans in
            if Float.is_nan v then dash else share v
        | None -> dash
      in
      [ "comm share of critical path"; share model; share sim_share;
        real_share; Table.pct ((model -. sim_share) /. sim_share) ]
    in
    Table.v ~id:"PROFILE-BREAKDOWN"
      ~title:"Model terms vs instrumented runs (per iteration, us)"
      ~headers:[ "quantity"; "model"; "simulated"; "real"; "model err" ]
      ~notes:
        ([ Printf.sprintf
             "dataflow evaluator: %.2f us/iteration; simulated run: %d \
              events, %d sends"
             t_dataflow sim.events sim.sends ]
        @
        match real_result with
        | Some (out, _, _) ->
            [ Printf.sprintf
                "real run: %d domains, wall %.2f us; comparable to the \
                 model only with a measured Wg (see measure-wg)"
                (Proc_grid.cores cfg.pgrid) out.wall_time ]
        | None -> [])
      [
        model_sim_real "T_iteration" r.t_iteration (Some sim.per_iteration)
          (match real_result with
          | Some (out, _, _) -> Some out.wall_time
          | None -> None);
        model_sim_real "T_diagfill" r.t_diagfill None None;
        model_sim_real "T_fullfill" r.t_fullfill None None;
        model_sim_real "T_stack" r.t_stack None None;
        model_sim_real "T_nonwavefront" r.t_nonwavefront None None;
        model_sim_real "W (tile compute)" r.w None None;
        model_sim_real "W_pre" r.w_pre None None;
        share_row;
      ]
  in
  (* Message mix, from the per-protocol counters the simulator kept. *)
  let protocols =
    let row name =
      let msgs = count metrics ("sim.msgs." ^ name) in
      let bytes = count metrics ("sim.bytes." ^ name) in
      [ name; Table.icell msgs; Table.icell bytes ]
    in
    Table.v ~id:"PROFILE-PROTOCOLS"
      ~title:"Simulated message mix by protocol"
      ~headers:[ "protocol"; "messages"; "bytes" ]
      (List.map row [ "eager"; "rendezvous"; "copy"; "dma" ])
  in
  (* Critical path through the simulated run: exact message edges from the
     simulator's transfer trace, program order within each rank. The
     report form carries the tracer's loss count, so a partial path is
     flagged instead of presented as complete. *)
  let path =
    let report =
      Obs.Critical_path.report
        ~dropped:(Obs.Tracer.dropped obs)
        ~spans:sim_spans
        ~edges:(Xtsim.Trace.edges trace)
        ()
    in
    let segs = Obs.Critical_path.summarize report.steps in
    let total = List.fold_left (fun a (s : Obs.Critical_path.segment) -> a +. s.total) 0.0 segs in
    let notes =
      Printf.sprintf "%d steps on the path; span capacity %d"
        (List.length report.steps) capacity
      ::
      (match Obs.Critical_path.truncation_note report with
      | Some note -> [ note ]
      | None -> [])
    in
    Table.v ~id:"PROFILE-PATH"
      ~title:"Critical path of the simulated run, by span kind"
      ~headers:[ "segment"; "count"; "total (us)"; "share" ] ~notes
      (List.map
         (fun (s : Obs.Critical_path.segment) ->
           [ s.name; Table.icell s.count; Table.fcell s.total;
             (if total > 0.0 then share (s.total /. total) else dash) ])
         segs)
  in
  (* Wave-resolved view of the same run, and the model's error attributed
     against the analytic term schedule (the batched engine). *)
  let waves = App_params.waves app in
  let timeline =
    Obs.Timeline.of_spans ~dropped:(Obs.Tracer.dropped obs) ~waves sim_spans
  in
  let divergence =
    let costs = Wrun.Costs.loggp ~cmp:cfg.cmp cfg.platform cfg.pgrid app in
    let model_tr = Obs.Tracer.create ~capacity () in
    ignore (Wrun.Batched.run ~obs:model_tr ~costs cfg.pgrid app);
    let model =
      Obs.Timeline.of_spans ~dropped:(Obs.Tracer.dropped model_tr) ~waves
        (Obs.Tracer.spans model_tr)
    in
    Divergence.analyze ~model ~observed:timeline ~t_iteration:r.t_iteration
      ~elapsed:sim.elapsed
  in
  let processes =
    { Obs.Chrome_trace.pid = 0; name = "simulated"; spans = sim_spans }
    ::
    (match real_result with
    | Some (_, spans, _) ->
        [ { Obs.Chrome_trace.pid = 1; name = "real (domains)"; spans } ]
    | None -> [])
  in
  {
    metrics;
    breakdown;
    protocols;
    path;
    processes;
    sim;
    sim_dropped = Obs.Tracer.dropped obs;
    real_dropped;
    timeline;
    divergence;
    runtime = [];
  }
  in
  { report with runtime = Obs.Runtime.report phases }

let trace_json t = Obs.Chrome_trace.to_json t.processes

let pp ppf t =
  Table.render ppf t.breakdown;
  Format.pp_print_newline ppf ();
  Table.render ppf t.protocols;
  Format.pp_print_newline ppf ();
  Table.render ppf t.path;
  Format.pp_print_newline ppf ();
  Format.fprintf ppf "simulated wait by rank x wave:@.";
  Obs.Timeline.render ~metric:Obs.Timeline.Wait ppf t.timeline;
  Format.pp_print_newline ppf ();
  Divergence.pp ppf t.divergence;
  Format.pp_print_newline ppf ();
  Format.fprintf ppf "runtime:@.%a@." Obs.Runtime.pp_report t.runtime;
  Format.pp_print_newline ppf ();
  Format.fprintf ppf "metrics:@.%a" Obs.Metrics.pp t.metrics
