(* The simulate workload: the three engines that check the model, in
   process on one domain, running a seeded scenario list back to back
   (cycled) for the timed window. *)

open Out

let setups = 3

type run = {
  slot : int;  (** index in the scenario list *)
  pass : int;  (** how many times the window had cycled the list *)
  sc : Gen.scenario;
  wall_us : float;
  probe_us : float;  (** the host probe just before the run *)
  result : Engines.result;
  words : float;  (** minor words, traced runs only *)
}

(* The host probe: random reads over 1 MB. Other tenants of a shared host
   slow memory-bound code by up to a half for tens of seconds at a time,
   and the engines slow with it; run before every engine run, the probe
   slows the same way, so run times are reported as they would be on a
   host where it takes [probe_ref_us]. Measured on a 2-CPU host over
   100 s, per-quarter totals of the best runs varied by 0.11 (IQR over
   median) as measured and by 0.02 normalized by the median probe of
   their pass. *)
let probe_ref_us = 800.0

let probe_data = Array.init (128 * 1024) Fun.id

let probe_us () =
  let t0 = Obs.Clock.monotonic () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    acc := !acc + probe_data.(!x land (Array.length probe_data - 1))
  done;
  ignore (Sys.opaque_identity !acc);
  Obs.Clock.monotonic () -. t0

(* Build every scenario's inputs, then warm the engines with one pass over
   the list: an engine's run time creeps up over its first runs as the
   heap grows to the largest scenario's working set (the event simulator
   settles some 40% slower than a cold start), and the window measures
   the settled state. *)
let setup scenarios =
  let t0 = Unix.gettimeofday () in
  let prepared = Array.map Engines.prepare scenarios in
  Array.iter (fun p -> ignore (Engines.run p)) prepared;
  (prepared, Unix.gettimeofday () -. t0)

let window ?tracer ~seconds prepared =
  let n = Array.length prepared in
  let stop_at = Obs.Clock.monotonic () +. (seconds *. 1e6) in
  let rec go i acc =
    if Obs.Clock.monotonic () >= stop_at then List.rev acc
    else begin
      let p = prepared.(i mod n) in
      let probe_us = probe_us () in
      let w0 = Gc.minor_words () in
      let t0 = Obs.Clock.monotonic () in
      let result = Engines.run p in
      let t1 = Obs.Clock.monotonic () in
      let words =
        match tracer with
        | Some tr ->
            let w = Gc.minor_words () -. w0 in
            Obs.Tracer.record tr ~cat:"engine" ~rank:0 ~start:t0 ~dur:(t1 -. t0)
              ~args:
                [
                  ("ranks", Obs.Span.Int (Wgrid.Proc_grid.cores p.sc.pg));
                  ("units", Obs.Span.Int result.units);
                ]
              (Gen.engine_name p.sc.engine ^ ".run");
            w
        | None -> 0.0
      in
      go (i + 1) ({ slot = i mod n; pass = i / n; sc = p.sc; wall_us = t1 -. t0; probe_us; result; words } :: acc)
    end
  in
  go 0 []

let work runs = List.fold_left (fun a r -> a + Gen.rank_waves r.sc) 0 runs
let seconds_of runs = List.fold_left (fun a r -> a +. r.wall_us) 0.0 runs /. 1e6
let of_engine e runs = List.filter (fun r -> r.sc.engine = e) runs

(* Each scenario's best run in the window, its time normalized by the
   median probe of its pass over the list (a single probe is too noisy to
   scale one run by). The best of a scenario's runs filters out what
   bursts of interference the probe does not see. *)
let best runs =
  let passes = Hashtbl.create 16 in
  List.iter
    (fun r -> Hashtbl.replace passes r.pass (r.probe_us :: Option.value (Hashtbl.find_opt passes r.pass) ~default:[]))
    runs;
  let norm r = r.wall_us *. probe_ref_us /. median (Array.of_list (Hashtbl.find passes r.pass)) in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let r = { r with wall_us = norm r } in
      match Hashtbl.find_opt tbl r.slot with
      | Some b when b.wall_us <= r.wall_us -> ()
      | _ -> Hashtbl.replace tbl r.slot r)
    runs;
  List.sort (fun a b -> compare a.slot b.slot) (Hashtbl.fold (fun _ r acc -> r :: acc) tbl [])

(* Rank-waves per second of each engine over its scenarios' best runs. *)
let engine_rates bests =
  List.map
    (fun e ->
      let rs = of_engine e bests in
      (e, float_of_int (work rs) /. seconds_of rs))
    Gen.engines

let geomean l = exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float_of_int (List.length l))

(* Runs whose outcome is not clean; the negative control must count. *)
let verify runs =
  let failed = List.length (List.filter (fun r -> not (Check.outcome_ok r.result.outcome)) runs) in
  let control =
    match runs with
    | [] -> false
    | r :: _ -> not (Check.outcome_ok { r.result.outcome with blocked = 1 })
  in
  (failed, control)

let model_err_max runs =
  List.fold_left
    (fun acc r ->
      if r.sc.engine = Gen.Event then
        Float.max acc (Engines.model_err_pct r.sc ~per_iteration:r.result.per_iteration)
      else acc)
    0.0 runs

(* Each engine's share of the window's wall time, and how many of its
   runs fall in the upper half of its rank range. *)
let properties runs =
  let total = seconds_of runs in
  let share =
    List.map
      (fun e -> (Gen.engine_name e ^ " wall share", seconds_of (of_engine e runs) /. total))
      Gen.engines
  in
  pp_shares "engine share of wall time" share;
  let upper =
    List.map
      (fun e ->
        let lo, hi, _ = Gen.engine_shape e in
        let mid = 2.0 ** ((lo +. hi) /. 2.0) in
        let rs = of_engine e runs in
        let up = List.filter (fun r -> float_of_int (Wgrid.Proc_grid.cores r.sc.pg) >= mid) rs in
        ( Printf.sprintf "%s runs at >= 2^%.1f ranks" (Gen.engine_name e) ((lo +. hi) /. 2.0),
          float_of_int (List.length up) /. float_of_int (max 1 (List.length rs)) ))
      Gen.engines
  in
  pp_shares "rank counts" upper;
  share @ upper

let untraced ~seed ~seconds =
  let scenarios = Gen.scenarios ~seed in
  let setups = List.init setups (fun _ -> setup scenarios) in
  let prepared = fst (List.hd setups) in
  let setup_s = median (Array.of_list (List.map snd setups)) in
  let runs = window ~seconds prepared in
  let rss = Loopback.vm_hwm_mb 0 in
  let bests = best runs in
  let wall_ms = Array.of_list (List.map (fun r -> r.wall_us /. 1e3) bests) in
  let rates = engine_rates bests in
  let rps = float_of_int (List.length bests) /. seconds_of bests in
  let wps = geomean (List.map snd rates) in
  let failed, control_ok = verify runs in
  let p50 = median wall_ms and tail = quantile wall_ms 0.9 in
  let json_metrics =
    [
      m "setup_s" "s" setup_s;
      m "requests_per_s" "1/s" rps;
      m "work_per_s" "1/s" wps;
      m "p50_ms" "ms" p50;
      m "tail_ms" "ms" tail;
      m "peak_rss_mb" "MB" rss;
    ]
  in
  let report =
    [ m "setup_s" "s" setup_s; m "runs_per_s" "1/s" rps; m "rank_waves_per_s_geomean" "1/s" wps ]
    @ List.map (fun (e, r) -> m (Gen.engine_name e ^ "_rank_waves_per_s") "1/s" r) rates
    @ [
        m "p50_ms" "ms" p50;
        m "p90_ms" "ms" tail;
        m "model_err_max_pct" "%" (model_err_max bests);
        m "peak_rss_mb" "MB" rss;
        m "probe_us_median" "us" (median (Array.of_list (List.map (fun r -> r.probe_us) runs)));
        m "runs" "count" (float_of_int (List.length runs));
        m "runs_per_scenario" "count"
          (float_of_int (List.length runs) /. float_of_int (max 1 (List.length bests)));
      ]
  in
  {
    json_metrics;
    report;
    properties = properties runs;
    attempted = List.length runs;
    failed;
    control_ok;
    spans = [];
  }

(* Untraced quarters alternate with quarters that record a span and a
   minor-word count per engine call, so drift does not read as tracing
   overhead; then the scenarios' model, LogGP and cost-building layers in
   process. *)
let traced ~seed ~seconds =
  let scenarios = Gen.scenarios ~seed in
  let prepared, _ = setup scenarios in
  let tr = Layers.tracer () in
  let quarter traced =
    let runs = window ?tracer:(if traced then Some tr else None) ~seconds:(seconds /. 4.0) prepared in
    (geomean (List.map snd (engine_rates (best runs))), runs)
  in
  let segments = List.map quarter [ false; true; false; true ] in
  let pick parity = List.filteri (fun i _ -> i mod 2 = parity) segments in
  let mean_rate l = mean (Array.of_list (List.map fst l)) in
  let overhead = 100.0 *. ((mean_rate (pick 0) /. mean_rate (pick 1)) -. 1.0) in
  let traced = List.concat_map snd (pick 1) in
  let all = List.concat_map snd segments in
  let failed, control_ok = verify all in
  (* per call s, work units, run s, minor words, runs *)
  let engine e =
    let rs = of_engine e traced in
    let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rs in
    let run_s = seconds_of rs in
    (run_s /. float_of_int (max 1 (List.length rs)), sum (fun r -> float_of_int r.result.units), run_s,
     sum (fun r -> r.words), rs)
  in
  let x_call, x_units, x_s, x_words, x_runs = engine Gen.Event in
  let b_call, b_units, b_s, b_words, b_runs = engine Gen.Batched in
  let d_call, d_units, d_s, d_words, _ = engine Gen.Validate in
  let costs =
    Array.to_list scenarios
    |> List.filter (fun (sc : Gen.scenario) -> sc.engine = Gen.Batched)
    |> List.map (fun (sc : Gen.scenario) ->
           snd
             (Layers.timed tr "costs.loggp" (fun () ->
                  Wrun.Costs.loggp ~model_bus:sc.bus ~cmp:(Engines.cmp sc) Loggp.Params.xt4 sc.pg sc.app))
           /. 1e3)
  in
  let engines =
    [
      m "costs.loggp_build_ms" "ms" (Layers.avg costs);
      m "batched.run_s" "s" b_call;
      m "batched.messages_per_s" "1/s" (b_units /. b_s);
      m "batched.minor_words_per_rank_wave" "words" (b_words /. float_of_int (work b_runs));
      m "xtsim.run_s" "s" x_call;
      m "xtsim.events" "count" (x_units /. float_of_int (max 1 (List.length x_runs)));
      m "xtsim.events_per_s" "1/s" (x_units /. x_s);
      m "xtsim.minor_words_per_event" "words" (x_words /. x_units);
      m "xtsim.model_err_max_pct" "%" (model_err_max all);
      m "dataflow.run_s" "s" d_call;
      m "dataflow.messages_per_s" "1/s" (d_units /. d_s);
      m "dataflow.minor_words_per_message" "words" (d_words /. d_units);
    ]
  in
  let model =
    Layers.model tr
      (Array.to_list scenarios |> List.map (fun (sc : Gen.scenario) -> (sc.app, Engines.model_cfg sc)))
  in
  {
    json_metrics = engines @ model @ [ m "bench.trace_overhead_pct" "%" overhead ];
    report = [];
    properties = properties all;
    attempted = List.length all;
    failed;
    control_ok;
    spans = Obs.Tracer.spans tr;
  }
