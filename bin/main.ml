(* The wavefront command-line tool: predictions, validation runs, parameter
   fitting and figure regeneration for the plug-and-play wavefront model. *)

open Cmdliner
open Wavefront_core
module Scenario = Apps.Scenario

(* --- Shared argument parsing --- *)

(* An optional FLAG=VALUE argument; [c] is its Cmdliner converter. *)
let opt_arg c default name docv doc =
  Arg.(value & opt c default & info [ name ] ~docv ~doc)

(* The scenario flags. Subcommands take the app term and whichever
   machine flags they use; Apps.Scenario resolves them with the same
   dispatch, platform table and range checks as the HTTP API. *)

type app_flags = {
  spec : string option;
  name : string;
  dims : int * int * int;
  htile : float option;
  wg : float option;
  iterations : int option;
}

let app_term =
  let spec =
    opt_arg Arg.(some file) None "spec" "FILE"
      "Model the application described by a KEY = VALUE spec file instead of \
       a built-in benchmark (see Apps.Spec)."
  in
  let app_name =
    let doc = Fmt.str "Application: %s." (String.concat ", " Scenario.apps) in
    Arg.(value
         & opt (enum (List.map (fun n -> (n, n)) Scenario.apps)) "sweep3d"
         & info [ "a"; "app" ] ~docv:"APP" ~doc)
  in
  let dims =
    let doc = "Problem size as NX,NY,NZ (or a single N for a cube)." in
    let parse s =
      match String.split_on_char ',' s |> List.map int_of_string_opt with
      | [ Some n ] -> Ok (n, n, n)
      | [ Some nx; Some ny; Some nz ] -> Ok (nx, ny, nz)
      | _ -> Error (`Msg "expected N or NX,NY,NZ")
    in
    let print ppf (nx, ny, nz) = Fmt.pf ppf "%dx%dx%d" nx ny nz in
    Arg.(value
         & opt (conv (parse, print)) (240, 240, 240)
         & info [ "g"; "grid" ] ~docv:"GRID" ~doc)
  in
  let htile =
    opt_arg Arg.(some float) None "htile" "H" "Override the tile height Htile."
  in
  let wg =
    opt_arg Arg.(some float) None "wg" "US"
      "Override the per-cell computation time Wg (us)."
  in
  let iterations =
    opt_arg Arg.(some int) None "iterations" "N"
      "Wavefront iterations per time step."
  in
  let make spec name dims htile wg iterations =
    { spec; name; dims; htile; wg; iterations }
  in
  Term.(const make $ spec $ app_name $ dims $ htile $ wg $ iterations)

type machine_flags = { platform : string; cores : int; cpn : int }

let default_machine = { platform = "xt4"; cores = 1024; cpn = 2 }

let cores_arg =
  Arg.(value & opt int default_machine.cores
       & info [ "p"; "cores" ] ~docv:"P" ~doc:"Total number of cores.")

let cpn_arg =
  Arg.(value & opt int default_machine.cpn
       & info [ "cores-per-node" ] ~docv:"C"
           ~doc:"Cores per node (1, 2, 4, 8 or 16).")

let machine_term =
  let platform =
    let keys = List.map fst Scenario.platforms in
    let doc = Fmt.str "Platform parameters: %s." (String.concat ", " keys) in
    Arg.(value
         & opt (enum (List.map (fun k -> (k, k)) keys)) default_machine.platform
         & info [ "platform" ] ~docv:"PLATFORM" ~doc)
  in
  Term.(const (fun platform cores cpn -> { platform; cores; cpn })
        $ platform $ cores_arg $ cpn_arg)

let cores_term =
  Term.(const (fun cores -> { default_machine with cores }) $ cores_arg)

let cpn_term = Term.(const (fun cpn -> { default_machine with cpn }) $ cpn_arg)

(* Resolve the flags, or exit 2 with the scenario's message. The --spec
   path rides along for the ledger's spec digest. *)
let scenario ?pgrid a m =
  let nx, ny, nz = a.dims in
  match
    Scenario.v ?spec:a.spec ?htile:a.htile ?wg:a.wg ?iterations:a.iterations
      ?pgrid ~app:a.name ~nx ~ny ~nz ~platform:m.platform ~cores:m.cores
      ~cpn:m.cpn ()
  with
  | Ok sc -> (sc, a.spec)
  | Error msg ->
      Fmt.epr "wavefront: %s@." msg;
      exit 2

let scenario_term machine =
  Term.(const (fun a m -> scenario a m) $ app_term $ machine)

let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Fmt.str "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Fmt.int)

let capacity_arg =
  Arg.(value & opt (some pos_int) None
       & info [ "capacity" ] ~docv:"N"
           ~doc:"Per-tracer span capacity (drops are reported).")

let engine_arg =
  let doc =
    "Simulation engine: event (the event-level simulator: fibers, bus \
     contention, rank ceiling) or batched (the wave-batched flat-array \
     engine: the analytic per-operation LogGP costs, scales to millions \
     of ranks)."
  in
  Arg.(value & opt (enum Harness.Engine.all) Harness.Engine.Event
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

let no_bus_arg =
  Arg.(value & flag
       & info [ "no-bus" ]
           ~doc:
             "Switch off the shared-bus contention layer (event engine: the \
              per-node bus clock; batched engine: the closed-form Table-6 \
              interference charges). With the bus off and single-core nodes \
              the simulated and model timelines coincide cell for cell.")

(* --perturb, parsed here so a bad clause exits 2 with its offset. *)
let perturb_arg doc =
  let parse = function
    | None -> None
    | Some s -> (
        match Perturb.Spec.of_string s with
        | Ok p -> Some p
        | Error (`Msg m) ->
            Fmt.epr "wavefront: --perturb: %s@." m;
            exit 2)
  in
  Term.(const parse
        $ Arg.(value & opt (some string) None
               & info [ "perturb" ] ~docv:"SPEC" ~doc))

let flag_arg name doc = Arg.(value & flag & info [ name ] ~doc)

let file_arg name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

(* When a FILE flag was given, write it through [emit] and say so; a
   failed write exits 1. *)
let write_file ?(note = "") what path emit =
  Option.iter
    (fun path ->
      match open_out path with
      | exception Sys_error m ->
          Fmt.epr "wavefront: cannot write %s: %s@." what m;
          exit 1
      | oc ->
          emit (output_string oc);
          close_out oc;
          Fmt.pr "%s written to %s%s@." what path note)
    path

(* The event engine's rank ceiling, as a CLI error instead of an escaped
   exception: the registered printer already points at --engine=batched. *)
let or_rank_ceiling f =
  try f ()
  with Xtsim.Wavefront_sim.Rank_ceiling _ as e ->
    Fmt.epr "wavefront: %s@." (Printexc.to_string e);
    exit 2

(* --- Observability context: --metrics-out / --ledger, every subcommand --- *)

(* Parsed once per invocation; the start-of-run runtime sample is taken
   when Cmdliner evaluates the term, so the ledger's duration and
   runtime section cover everything from argument parsing on. *)
module Obs_ctx = struct
  type t = {
    metrics_out : string option;
    ledger_path : string option;
    no_ledger : bool;
    t0 : float;  (* unix seconds; the ledger record's timestamp *)
    start : Obs.Runtime.sample;
  }

  let term =
    let metrics_out =
      opt_arg Arg.(some string) None "metrics-out" "FILE"
        "Write an OpenMetrics/Prometheus text exposition of the run's metrics \
         (runtime gauges, outcome numbers, any registry the subcommand kept) \
         to FILE, labelled with the subcommand and engine."
    in
    let ledger =
      Arg.(value & opt (some string) None
           & info [ "ledger" ] ~docv:"FILE"
               ~doc:
                 (Fmt.str
                    "Run-ledger file this invocation is appended to \
                     (default %s)."
                    Obs.Ledger.default_path))
    in
    let no_ledger =
      flag_arg "no-ledger" "Do not append this invocation to the run ledger."
    in
    let make metrics_out ledger_path no_ledger =
      {
        metrics_out;
        ledger_path;
        no_ledger;
        t0 = Unix.gettimeofday ();
        start = Obs.Runtime.sample ();
      }
    in
    Term.(const make $ metrics_out $ ledger $ no_ledger)

  (* Record the invocation: an OpenMetrics exposition when asked for, one
     ledger line unless opted out. [kv] holds the subcommand's key outcome
     numbers — exposed as outcome.* gauges and judged by `runs compare`;
     [metrics] is an existing registry to expose alongside them. The
     config hash, which `runs compare` uses to tell like-for-like runs
     from different work, is the [scenario]'s digest — extended by
     [work], the subcommand's own flags that change the work — or, for
     subcommands without a scenario, the hash of [config]. [spec] is the
     --spec file to digest. Write failures are warnings: observability
     must not fail the run it records. *)
  let finish ?metrics ?engine ?scenario ?spec ?(work = []) ?config ?(kv = [])
      ctx subcommand =
    let engine = Option.fold ~none:"" ~some:Harness.Engine.to_string engine in
    let d = Obs.Runtime.delta ctx.start (Obs.Runtime.sample ()) in
    (match ctx.metrics_out with
    | None -> ()
    | Some path -> (
        let reg =
          match metrics with Some m -> m | None -> Obs.Metrics.create ()
        in
        List.iter
          (fun (k, v) ->
            Obs.Metrics.set (Obs.Metrics.gauge reg ("outcome." ^ k)) v)
          kv;
        Obs.Runtime.to_metrics reg d;
        let labels =
          ("subcommand", subcommand)
          :: (if engine = "" then [] else [ ("engine", engine) ])
        in
        match open_out path with
        | exception Sys_error m ->
            Fmt.epr "wavefront: cannot write metrics: %s@." m
        | oc ->
            output_string oc (Obs.Openmetrics.render ~labels reg);
            close_out oc;
            Fmt.pr "metrics written to %s@." path));
    if not ctx.no_ledger then begin
      let md5 s = Digest.to_hex (Digest.string s) in
      let config_hash =
        match (scenario, config) with
        | Some sc, _ ->
            let d = Scenario.digest sc in
            String.sub
              (if work = [] then d else md5 (String.concat "|" (d :: work)))
              0 12
        | None, Some c -> String.sub (md5 c) 0 12
        | None, None -> ""
      in
      let spec_digest =
        match spec with
        | None -> ""
        | Some p -> ( try Digest.to_hex (Digest.file p) with Sys_error _ -> "")
      in
      let r =
        Obs.Ledger.v ~engine ~config_hash ~spec_digest
          ~git:(Obs.Ledger.git_describe ()) ~metrics:kv
          ~runtime:(Obs.Runtime.delta_kv d) ~timestamp:ctx.t0
          ~duration_s:d.Obs.Runtime.wall_s subcommand
      in
      match Obs.Ledger.append ?path:ctx.ledger_path r with
      | Ok () -> ()
      | Error m -> Fmt.epr "wavefront: ledger: %s@." m
    end
end

let bool01 b = if b then 1.0 else 0.0
let bus_work no_bus = Fmt.str "bus=%b" (not no_bus)

(* --- predict --- *)

let predict (sc, spec) groups steps ctx =
  let app = sc.Scenario.app and cfg = Scenario.config sc in
  let r = Plugplay.iteration app cfg in
  let run = Predictor.run ~energy_groups:groups ~time_steps:steps () in
  let total = Predictor.total_time ~run app cfg in
  Fmt.pr "@[<v>%a@,@,platform: %s, %d cores (%d/node)@,%a@,@,\
          per time step: %a (%d iterations x %d groups)@,\
          total (%d steps): %a (%.2f days)@]@."
    App_params.pp app sc.platform.name sc.cores sc.cpn Plugplay.pp_result r
    Units.pp_time
    (float_of_int groups *. Predictor.time_step_time app cfg)
    app.iterations groups steps Units.pp_time total (Units.to_days total);
  Obs_ctx.finish ~scenario:sc ?spec
    ~work:[ Fmt.str "groups=%d" groups; Fmt.str "steps=%d" steps ]
    ~kv:[ ("t_iteration", r.t_iteration); ("total_us", total) ]
    ctx "predict"

let predict_cmd =
  let doc = "Predict wavefront execution time with the plug-and-play model" in
  let groups =
    opt_arg Arg.int 1 "energy-groups" "N" "Energy groups per time step."
  in
  let steps = opt_arg Arg.int 1 "time-steps" "N" "Time steps in the run." in
  Cmd.v (Cmd.info "predict" ~doc)
    Term.(const predict $ scenario_term machine_term $ groups $ steps
          $ Obs_ctx.term)

(* --- explain --- *)

let explain (sc, spec) ctx =
  let app = sc.Scenario.app and cfg = Scenario.config sc in
  Fmt.pr "%a@." (fun ppf () -> Explain.worksheet ppf app cfg) ();
  Fmt.pr "@.%a@." Sensitivity.pp (Sensitivity.analyze app cfg);
  Obs_ctx.finish ~scenario:sc ?spec
    ~kv:[ ("t_iteration", Plugplay.time_per_iteration app cfg) ]
    ctx "explain"

let explain_cmd =
  let doc = "Show the full model worksheet and input sensitivities" in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const explain $ scenario_term machine_term $ Obs_ctx.term)

(* --- simulate --- *)

let simulate (sc, spec) engine no_bus domains max_ranks tl_json tl_csv ctx =
  let app = sc.Scenario.app and cfg = Scenario.config sc in
  let pg = cfg.pgrid and cmp = cfg.cmp in
  let model = Plugplay.time_per_iteration app cfg in
  let model_line per_iteration =
    Fmt.pr "model prediction: %a/iteration (error %+.2f%%)@." Units.pp_time
      model
      (100.0 *. (model -. per_iteration) /. per_iteration)
  in
  let finish kv =
    Obs_ctx.finish ~engine ~scenario:sc ?spec
      ~work:[ bus_work no_bus; Fmt.str "domains=%d" domains ]
      ~kv ctx "simulate"
  in
  match (engine : Harness.Engine.t) with
  | Event ->
      let machine =
        Xtsim.Machine.v ~model_bus:(not no_bus) ~cmp sc.platform pg
      in
      Fmt.pr "simulating %s on %a...@." app.name Xtsim.Machine.pp machine;
      let o =
        or_rank_ceiling (fun () ->
            Xtsim.Wavefront_sim.run ?max_ranks machine app)
      in
      Fmt.pr "%a@." Xtsim.Wavefront_sim.pp_outcome o;
      model_line o.per_iteration;
      finish
        [ ("per_iteration", o.per_iteration); ("elapsed", o.elapsed);
          ("events", float_of_int o.events) ]
  | Batched ->
      let costs =
        Wrun.Costs.loggp ~model_bus:(not no_bus) ~cmp sc.platform pg app
      in
      Fmt.pr "simulating %s on %a (wave-batched, %d domain(s))...@." app.name
        Wgrid.Proc_grid.pp pg domains;
      (* Stream per-cell analytics into the bounded accumulator; the
         dense grid is out of reach at the rank counts this engine is
         for. *)
      let stream =
        Obs.Timeline_stream.create ~ranks:sc.cores
          ~waves:(App_params.waves app) ()
      in
      let o =
        Wrun.Batched.run ~cells:(Obs.Timeline_stream.sink stream) ~domains
          ~costs pg app
      in
      Fmt.pr "%a@." Wrun.Batched.pp_outcome o;
      model_line o.per_iteration;
      let total m =
        let acc = ref 0.0 in
        for col = 0 to o.waves do
          acc := !acc +. Obs.Timeline_stream.column_total stream m col
        done;
        !acc
      in
      Fmt.pr
        "streamed analytics: %d cells into a %dx%d bucket grid; totals \
         busy %a, wait %a, idle %a@."
        (Obs.Timeline_stream.cells stream)
        (Obs.Timeline_stream.rank_buckets stream)
        (Obs.Timeline_stream.wave_buckets stream)
        Units.pp_time (total Obs.Timeline.Busy) Units.pp_time
        (total Obs.Timeline.Wait) Units.pp_time (total Obs.Timeline.Idle);
      write_file "timeline-stream JSON" tl_json
        (Obs.Timeline_stream.emit_json ~label:"simulate" stream);
      write_file "timeline-stream CSV" tl_csv
        (Obs.Timeline_stream.emit_csv stream);
      finish
        [ ("per_iteration", o.per_iteration); ("elapsed", o.elapsed);
          ("messages", float_of_int o.messages);
          ("completed", bool01 o.completed) ]

let simulate_cmd =
  let doc =
    "Execute the wavefront code on the simulated machine (event-level or \
     wave-batched engine)"
  in
  let domains =
    opt_arg pos_int 1 "domains" "N"
      "Shard the batched engine's ranks across N OCaml domains (results are \
       bitwise-identical for every N; event engine: ignored)."
  in
  let max_ranks =
    Arg.(value & opt (some int) None
         & info [ "max-ranks" ] ~docv:"N"
             ~doc:
               (Fmt.str
                  "Raise (or lower) the event engine's rank ceiling \
                   (default %d)."
                  Xtsim.Wavefront_sim.default_max_ranks))
  in
  let tl_json =
    file_arg "timeline-json"
      "Write the batched engine's streamed timeline analytics as chunked \
       JSON (schema wavefront-timeline-stream/v1)."
  in
  let tl_csv =
    file_arg "timeline-csv"
      "Write the batched engine's streamed timeline analytics as chunked \
       CSV."
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const simulate $ scenario_term machine_term $ engine_arg
          $ no_bus_arg $ domains $ max_ranks $ tl_json $ tl_csv $ Obs_ctx.term)

(* --- validate --- *)

let validate (sc, spec) ctx =
  let app = sc.Scenario.app in
  let pg = (Scenario.config sc).pgrid in
  Fmt.pr "validating %s on %a (reference dataflow backend)...@." app.name
    Wgrid.Proc_grid.pp pg;
  let t0 = Unix.gettimeofday () in
  let o = Wrun.Dataflow.run pg app in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Fmt.pr "%a (%.0f ms)@." Wrun.Dataflow.pp_outcome o elapsed_ms;
  List.iter (fun m -> Fmt.epr "  mismatch: %s@." m) o.mismatches;
  Obs_ctx.finish ~scenario:sc ?spec
    ~kv:
      [ ("completed", bool01 o.completed); ("wall_ms", elapsed_ms);
        ("mismatches", float_of_int (List.length o.mismatches)) ]
    ctx "validate";
  if not o.completed || o.mismatches <> [] then exit 1

let validate_cmd =
  let doc =
    "Check a schedule deadlocks nowhere and every rank agrees on the \
     message sequence, on the fast reference dataflow backend (no \
     simulation clock; scales to 100K+ ranks)"
  in
  Cmd.v (Cmd.info "validate" ~doc)
    Term.(const validate $ scenario_term cores_term $ Obs_ctx.term)

(* --- figure --- *)

let scale_arg =
  Arg.(value & flag
       & info [ "full" ]
           ~doc:"Include the large (slow) simulation points.")

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"DIR"
           ~doc:"Also write each table as DIR/<id>.csv.")

let write_csv dir (t : Harness.Table.t) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (String.lowercase_ascii t.id ^ ".csv") in
  let oc = open_out path in
  output_string oc (Harness.Table.to_csv t);
  close_out oc;
  Fmt.pr "wrote %s@." path

let figure ids full csv ctx =
  let scale = if full then Harness.Experiments.Full else Quick in
  let run_id (_id, f) =
    let artifacts = f () in
    List.iter (Harness.Experiments.render_artifact Fmt.stdout) artifacts;
    Option.iter
      (fun dir ->
        List.iter
          (function
            | Harness.Experiments.Table t -> write_csv dir t
            | Plot _ -> ())
          artifacts)
      csv
  in
  (match ids with
  | [] -> List.iter run_id (Harness.Experiments.all ~scale ())
  | ids ->
      List.iter
        (fun id ->
          match Harness.Experiments.find ~scale id with
          | Some f -> run_id (id, f)
          | None -> Fmt.invalid_arg "unknown experiment %S" id)
        ids);
  Obs_ctx.finish
    ~config:(Fmt.str "%s|full%b" (String.concat "," ids) full)
    ~kv:[ ("experiments", float_of_int (max 1 (List.length ids))) ]
    ctx "figure"

let figure_cmd =
  let doc = "Regenerate the paper's tables and figures (all, or by id)" in
  let ids =
    Arg.(value & pos_all string []
         & info [] ~docv:"ID"
             ~doc:
               (Fmt.str "Experiment ids: %s."
                  (String.concat ", " (Harness.Experiments.ids ()))))
  in
  Cmd.v (Cmd.info "figure" ~doc)
    Term.(const figure $ ids $ scale_arg $ csv_arg $ Obs_ctx.term)

(* --- scale --- *)

let scaling (sc, spec) ctx =
  let app = sc.Scenario.app in
  let rows =
    Metrics.strong_scaling ~cmp:(Wgrid.Cmp.of_cores_per_node sc.cpn)
      ~platform:Loggp.Params.xt4
      ~core_counts:[ 64; 256; 1024; 4096; 16384; 65536 ]
      app
  in
  Fmt.pr "%a on the XT4 (%d cores/node):@." App_params.pp app sc.cpn;
  Fmt.pr "  %8s %14s %10s %10s@." "cores" "t/iter" "speedup" "efficiency";
  List.iter
    (fun (r : Metrics.scaling_row) ->
      Fmt.pr "  %8d %14s %10.1f %9.1f%%@." r.cores
        (Fmt.str "%a" Units.pp_time r.t_iteration)
        r.speedup (100.0 *. r.efficiency))
    rows;
  Obs_ctx.finish ~scenario:sc ?spec
    ~kv:[ ("rows", float_of_int (List.length rows)) ]
    ctx "scale"

let scale_cmd =
  let doc = "Strong-scaling table: time, speedup, efficiency" in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(const scaling $ scenario_term cpn_term $ Obs_ctx.term)

(* --- report --- *)

let report (sc, spec) trace_csv ctx =
  let app = sc.Scenario.app and cfg = Scenario.config sc in
  let machine = Xtsim.Machine.v ~cmp:cfg.cmp sc.platform cfg.pgrid in
  let est = Xtsim.Wavefront_sim.estimated_events machine app ~iterations:1 in
  Fmt.pr "simulating %s on %a (~%d events)...@." app.name Xtsim.Machine.pp
    machine est;
  let trace = Xtsim.Trace.create () in
  let o = Xtsim.Wavefront_sim.run ~trace machine app in
  Fmt.pr "%a@.@." Xtsim.Wavefront_sim.pp_outcome o;
  Fmt.pr "%a@.@." Xtsim.Report.pp (Xtsim.Report.of_outcome machine o);
  Fmt.pr "message mix:@.";
  List.iter
    (fun (proto, n) -> Fmt.pr "  %-10s %d@." proto n)
    (Xtsim.Trace.by_protocol trace);
  write_file "trace" trace_csv
    ~note:
      (Fmt.str " (%d of %d messages)" (Xtsim.Trace.recorded trace)
         (Xtsim.Trace.total trace))
    (fun w -> w (Xtsim.Trace.to_csv trace));
  Obs_ctx.finish ~engine:Event ~scenario:sc ?spec
    ~kv:[ ("per_iteration", o.per_iteration); ("elapsed", o.elapsed) ]
    ctx "report"

let report_cmd =
  let doc = "Simulate a run and report utilization and message mix" in
  let trace_csv = file_arg "trace-csv" "Write the message trace as CSV." in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const report $ scenario_term machine_term $ trace_csv
          $ Obs_ctx.term)

(* --- profile --- *)

let profile (sc, spec) real capacity trace_out ctx =
  let app = sc.Scenario.app in
  Fmt.pr "profiling %s on %d cores (%d/node, %s)...@." app.name sc.cores
    sc.cpn sc.platform.name;
  let p = Harness.Profile.run ~real ?capacity (Scenario.config sc) app in
  Fmt.pr "%a@." Harness.Profile.pp p;
  let dropped = p.sim_dropped + p.real_dropped in
  write_file "trace" trace_out
    ~note:
      (" (load in Perfetto / chrome://tracing)"
      ^ if dropped > 0 then Fmt.str "; %d spans dropped" dropped else "")
    (fun w -> w (Harness.Profile.trace_json p));
  Obs_ctx.finish ~metrics:p.metrics ~engine:Event ~scenario:sc ?spec
    ~kv:
      [ ("sim_per_iteration", p.sim.per_iteration);
        ("sim_elapsed", p.sim.elapsed) ]
    ctx "profile"

let profile_cmd =
  let doc =
    "Profile one configuration: model vs simulated (vs real) breakdown, \
     message mix, critical path, Chrome trace"
  in
  let real =
    flag_arg "real"
      "Also execute the transport kernel on one OCaml domain per rank (use \
       small core counts)."
  in
  let trace_out =
    file_arg "trace-out" "Write a Chrome trace_event JSON of the run."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const profile $ scenario_term machine_term $ real $ capacity_arg
          $ trace_out $ Obs_ctx.term)

(* --- perturb --- *)

let perturb (sc, spec) engine no_bus override real capacity ctx =
  let app = sc.Scenario.app in
  let pspec = Scenario.perturb ?override sc in
  Fmt.pr "perturbing %s on %d cores (%d/node, %s) with [%a]...@." app.name
    sc.cores sc.cpn sc.platform.name Perturb.Spec.pp pspec;
  if Perturb.Spec.is_zero pspec then
    Fmt.pr "(zero spec: control run, expect no deltas)@.";
  let r =
    or_rank_ceiling (fun () ->
        Harness.Perturb_report.run ~real ~model_bus:(not no_bus) ~engine
          ?capacity (Scenario.config sc) app pspec)
  in
  Fmt.pr "%a@." Harness.Perturb_report.pp r;
  (* 0 clean, 3 degraded, 4 unrecovered failure — see
     Perturb_report.exit_status. *)
  let status = Harness.Perturb_report.exit_status r in
  Obs_ctx.finish ~engine
    ~scenario:{ sc with perturb = Some pspec }
    ?spec ~work:[ bus_work no_bus ]
    ~kv:
      [ ("per_iteration", r.sim.per_iteration);
        ("base_per_iteration", r.sim_base.per_iteration);
        ("exit_status", float_of_int status) ]
    ctx "perturb";
  match status with 0 -> () | s -> exit s

let perturb_cmd =
  let doc =
    "Evaluate one perturbation spec on every substrate: noise-adjusted \
     model estimate vs perturbed simulation (vs real), dataflow \
     completion under adversarial straggler ordering, and where the \
     injected delay was absorbed"
  in
  let pspec =
    perturb_arg
      "Perturbation clauses, e.g. 'seed=42 noise=uniform:0.2 straggler=3:50 \
       fail=1:10'; overrides the spec file's perturb stanza."
  in
  let real =
    flag_arg "real"
      "Also execute the transport kernel, unperturbed then perturbed \
       (resilient), on one OCaml domain per rank (use small core counts)."
  in
  Cmd.v (Cmd.info "perturb" ~doc)
    Term.(const perturb $ scenario_term machine_term $ engine_arg
          $ no_bus_arg $ pspec $ real $ capacity_arg $ Obs_ctx.term)

(* --- recover --- *)

let recover (sc, spec) engine no_bus override interval ckpt_cost restart_cost
    tolerance real fail_on_mismatch capacity out ctx =
  (match interval with
  | Some k when k < 0 ->
      Fmt.epr "wavefront: --interval must be >= 0@.";
      exit 2
  | _ -> ());
  if ckpt_cost < 0.0 || restart_cost < 0.0 then begin
    Fmt.epr "wavefront: checkpoint and restart costs must be >= 0@.";
    exit 2
  end;
  let app = sc.Scenario.app and cfg = Scenario.config sc in
  let pspec = Scenario.perturb ?override sc in
  (* --interval omitted: take the Daly-style optimum for this run. *)
  let interval =
    match interval with
    | Some k -> k
    | None ->
        let r = Plugplay.iteration app cfg in
        Perturb.Recover.optimal_interval ~waves:(App_params.waves app)
          ~wave_cost:(r.w +. r.w_pre)
          ~failures:(List.length pspec.failures) ~ckpt_cost
  in
  let policy = Perturb.Recover.v ~ckpt_cost ~restart_cost interval in
  Fmt.pr "recovering %s on %d cores (%d/node, %s) with [%a] under %a...@."
    app.name sc.cores sc.cpn sc.platform.name Perturb.Spec.pp pspec
    Perturb.Recover.pp policy;
  let r =
    or_rank_ceiling (fun () ->
        Harness.Recover_report.run ~real ~model_bus:(not no_bus) ~engine
          ?tolerance ?capacity ~policy cfg app pspec)
  in
  Fmt.pr "%a@." Harness.Recover_report.pp r;
  write_file "report" out (fun w ->
      w (Fmt.str "%a@." Harness.Recover_report.pp r));
  (* 0 clean, 3 degraded, 4 unrecovered — see Recover_report.exit_status.
     Without --fail-on-mismatch a model-vs-simulated tolerance miss (or a
     real-run grid mismatch) is reported but tolerated. *)
  let status =
    let s = Harness.Recover_report.exit_status r in
    if
      s = 3 && (not fail_on_mismatch)
      && r.dataflow.mismatches = []
      && r.dataflow.orphaned = 0
    then 0
    else s
  in
  Obs_ctx.finish ~engine
    ~scenario:{ sc with perturb = Some pspec }
    ?spec
    ~work:
      [ bus_work no_bus;
        Fmt.str "policy=%d:%h:%h" policy.interval policy.ckpt_cost
          policy.restart_cost ]
    ~kv:
      [ ("predicted_overhead", r.predicted.total);
        ("simulated_overhead", r.simulated.total);
        ("within_tolerance", bool01 r.within_tolerance);
        ("exit_status", float_of_int status) ]
    ctx "recover";
  if status <> 0 then exit status

let recover_cmd =
  let doc =
    "Evaluate a failure spec under checkpoint/rollback recovery on every \
     substrate: closed-form overhead term vs simulated recovery cost (vs \
     the real runtime restoring a killed rank from its snapshot), plus \
     the Daly-style optimal checkpoint interval"
  in
  let pspec =
    perturb_arg
      "Perturbation clauses, e.g. 'seed=42 fail=1:10'; overrides the spec \
       file's perturb stanza."
  in
  let interval =
    opt_arg Arg.(some int) None "interval" "K"
      "Checkpoint every K waves (0 disables recovery; default: the Daly-style \
       optimum for this run)."
  in
  let ckpt_cost =
    opt_arg Arg.float 50.0 "ckpt-cost" "US"
      "Modelled cost of taking one checkpoint (us)."
  in
  let restart_cost =
    opt_arg Arg.float 500.0 "restart-cost" "US"
      "Modelled cost of respawning a rank from a snapshot (us)."
  in
  let tolerance =
    opt_arg Arg.(some float) None "tolerance" "FRAC"
      "Accepted relative gap between simulated and closed-form overhead \
       (default 0.05)."
  in
  let real =
    flag_arg "real"
      "Also execute the transport kernel under genuine checkpoint/rollback, \
       one OCaml domain per rank (use small core counts)."
  in
  let fail_on_mismatch =
    flag_arg "fail-on-mismatch"
      "Exit 3 when the simulated overhead misses the closed form beyond \
       --tolerance (or a recovered real run's grid differs from the \
       reference)."
  in
  let out = file_arg "out" "Also write the report to FILE." in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(const recover $ scenario_term machine_term $ engine_arg
          $ no_bus_arg $ pspec $ interval $ ckpt_cost $ restart_cost
          $ tolerance $ real $ fail_on_mismatch $ capacity_arg $ out
          $ Obs_ctx.term)

(* --- timeline --- *)

let timeline (sc, spec) engine real no_bus metric capacity json_out csv_out ctx
    =
  let metric =
    match Obs.Timeline.metric_of_string metric with
    | Some m -> m
    | None ->
        Fmt.epr
          "wavefront: unknown --metric %S (compute, send, recv, wait, idle, \
           busy, total)@."
          metric;
        exit 2
  in
  let app = sc.Scenario.app in
  Fmt.pr "timeline of %s on %d cores (%d/node, %s)...@." app.name sc.cores
    sc.cpn sc.platform.name;
  let t =
    or_rank_ceiling (fun () ->
        Harness.Timeline_report.run ~real ~model_bus:(not no_bus) ~engine
          ?capacity (Scenario.config sc) app)
  in
  Fmt.pr "%a@." (Harness.Timeline_report.pp ~metric) t;
  write_file "timeline JSON" json_out (fun w ->
      w (Harness.Timeline_report.to_json t));
  write_file "timeline CSV" csv_out (fun w ->
      w (Harness.Timeline_report.to_csv t));
  Obs_ctx.finish ~engine ~scenario:sc ?spec ~work:[ bus_work no_bus ]
    ~kv:
      [ ("t_iteration", t.t_iteration); ("elapsed", t.sim.elapsed);
        ("gap", t.divergence.gap) ]
    ctx "timeline"

let timeline_cmd =
  let doc =
    "Reconstruct per-rank x per-wave timelines (simulated, the analytic \
     term schedule on the batched engine, optionally real), render them \
     as heatmaps, and attribute the model's error wave by wave"
  in
  let real =
    flag_arg "real"
      "Also execute the transport kernel on one OCaml domain per rank and \
       reconstruct its timeline (use small core counts)."
  in
  let metric =
    opt_arg Arg.string "wait" "metric" "M"
      "Heatmap metric: compute, send, recv, wait, idle, busy or total."
  in
  let json_out =
    file_arg "json" "Write the wavefront-timeline-report/v1 JSON document."
  in
  let csv_out = file_arg "csv" "Write the per-cell decompositions as CSV." in
  Cmd.v (Cmd.info "timeline" ~doc)
    Term.(const timeline $ scenario_term machine_term $ engine_arg $ real
          $ no_bus_arg $ metric $ capacity_arg $ json_out $ csv_out
          $ Obs_ctx.term)

(* --- idlewave --- *)

let idlewave (sc, spec) engine override real no_bus fail_on_mismatch capacity
    out json_out csv_out ctx =
  let app = sc.Scenario.app in
  let pspec = Scenario.perturb ?override sc in
  Fmt.pr "idle-wave study of %s on %d cores (%d/node, %s) with [%a]...@."
    app.name sc.cores sc.cpn sc.platform.name Perturb.Spec.pp pspec;
  if pspec.pulses = [] then
    Fmt.pr "(no pulse clause: expect no idle wave; try --perturb \
            'pulse=RANK:WAVE:DELAY_US')@.";
  let r =
    or_rank_ceiling (fun () ->
        Harness.Idlewave_report.run ~real ~model_bus:(not no_bus) ~engine
          ?capacity (Scenario.config sc) app pspec)
  in
  Fmt.pr "%a@." Harness.Idlewave_report.pp r;
  write_file "report" out (fun w ->
      w (Fmt.str "%a@." Harness.Idlewave_report.pp r));
  write_file "idle-wave JSON" json_out (fun w ->
      w (Harness.Idlewave_report.to_json r));
  write_file "idle-wave CSV" csv_out (fun w ->
      w (Harness.Idlewave_report.to_csv r));
  (* 0 clean, 3 when a spec'd pulse went undetected or (with
     --fail-on-mismatch) the substrates disagree — see
     Idlewave_report.exit_status. *)
  let status = Harness.Idlewave_report.exit_status ~fail_on_mismatch r in
  Obs_ctx.finish ~engine
    ~scenario:{ sc with perturb = Some pspec }
    ?spec ~work:[ bus_work no_bus ]
    ~kv:
      [ ("fronts", float_of_int (List.length r.sim.fronts));
        ("identity", bool01 r.identity);
        ("exit_status", float_of_int status) ]
    ctx "idlewave";
  match status with 0 -> () | s -> exit s

let idlewave_cmd =
  let doc =
    "Inject an idle-wave source and measure the wave: differential front \
     detection on control/perturbed run pairs (simulated, the batched \
     model, optionally real), propagation speed and decay fits, \
     reconciled against the closed-form idle-wave model"
  in
  (* --pgrid overrides the near-square factorization of -p: idle-wave
     studies are pipeline studies, and a COLSx1 chain is where the
     analytic model is exact. *)
  let pgrid =
    opt_arg Arg.(some string) None "pgrid" "CxR"
      "Processor grid shape COLSxROWS, overriding the near-square \
       factorization of -p (e.g. 16x1 for the 1-D chain where the analytic \
       idle-wave model is exact)."
  in
  let pgrid_scenario pgrid a m =
    match pgrid with
    | None -> scenario a m
    | Some s -> (
        match String.split_on_char 'x' s |> List.map int_of_string_opt with
        | [ Some cols; Some rows ] when cols >= 1 && rows >= 1 ->
            scenario
              ~pgrid:(Wgrid.Proc_grid.v ~cols ~rows)
              a
              { m with cores = cols * rows }
        | _ ->
            Fmt.epr "wavefront: --pgrid expects COLSxROWS, e.g. 16x1@.";
            exit 2)
  in
  let pspec =
    perturb_arg
      "Perturbation clauses; the idle-wave sources are \
       'pulse=RANK:WAVE:DELAY_US' (repeatable), \
       'periodic=PERIOD_WAVES:AMPLITUDE_US' and 'collnoise=US', composable \
       with the noise/straggler/link clauses. Overrides the spec file's \
       perturb stanza."
  in
  let real =
    flag_arg "real"
      "Also execute the transport kernel pair on one OCaml domain per rank \
       and run the detector on its timelines (use small core counts)."
  in
  let fail_on_mismatch =
    flag_arg "fail-on-mismatch"
      "Exit 3 when the sim/model timelines diverge or the fitted hop \
       latency misses the analytic one beyond 5%."
  in
  let out = file_arg "out" "Also write the report to FILE." in
  let json_out =
    file_arg "json" "Write the wavefront-idlewave/v1 JSON document."
  in
  let csv_out = file_arg "csv" "Write the reconciliation table as CSV." in
  Cmd.v (Cmd.info "idlewave" ~doc)
    Term.(const idlewave
          $ (const pgrid_scenario $ pgrid $ app_term $ machine_term)
          $ engine_arg $ pspec $ real $ no_bus_arg $ fail_on_mismatch
          $ capacity_arg $ out $ json_out $ csv_out $ Obs_ctx.term)

(* --- bench --- *)

let bench quick out against fail_on_regression label repeats min_delta ctx =
  let cases = Harness.Bench_suite.cases ~quick () in
  Fmt.pr "running %d benchmark case(s)%s...@." (List.length cases)
    (if quick then " (quick subset)" else "");
  let results =
    List.map
      (fun (c : Harness.Bench_suite.case) ->
        (* --repeats wins; else the case's own count (the multi-second
           scale cases run few repetitions). *)
        let repeats =
          match repeats with Some _ -> repeats | None -> c.repeats
        in
        let s = Bench_stats.Runner.measure ?repeats ~name:c.name c.f in
        Fmt.pr "  %a@." Bench_stats.Runner.pp s;
        s)
      cases
  in
  let meta =
    [
      ("peak_rss_mb", string_of_int (Harness.Bench_suite.peak_rss_mb ()));
      ("scale_domains", string_of_int Harness.Bench_suite.scale_domains);
    ]
  in
  let report = Bench_stats.Report.v ~label ~meta results in
  (match out with
  | None -> ()
  | Some path ->
      Bench_stats.Report.write path report;
      Fmt.pr "report written to %s (schema %s)@." path Bench_stats.Report.schema);
  let regressed =
    match against with
    | None -> false
    | Some path ->
        let baseline =
          try Bench_stats.Report.read path
          with
          | Sys_error m ->
              Fmt.epr "wavefront: cannot read baseline: %s@." m;
              exit 2
          | Obs.Json.Parse_error m ->
              Fmt.epr "wavefront: bad baseline %s: %s@." path m;
              exit 2
        in
        let cmp =
          Bench_stats.Compare.compare ?min_delta_pct:min_delta ~baseline
            ~current:report ()
        in
        Fmt.pr "@.against %s (%s):@.%a" path baseline.Bench_stats.Report.label
          Bench_stats.Compare.pp cmp;
        Bench_stats.Compare.regressions cmp <> []
  in
  (* Each case's median wall time (us) becomes an outcome number, so the
     run ledger doubles as a coarse longitudinal benchmark record. *)
  Obs_ctx.finish
    ~config:(Fmt.str "quick%b|%s" quick label)
    ~kv:
      (("cases", float_of_int (List.length results))
      :: List.map
           (fun (s : Bench_stats.Runner.summary) -> (s.name, s.median))
           results)
    ctx "bench";
  if fail_on_regression && regressed then exit 1

let bench_cmd =
  let doc =
    "Run the continuous-benchmarking suite with statistical rigor (warmup, \
     repetitions, bootstrap confidence intervals), emit a \
     machine-readable report, and optionally compare against a baseline"
  in
  let quick = flag_arg "quick" "Run only the fast CI subset of cases." in
  let out =
    opt_arg Arg.(some string) (Some "BENCH_wavefront.json") "out" "FILE"
      "Write the wavefront-bench/v1 JSON report (default \
       BENCH_wavefront.json)."
  in
  let against =
    opt_arg Arg.(some file) None "against" "OLD.json"
      "Compare against a previous report; regressions are cases whose \
       confidence intervals are disjoint from the baseline's and whose median \
       moved beyond the noise threshold."
  in
  let fail_on_regression =
    flag_arg "fail-on-regression"
      "Exit 1 when --against finds regressions (default: report and exit 0, \
       the soft CI gate)."
  in
  let label =
    opt_arg Arg.string "local" "label" "LABEL"
      "Label recorded in the report, e.g. a git ref."
  in
  let repeats =
    opt_arg Arg.(some int) None "repeats" "N"
      "Timed repetitions per case (default 20)."
  in
  let min_delta =
    opt_arg Arg.(some float) None "min-delta-pct" "PCT"
      "Noise threshold for --against (default 5%)."
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const bench $ quick $ out $ against $ fail_on_regression $ label
          $ repeats $ min_delta $ Obs_ctx.term)

(* --- fit --- *)

(* Both transports expose the one MICROBENCH signature, so the simulated
   and the real curve reach Loggp.Fit through literally the same calls. *)
let fit real ctx =
  (if real then begin
     let (module M : Wrun.Substrate.MICROBENCH) =
       Shmpi.Pingpong.microbench ()
     in
     let curve =
       M.curve ~rounds:100 ~sizes:[ 64; 256; 1024; 4096; 16384; 65536 ] ()
     in
     let p = Shmpi.Pingpong.fit_platform curve in
     Fmt.pr "measured %s:@." M.name;
     List.iter (fun (s, t) -> Fmt.pr "  %6d B: %8.3f us@." s t) curve;
     Fmt.pr "fitted: %a@." Loggp.Params.pp p
   end
   else begin
     let sizes = Xtsim.Pingpong.figure3_sizes in
     let (module Off : Wrun.Substrate.MICROBENCH) =
       Xtsim.Pingpong.microbench Loggp.Params.xt4 Off_node
     in
     let (module On : Wrun.Substrate.MICROBENCH) =
       Xtsim.Pingpong.microbench Loggp.Params.xt4 On_chip
     in
     let off, _ = Loggp.Fit.fit_offnode (Off.curve ~sizes ()) in
     let on, _ = Loggp.Fit.fit_onchip (On.curve ~sizes ()) in
     Fmt.pr "fitted from the simulated XT4 microbenchmark:@.";
     Fmt.pr "  off-node: %a@." Loggp.Params.pp_offnode off;
     Fmt.pr "  on-chip:  %a@." Loggp.Params.pp_onchip on
   end);
  Obs_ctx.finish ~config:(Fmt.str "real%b" real) ctx "fit"

let fit_cmd =
  let doc = "Fit LogGP parameters from a ping-pong microbenchmark" in
  let real =
    flag_arg "real"
      "Measure this machine's shared-memory transport instead of the \
       simulated XT4."
  in
  Cmd.v (Cmd.info "fit" ~doc) Term.(const fit $ real $ Obs_ctx.term)

(* --- measure-wg --- *)

let measure ctx =
  let wg6 = Kernels.Measure.transport_wg () in
  let wg10 =
    Kernels.Measure.transport_wg ~config:(Kernels.Transport.v ~angles:10 ()) ()
  in
  let lu = Kernels.Measure.lu_wg () in
  let lu_pre = Kernels.Measure.lu_wg_pre () in
  Fmt.pr
    "@[<v>measured on this machine (us/cell):@,\
     transport, 6 angles (Sweep3D-like):  %.4f@,\
     transport, 10 angles (Chimaera-like): %.4f@,\
     LU sweep kernel:                      %.4f@,\
     LU pre-computation:                   %.4f@]@."
    wg6 wg10 lu lu_pre;
  Obs_ctx.finish
    ~kv:
      [ ("transport_wg6", wg6); ("transport_wg10", wg10); ("lu_wg", lu);
        ("lu_wg_pre", lu_pre) ]
    ctx "measure-wg"

let measure_cmd =
  let doc = "Measure per-cell kernel times (the model's Wg inputs) for real" in
  Cmd.v (Cmd.info "measure-wg" ~doc) Term.(const measure $ Obs_ctx.term)

(* --- telemetry --- *)

(* The allocation gate: minor-heap words per evaluation of the serving
   path's units of work, judged against pinned budgets. The predictor's
   closed-form evaluator and the batched engine's steady-state step are
   contractually allocation-free (budget 0, pinned exactly); the full
   batched run carries a nonzero ratchet with headroom, so a change that
   starts boxing in either hot loop trips --assert-zero-alloc in CI. *)

type alloc_target = {
  tname : string;
  tdoc : string;
  budget : float;  (** minor words per iteration, inclusive ceiling *)
  titerations : int;
  prepare : cores:int -> unit -> unit;
      (** builds all state (evaluator, probe, cost tables) outside the
          measured window and returns the unit of work *)
}

(* Measured at ~710k minor words per 256-rank sweep3d run (the outcome
   record, the per-rank flat arrays, the scheduler's diagonal lists —
   setup, not the tile loop); the ratchet pins 1M so only a real
   regression trips it — per-tile boxing on this grid would add tens of
   millions of words, setup jitter a few thousand. *)
let batched_run_budget = 1_000_000.0

let alloc_targets =
  [
    {
      tname = "predictor";
      tdoc = "Plugplay.Eval.run: the closed-form (r1)-(r5) evaluation";
      budget = 0.0;
      titerations = 1000;
      prepare =
        (fun ~cores ->
          let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 32) in
          let cfg = Plugplay.config Loggp.Params.xt4 ~cores in
          let e = Plugplay.Eval.create app cfg in
          fun () -> Plugplay.Eval.run e);
    };
    {
      tname = "batched-step";
      tdoc = "Batched.Steady.step: one steady-state per-tile op sequence";
      budget = 0.0;
      titerations = 1000;
      prepare =
        (fun ~cores ->
          let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 32) in
          let pg = Wgrid.Proc_grid.of_cores cores in
          let costs =
            Wrun.Costs.loggp ~model_bus:false ~cmp:Wgrid.Cmp.single_core
              Loggp.Params.xt4 pg app
          in
          let p = Wrun.Batched.Steady.probe ~costs pg app in
          fun () -> Wrun.Batched.Steady.step p);
    };
    {
      tname = "batched-run";
      tdoc = "Batched.run, 256 ranks end to end (ratchet, not zero)";
      budget = batched_run_budget;
      titerations = 25;
      prepare =
        (fun ~cores:_ ->
          let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 32) in
          let pg = Wgrid.Proc_grid.of_cores 256 in
          let costs =
            Wrun.Costs.loggp ~model_bus:false ~cmp:Wgrid.Cmp.single_core
              Loggp.Params.xt4 pg app
          in
          fun () -> ignore (Wrun.Batched.run ~costs pg app));
    };
    {
      tname = "serve-predict";
      tdoc =
        "Api.predict_into: the daemon's parse -> Eval.run -> serialize hot \
         path (ratchet, not zero: JSON parse and response render allocate a \
         bounded constant)";
      (* Measured at 211,424 minor words per request on this body at the
         default 4096-core grid, ~51 words/core: the parse and the
         response render are small constants, the bulk is the
         per-request Eval.create hoisting its O(cores) communication
         tables. The ratchet pins 256k so only a real regression trips
         it — quadratic table growth or a per-column response copy is
         tens of millions. *)
      budget = 256_000.0;
      titerations = 1000;
      prepare =
        (fun ~cores ->
          let body =
            Printf.sprintf
              {|{"app":{"name":"sweep3d","nx":256,"ny":256,"nz":256},"machine":{"platform":"xt4","cores":%d,"cores_per_node":2}}|}
              cores
          in
          let buf = Buffer.create 4096 in
          fun () ->
            match Serve.Api.predict_into buf body with
            | Ok () -> ()
            | Error m -> Fmt.failwith "serve-predict: %s" m);
    };
    {
      tname = "control-alloc";
      tdoc = "a deliberately allocating closure (the gate's negative control)";
      budget = 0.0;
      titerations = 1000;
      prepare =
        (fun ~cores:_ () -> ignore (Sys.opaque_identity (ref (Sys.opaque_identity 0))));
    };
  ]

let telemetry targets cores assert_zero ctx =
  if cores < 9 then begin
    Fmt.epr
      "wavefront: --cores must be at least 9 (the steady-state probe \
       needs a 3x3 processor grid)@.";
    exit 2
  end;
  (* Default set: the contractual targets. The negative control only
     runs when asked for — its whole point is to exit nonzero. *)
  let selected =
    match targets with
    | [] ->
        List.filter (fun t -> t.tname <> "control-alloc") alloc_targets
    | names ->
        List.map
          (fun n ->
            match List.find_opt (fun t -> t.tname = n) alloc_targets with
            | Some t -> t
            | None ->
                Fmt.epr "wavefront: unknown --target %s (have: %s)@." n
                  (String.concat ", "
                     (List.map (fun t -> t.tname) alloc_targets));
                exit 2)
          names
  in
  Fmt.pr "allocation gate: %d target(s), %d-core batched grid@."
    (List.length selected) cores;
  let phases = Obs.Runtime.phases () in
  let rows =
    List.map
      (fun t ->
        Obs.Runtime.phase phases t.tname @@ fun () ->
        let f =
          try t.prepare ~cores
          with Invalid_argument m ->
            Fmt.epr "wavefront: %s: %s@." t.tname m;
            exit 2
        in
        (t, Obs.Runtime.measure_alloc ~iterations:t.titerations f))
      selected
  in
  let breaches =
    List.filter
      (fun (t, (a : Obs.Runtime.alloc)) -> a.minor_words_per_iter > t.budget)
      rows
  in
  List.iter
    (fun (t, (a : Obs.Runtime.alloc)) ->
      let ok = a.minor_words_per_iter <= t.budget in
      Fmt.pr "@[<v>%-13s %s@,%-13s %a@,%-13s budget %g words/iter: %s@]@."
        t.tname t.tdoc "" Obs.Runtime.pp_alloc a "" t.budget
        (if ok then "within budget" else "EXCEEDED"))
    rows;
  Fmt.pr "runtime:@.%a@." Obs.Runtime.pp_report (Obs.Runtime.report phases);
  let status = if breaches <> [] && assert_zero then 1 else 0 in
  if breaches <> [] then
    Fmt.pr "%d target(s) over budget%s@." (List.length breaches)
      (if assert_zero then " (failing: --assert-zero-alloc)"
       else " (reported only; gate with --assert-zero-alloc)");
  Obs_ctx.finish
    ~config:
      (Fmt.str "%s|p%d"
         (String.concat "," (List.map (fun (t, _) -> t.tname) rows))
         cores)
    ~kv:
      (("exit_status", float_of_int status)
      :: List.map
           (fun (t, (a : Obs.Runtime.alloc)) ->
             (t.tname ^ ".minor_words_per_iter", a.minor_words_per_iter))
           rows)
    ctx "telemetry";
  if status <> 0 then exit status

let telemetry_cmd =
  let doc =
    "Measure minor-heap allocation per evaluation of the serving-path \
     units (the closed-form predictor, the batched engine's steady-state \
     step, a full batched run) and gate them against pinned budgets"
  in
  let targets =
    Arg.(value
         & opt_all
             (enum (List.map (fun t -> (t.tname, t.tname)) alloc_targets))
             []
         & info [ "target" ] ~docv:"T"
             ~doc:
               "Target to measure (repeatable): predictor, batched-step, \
                batched-run or control-alloc. Default: the three \
                contractual targets; control-alloc is a deliberately \
                allocating closure that proves the gate can fail.")
  in
  let cores =
    Arg.(value & opt int 4096
         & info [ "p"; "cores" ] ~docv:"P"
             ~doc:
               "Core count of the model configuration and the batched \
                steady-state grid (at least 9).")
  in
  let assert_zero =
    flag_arg "assert-zero-alloc"
      "Exit 1 when any measured target exceeds its allocation budget (the CI \
       gate; default reports without failing)."
  in
  Cmd.v (Cmd.info "telemetry" ~doc)
    Term.(const telemetry $ targets $ cores $ assert_zero $ Obs_ctx.term)

(* --- runs --- *)

(* Reading the ledger other runs append to. Neither subcommand writes:
   listing or diffing the record must not grow it. *)

let runs_ledger_arg =
  Arg.(value & opt (some string) None
       & info [ "ledger" ] ~docv:"FILE"
           ~doc:
             (Fmt.str "Run-ledger file to read (default %s)."
                Obs.Ledger.default_path))

let load_ledger path =
  match Obs.Ledger.load ?path () with
  | Error m ->
      Fmt.epr "wavefront: %s@." m;
      exit 2
  | Ok (records, skipped) ->
      if skipped > 0 then
        Fmt.epr "wavefront: ledger: skipped %d malformed line(s)@." skipped;
      records

let runs_list ledger last =
  let records = load_ledger ledger in
  let total = List.length records in
  if total = 0 then
    Fmt.pr "ledger %s is empty@."
      (Option.value ledger ~default:Obs.Ledger.default_path)
  else begin
    let first_shown = if last <= 0 then 0 else max 0 (total - last) in
    Fmt.pr "%4s  %-19s %-10s %-7s %-12s %9s  %s@." "#" "when" "subcommand"
      "engine" "config" "duration" "git";
    List.iteri
      (fun i (r : Obs.Ledger.t) ->
        if i >= first_shown then
          let tm = Unix.localtime r.timestamp in
          Fmt.pr "%4d  %04d-%02d-%02d %02d:%02d:%02d %-10s %-7s %-12s %8.2fs  %s@."
            i (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
            tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec r.subcommand
            (if r.engine = "" then "-" else r.engine)
            (if r.config_hash = "" then "-" else r.config_hash)
            r.duration_s
            (if r.git = "" then "-" else r.git))
      records;
    if first_shown > 0 then
      Fmt.pr "(%d earlier record(s) elided; -n 0 shows all)@." first_shown
  end

let runs_list_cmd =
  let doc = "List the recorded invocations, oldest first" in
  let last =
    Arg.(value & opt int 20
         & info [ "n"; "last" ] ~docv:"N"
             ~doc:"Show only the last N records (0 = all; default 20).")
  in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(const runs_list $ runs_ledger_arg $ last)

let runs_compare ledger a b min_delta fail_on_regression =
  let records = load_ledger ledger in
  let total = List.length records in
  let resolve label i =
    let j = if i < 0 then total + i else i in
    if j < 0 || j >= total then begin
      Fmt.epr
        "wavefront: %s index %d out of range (ledger has %d record(s); \
         negative indices count from the end)@."
        label i total;
      exit 2
    end;
    List.nth records j
  in
  let base = resolve "BASE" a and current = resolve "CURRENT" b in
  if
    base.Obs.Ledger.subcommand <> current.Obs.Ledger.subcommand
    || (base.config_hash <> "" && current.config_hash <> ""
        && base.config_hash <> current.config_hash)
  then
    Fmt.pr
      "note: comparing %s/%s against %s/%s — different work, deltas are \
       apples to oranges@."
      base.subcommand base.config_hash current.subcommand
      current.config_hash;
  let diffs = Obs.Ledger.compare_runs ?min_delta_pct:min_delta base current in
  List.iter (fun d -> Fmt.pr "%a@." Obs.Ledger.pp_diff d) diffs;
  let regressed = Obs.Ledger.regressions diffs in
  if regressed = [] then Fmt.pr "no regressions@."
  else begin
    Fmt.pr "%d regression(s)@." (List.length regressed);
    if fail_on_regression then exit 1
  end

let runs_compare_cmd =
  let doc =
    "Diff two ledger records metric by metric and flag regressions \
     beyond the noise threshold"
  in
  let base =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"BASE"
             ~doc:"Baseline record index (negative counts from the end).")
  in
  let current =
    Arg.(required & pos 1 (some int) None
         & info [] ~docv:"CURRENT"
             ~doc:"Current record index (negative counts from the end).")
  in
  let min_delta =
    opt_arg Arg.(some float) None "min-delta-pct" "PCT"
      "Noise threshold; moves under it are Unchanged (default 5%)."
  in
  let fail_on_regression =
    flag_arg "fail-on-regression"
      "Exit 1 when any metric regressed (default: report and exit 0, the soft \
       CI gate)."
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const runs_compare $ runs_ledger_arg $ base $ current $ min_delta
          $ fail_on_regression)

let runs_cmd =
  let doc =
    "Inspect the run ledger: list recorded invocations, diff two of them"
  in
  Cmd.group (Cmd.info "runs" ~doc) [ runs_list_cmd; runs_compare_cmd ]

(* --- serve / slam --- *)

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind or target.")

let port_arg ~default doc =
  Arg.(value & opt int default & info [ "port" ] ~docv:"PORT" ~doc)

let seed_serve_arg =
  Arg.(value & opt int 42
       & info [ "seed" ] ~docv:"SEED"
           ~doc:"PRNG seed for the chaos/request streams.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress output.")

let serve_main host port workers queue max_body header_timeout_ms deadline_ms
    chaos_burst chaos_fail chaos_slow chaos_slow_ms breaker_window
    breaker_min_calls breaker_threshold breaker_cooldown seed quiet =
  let chaos =
    Serve.Chaos.v ~fail_burst:chaos_burst ~fail_rate:chaos_fail
      ~slow_rate:chaos_slow ~slow_ms:chaos_slow_ms ()
  in
  let cfg =
    {
      Serve.Server.host;
      port;
      workers;
      queue_capacity = queue;
      max_body;
      header_timeout_ms;
      default_deadline_ms = deadline_ms;
      chaos;
      seed;
      breaker_window;
      breaker_min_calls;
      breaker_threshold;
      breaker_cooldown_s = breaker_cooldown;
      quiet;
    }
  in
  exit (Serve.Server.run cfg)

let serve_cmd =
  let doc =
    "Serve the plug-and-play model over HTTP: predictions, design-space \
     sweeps, health and metrics, with load shedding, deadlines, a \
     validation circuit breaker and graceful drain"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Endpoints: GET /healthz, GET /readyz (503 while draining), GET \
         /metrics (OpenMetrics), POST /v1/predict (model evaluation, \
         optionally cross-validated against the batched engine behind a \
         circuit breaker), POST /v1/sweep (bounded (Htile, grid, K) \
         design-space sweep with a Pareto frontier).";
      `P
        "Robustness contracts: connections beyond the admission queue are \
         answered 429 with Retry-After; a request's X-Deadline-Ms header \
         caps its total evaluation time (504 on expiry, checked \
         cooperatively inside sweeps); requests whose headers stall past \
         the header budget get 408; SIGTERM/SIGINT drain the backlog so \
         every admitted connection is answered, then exit 0.";
    ]
  in
  let workers = opt_arg Arg.int 4 "workers" "N" "Worker domains." in
  let queue =
    opt_arg Arg.int 64 "queue" "N"
      "Admission queue capacity; beyond it connections shed with 429."
  in
  let max_body =
    opt_arg Arg.int (1024 * 1024) "max-body" "BYTES"
      "Request body cap; larger advertisements get 413 before the body is \
       read."
  in
  let header_timeout =
    opt_arg Arg.float 2000.0 "header-timeout-ms" "MS"
      "Budget for a request to arrive in full (slow-loris defense, 408)."
  in
  let deadline =
    opt_arg Arg.float 10_000.0 "default-deadline-ms" "MS"
      "Per-request deadline when X-Deadline-Ms is absent."
  in
  let chaos_burst =
    opt_arg Arg.int 0 "chaos-fail-burst" "N"
      "Chaos: fail the first N validation calls (opens the breaker \
       deterministically, then lets it recover)."
  in
  let chaos_fail =
    opt_arg Arg.float 0.0 "chaos-fail-rate" "P"
      "Chaos: steady-state validation failure probability."
  in
  let chaos_slow =
    opt_arg Arg.float 0.0 "chaos-slow-rate" "P"
      "Chaos: probability of stalling a validation call."
  in
  let chaos_slow_ms =
    opt_arg Arg.float 50.0 "chaos-slow-ms" "MS"
      "Chaos: stall duration for --chaos-slow-rate."
  in
  let breaker_window =
    opt_arg Arg.int 16 "breaker-window" "N"
      "Sliding outcome window of the validation breaker."
  in
  let breaker_min_calls =
    opt_arg Arg.int 4 "breaker-min-calls" "N"
      "Outcomes required before the failure rate is judged."
  in
  let breaker_threshold =
    opt_arg Arg.float 0.5 "breaker-threshold" "F"
      "Failure fraction that opens the breaker."
  in
  let breaker_cooldown =
    opt_arg Arg.float 2.0 "breaker-cooldown-s" "S"
      "Open-state cooldown before the half-open probe."
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(const serve_main $ host_arg
          $ port_arg ~default:8080 "Port to bind (0 = ephemeral)."
          $ workers $ queue $ max_body $ header_timeout $ deadline
          $ chaos_burst $ chaos_fail $ chaos_slow $ chaos_slow_ms
          $ breaker_window $ breaker_min_calls $ breaker_threshold
          $ breaker_cooldown $ seed_serve_arg $ quiet_arg)

let slam_main host port requests clients seed client_timeout latency_budget
    expect_breaker fail_on_invariant report quiet =
  let cfg =
    {
      Serve.Slam.host;
      port;
      requests;
      clients;
      seed;
      client_timeout_s = client_timeout;
      latency_budget_ms = latency_budget;
      expect_breaker;
      fail_on_invariant;
      report_path = report;
      quiet;
    }
  in
  exit (Serve.Slam.run cfg)

let slam_cmd =
  let doc =
    "Chaos/soak-test a running serve daemon with a seeded mix of valid, \
     malformed, oversized, slow-loris and deadline-doomed requests, then \
     assert its robustness invariants"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Invariants: the daemon survives; every awaited connection gets a \
         well-formed status line; the daemon's own accounting reconciles \
         (requests = outcomes + in-flight + queued on the final /metrics \
         scrape); malformed/oversized/slow-loris/expired requests get \
         their contracted 400/413/408/504 (shedding 429s excepted); the \
         fast-path p99 stays under the latency budget. With \
         --expect-breaker, the validation breaker must have opened and \
         recovered. Exit 0 on success, 1 when an invariant failed under \
         --fail-on-invariant, 2 when the daemon is unreachable.";
    ]
  in
  let requests =
    Arg.(value & opt int 1000
         & info [ "n"; "requests" ] ~docv:"N" ~doc:"Total requests.")
  in
  let clients = opt_arg Arg.int 4 "clients" "N" "Concurrent client domains." in
  let client_timeout =
    opt_arg Arg.float 10.0 "client-timeout-s" "S"
      "Per-connection give-up budget (a hang past it is an invariant breach)."
  in
  let latency_budget =
    opt_arg Arg.float 2000.0 "latency-budget-ms" "MS" "Fast-path p99 bound."
  in
  let expect_breaker =
    flag_arg "expect-breaker"
      "Assert the validation breaker opened and recovered (pair with the \
       daemon's --chaos-fail-burst)."
  in
  let fail_on_invariant =
    flag_arg "fail-on-invariant"
      "Exit 1 when any invariant failed (default: report and exit 0)."
  in
  let report =
    file_arg "report" "Write the wavefront-slam/v1 JSON report here."
  in
  Cmd.v (Cmd.info "slam" ~doc ~man)
    Term.(const slam_main $ host_arg
          $ port_arg ~default:8080 "Daemon port to target."
          $ requests $ clients $ seed_serve_arg $ client_timeout
          $ latency_budget $ expect_breaker $ fail_on_invariant $ report
          $ quiet_arg)

(* --- main --- *)

let default =
  Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let info =
    Cmd.info "wavefront" ~version:"1.0.0"
      ~doc:
        "Plug-and-play LogGP performance model for pipelined wavefront \
         computations (Mudalige, Vernon & Jarvis, IPDPS 2008)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ predict_cmd; explain_cmd; simulate_cmd; validate_cmd; report_cmd;
            profile_cmd; perturb_cmd; recover_cmd; timeline_cmd; idlewave_cmd;
            bench_cmd; figure_cmd; scale_cmd; fit_cmd; measure_cmd;
            telemetry_cmd; runs_cmd; serve_cmd; slam_cmd ]))
