(* The workflow behind `wavefront recover`: one (application, perturbation,
   checkpoint policy) triple driven through every layer that understands
   it — the closed-form recovery term, the simulator with the protocol
   armed (recovery cost shows up in simulated time as recover.* spans),
   the dataflow reference (protocol completion and who was revived), and
   optionally the real shared-memory kernel under genuine checkpoint/
   rollback — reconciled in one report.

   The comparison hinges on the three layers sharing their arithmetic:
   Perturb.Recover owns the checkpoint schedule and rollback depth, so
   the model's term and the substrates' behaviour can only diverge in
   how overhead overlaps with pipeline slack, which is exactly what the
   elapsed-growth row surfaces. *)

open Wavefront_core

type real_result = {
  outcome : Kernels.Sweep_exec.recoverable_outcome;
  matches : bool option;
      (* gathered grid bitwise-equals the sequential reference; None when
         the run did not complete *)
}

type t = {
  policy : Perturb.Recover.policy;
  optimal : int;
  waves : int;
  wave_cost : float;
  predicted : Perturb.Recover.term;
  simulated : Perturb.Recover.term;
  tolerance : float;
  within_tolerance : bool;
  compare : Table.t;
  intervals : Table.t;
  sim_base : Xtsim.Wavefront_sim.outcome;
  sim : Xtsim.Wavefront_sim.outcome;
  dataflow : Wrun.Dataflow.outcome;
  real : real_result option;
  runtime : (string * Obs.Runtime.delta) list;
      (** host-side cost of producing this report, per phase *)
}

(* Summed duration of the spans with this name, globally and as the
   per-rank maximum. The model's checkpoint term is per rank (every rank
   pauses at the same waves, so the critical path pays the schedule once),
   while restart and rework are charged only where failures struck. *)
let sum_spans spans name =
  List.fold_left
    (fun tot (s : Obs.Span.t) -> if s.name = name then tot +. s.dur else tot)
    0.0 spans

let max_rank_spans spans name =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Span.t) ->
      if s.name = name then
        Hashtbl.replace tbl s.rank
          ((try Hashtbl.find tbl s.rank with Not_found -> 0.0) +. s.dur))
    spans;
  Hashtbl.fold (fun _ v acc -> Float.max v acc) tbl 0.0

let close ~tolerance a b =
  Float.abs (a -. b) <= Float.max 1e-6 (tolerance *. Float.max a b)

let dash = "-"

(* Candidate intervals around the Daly optimum (and the chosen policy),
   each priced with the expected closed-form term. *)
let interval_table ~policy ~optimal ~waves ~wave_cost ~failures =
  let candidates =
    [ optimal / 4; optimal / 2; optimal; optimal * 2; optimal * 4;
      policy.Perturb.Recover.interval ]
    |> List.map (fun k -> max 1 (min waves k))
    |> List.sort_uniq compare
  in
  let rows =
    List.map
      (fun k ->
        let p = { policy with Perturb.Recover.interval = k } in
        let term = Perturb.Recover.expected_term p ~waves ~wave_cost ~failures in
        let mark =
          (if k = policy.Perturb.Recover.interval then [ "policy" ] else [])
          @ if k = optimal then [ "optimal" ] else []
        in
        [ Table.icell k;
          Table.icell (Perturb.Recover.checkpoints ~interval:k ~waves);
          Table.fcell term.checkpoint; Table.fcell term.rework;
          Table.fcell term.total;
          (match mark with [] -> "" | l -> "<- " ^ String.concat ", " l) ])
      candidates
  in
  Table.v ~id:"RECOVER-INTERVALS"
    ~title:"Expected recovery overhead by checkpoint interval (us)"
    ~notes:
      [ Fmt.str
          "Daly-style optimum K* = sqrt(2 * waves * C / (f * T_wave)) = %d"
          optimal;
        "expected rework: each failure loses K/2 waves on average" ]
    ~headers:[ "K"; "ckpts"; "checkpoint"; "rework"; "expected total"; "" ]
    rows

let run ?(real = false) ?(model_bus = true) ?(engine = Engine.Event)
    ?(tolerance = 0.05) ?(capacity = Obs.Tracer.default_capacity) ~policy
    (cfg : Plugplay.config) (app : App_params.t) (spec : Perturb.Spec.t) =
  (* Host-side runtime cost per stage, for the report's runtime section. *)
  let phases = Obs.Runtime.phases () in
  let r = Plugplay.iteration app cfg in
  let wave_cost = r.w +. r.w_pre in
  let waves = App_params.waves app in
  (* One global wave per tile step of a rank, so a rank killed before its
     n-th tile dies at global wave n; clauses past the end never fire. *)
  let fail_waves =
    List.filter_map
      (fun (f : Perturb.Spec.failure) ->
        if f.after_tiles < waves then Some f.after_tiles else None)
      spec.failures
  in
  let predicted, optimal =
    Obs.Runtime.phase phases "model" (fun () ->
        ( Perturb.Recover.deterministic_term policy ~waves ~wave_cost
            ~fail_waves,
          Perturb.Recover.optimal_interval ~waves ~wave_cost
            ~failures:(List.length fail_waves) ~ckpt_cost:policy.ckpt_cost ))
  in
  let obs = Obs.Tracer.create ~capacity () in
  let sim_base, sim =
    Obs.Runtime.phase phases "simulate" (fun () ->
        let sim_base = Engine.observed_run ~model_bus engine cfg app in
        let sim =
          Engine.observed_run ~model_bus ~perturb:spec ~recover:policy ~obs
            engine cfg app
        in
        (sim_base, sim))
  in
  let spans = Obs.Tracer.spans obs in
  let simulated =
    let checkpoint = max_rank_spans spans "recover.checkpoint" in
    let restart = sum_spans spans "recover.restart" in
    let rework = sum_spans spans "recover.replay" in
    { Perturb.Recover.checkpoint; restart; rework;
      total = checkpoint +. restart +. rework }
  in
  let within_tolerance = close ~tolerance predicted.total simulated.total in
  let dataflow =
    Obs.Runtime.phase phases "dataflow" (fun () ->
        Wrun.Dataflow.run ~perturb:spec ~recover:policy cfg.pgrid app)
  in
  let real_result =
    if not real then None
    else
      Obs.Runtime.phase phases "real" (fun () ->
          let htile = max 1 (int_of_float app.htile) in
          let plan =
            Kernels.Sweep_exec.plan ~htile ~schedule:app.schedule
              ~nonwavefront:app.nonwavefront ~perturb:spec app.grid cfg.pgrid
          in
          let outcome = Kernels.Sweep_exec.run_recoverable ~policy plan in
          let matches =
            match outcome with
            | Kernels.Sweep_exec.Recovered (o, _) ->
                Some
                  (Kernels.Sweep_exec.gather plan o.blocks
                  = Kernels.Sweep_exec.run_sequential plan)
            | Unrecovered _ -> None
          in
          Some { outcome; matches })
  in
  (* The rest is analysis of the collected data; the record is patched
     with the runtime section once the phase has closed. *)
  let report =
    Obs.Runtime.phase phases "analyze" @@ fun () ->
  let ranks = Wgrid.Proc_grid.cores cfg.pgrid in
  let per_rank_ckpts =
    Perturb.Recover.checkpoints ~interval:policy.interval ~waves
  in
  let real_stats =
    match real_result with
    | Some { outcome = Kernels.Sweep_exec.Recovered (_, s); _ } -> Some s
    | _ -> None
  in
  let opt_int = function None -> dash | Some v -> Table.icell v in
  let compare =
    Table.v ~id:"RECOVER-COMPARE"
      ~title:"Recovery overhead: closed-form model vs simulated vs real"
      ~notes:
        ([ Fmt.str "policy: %a; Daly optimum K* = %d" Perturb.Recover.pp
             policy optimal;
           Fmt.str "spec: %a" Perturb.Spec.pp spec;
           Fmt.str "dataflow: %a" Wrun.Dataflow.pp_outcome dataflow;
           (if within_tolerance then
              Fmt.str
                "simulated overhead within %.0f%% of the closed form"
                (100.0 *. tolerance)
            else
              Fmt.str
                "MISMATCH: simulated overhead %.4f us vs predicted %.4f us \
                 (tolerance %.0f%%)"
                simulated.total predicted.total (100.0 *. tolerance)) ]
        @
        match real_result with
        | None -> []
        | Some { outcome = Kernels.Sweep_exec.Recovered (o, s); matches } ->
            [ Fmt.str
                "real run recovered in %.0f us: %d restart(s), %d \
                 checkpoint(s), %d wave(s) replayed; grid %s"
                o.wall_time s.restarts s.checkpoints s.replayed_waves
                (match matches with
                | Some true -> "bitwise-equal to the unfailed reference"
                | Some false -> "MISMATCHES the unfailed reference"
                | None -> "not checked") ]
        | Some { outcome = Unrecovered { failed; reason; wall_time; _ }; _ }
          ->
            [ Fmt.str "real run UNRECOVERED after %.0f us: rank(s) %s (%s)"
                wall_time
                (String.concat ", " (List.map string_of_int failed))
                (Printexc.to_string reason) ])
      ~headers:[ "quantity"; "model"; "simulated"; "real" ]
      [
        [ "checkpoints (all ranks)"; Table.icell (per_rank_ckpts * ranks);
          Table.icell sim.checkpoints;
          opt_int
            (Option.map
               (fun (s : Kernels.Sweep_exec.recovery_stats) -> s.checkpoints)
               real_stats) ];
        [ "ranks recovered"; Table.icell (List.length fail_waves);
          Table.icell (List.length sim.recovered);
          opt_int
            (Option.map
               (fun (s : Kernels.Sweep_exec.recovery_stats) -> s.restarts)
               real_stats) ];
        [ "waves replayed";
          Table.icell
            (List.fold_left
               (fun acc w ->
                 acc + Perturb.Recover.lost_waves policy ~fail_wave:w)
               0 fail_waves);
          Table.icell
            (int_of_float
               (Float.round (simulated.rework /. Float.max wave_cost 1e-9)));
          opt_int
            (Option.map
               (fun (s : Kernels.Sweep_exec.recovery_stats) ->
                 s.replayed_waves)
               real_stats) ];
        [ "checkpoint overhead (us/rank)"; Table.fcell predicted.checkpoint;
          Table.fcell simulated.checkpoint; dash ];
        [ "restart cost (us)"; Table.fcell predicted.restart;
          Table.fcell simulated.restart; dash ];
        [ "rework (us)"; Table.fcell predicted.rework;
          Table.fcell simulated.rework; dash ];
        [ "recovery overhead (us)"; Table.fcell predicted.total;
          Table.fcell simulated.total; dash ];
        [ "elapsed growth (us)"; dash;
          Table.fcell (sim.elapsed -. sim_base.elapsed); dash ];
      ]
  in
  let intervals =
    interval_table ~policy ~optimal ~waves ~wave_cost
      ~failures:(List.length fail_waves)
  in
  {
    policy;
    optimal;
    waves;
    wave_cost;
    predicted;
    simulated;
    tolerance;
    within_tolerance;
    compare;
    intervals;
    sim_base;
    sim;
    dataflow;
    real = real_result;
    runtime = [];
  }
  in
  { report with runtime = Obs.Runtime.report phases }

(* Exit discipline shared with `wavefront perturb`: 0 clean, 3 degraded
   (completed, but out of tolerance / mismatched / leaking messages), 4
   when a failure went unrecovered. *)
let exit_status t =
  let sim_unrecovered =
    List.exists (fun r -> not (List.mem r t.sim.recovered)) t.sim.failed
    || not t.sim.completed
  in
  let real_unrecovered =
    match t.real with
    | Some { outcome = Kernels.Sweep_exec.Unrecovered _; _ } -> true
    | _ -> false
  in
  let real_mismatch =
    match t.real with Some { matches = Some false; _ } -> true | _ -> false
  in
  if sim_unrecovered || real_unrecovered || not t.dataflow.completed then 4
  else if
    (not t.within_tolerance)
    || t.dataflow.mismatches <> []
    || t.dataflow.orphaned > 0
    || real_mismatch
  then 3
  else 0

let pp ppf t =
  Table.render ppf t.compare;
  Format.pp_print_newline ppf ();
  Table.render ppf t.intervals;
  Format.fprintf ppf "@.runtime:@.%a@." Obs.Runtime.pp_report t.runtime
