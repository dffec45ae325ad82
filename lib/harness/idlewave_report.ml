(* The workflow behind `wavefront idlewave`: inject the spec's idle-wave
   sources into a control/perturbed pair of runs on the event-level
   simulator and on the batched engine's analytic term schedule
   (optionally on the real shared-memory kernel too), run the
   differential front detector on each pair, and reconcile the measured
   propagation speed and decay with the closed-form Perturb.Idle_model
   prediction built from the same LogGP platform numbers.

   On a silent system with single-core nodes and the bus model off, the
   simulator and the model produce identical timelines cell for cell, so
   their detectors agree exactly and both match the analytic hop cost to
   float precision; the real kernel lands within a busy-wait
   tolerance. *)

open Wavefront_core
open Wgrid

type t = {
  spec : Perturb.Spec.t;
  analytic : Perturb.Idle_model.t option;  (** the closed-form prediction *)
  sim : Obs.Idle_wave.t;  (** detector on the event-level simulator pair *)
  model : Obs.Idle_wave.t;  (** detector on the batched model pair *)
  real : Obs.Idle_wave.t option;  (** detector on the real kernel pair *)
  timeline_base : Obs.Timeline.t;  (** control simulator run *)
  timeline : Obs.Timeline.t;  (** perturbed simulator run *)
  identity : bool;  (** perturbed sim and model timelines identical *)
  reconcile : Table.t;
  runtime : (string * Obs.Runtime.delta) list;
      (** host-side cost of producing this report, per phase *)
}

let dash = "-"

(* The fit in the direction the wave actually travelled; the sweep
   direction decides which one has enough fronts. *)
let main_fit (d : Obs.Idle_wave.t) =
  match d.forward with Some f -> Some f | None -> d.backward

let run ?(real = false) ?(model_bus = true) ?(engine = Engine.Event)
    ?(capacity = Obs.Tracer.default_capacity) (cfg : Plugplay.config)
    (app : App_params.t) (spec : Perturb.Spec.t) =
  let waves = App_params.waves app in
  (* Host-side runtime cost per stage (no tracer attach: runtime spans
     are wall-clock nondeterministic, the timelines are simulated time). *)
  let phases = Obs.Runtime.phases () in
  let timeline_of tr =
    Obs.Timeline.of_spans ~dropped:(Obs.Tracer.dropped tr) ~waves
      (Obs.Tracer.spans tr)
  in
  (* Simulator pair: same engine and configuration, with and without the
     spec. *)
  let sim_pair perturb =
    let tr = Obs.Tracer.create ~capacity () in
    ignore (Engine.observed_run ~model_bus ?perturb ~obs:tr engine cfg app);
    timeline_of tr
  in
  let timeline_base, timeline =
    Obs.Runtime.phase phases "simulate" (fun () ->
        let base = sim_pair None in
        (base, sim_pair (Some spec)))
  in
  (* Model pair: the batched engine's analytic term schedule under the
     same spec. *)
  let costs = Wrun.Costs.loggp ~cmp:cfg.cmp cfg.platform cfg.pgrid app in
  let model_pair perturb =
    let tr = Obs.Tracer.create ~capacity () in
    ignore (Wrun.Batched.run ?perturb ~obs:tr ~costs cfg.pgrid app);
    timeline_of tr
  in
  let model_base, model_tl =
    Obs.Runtime.phase phases "model" (fun () ->
        let base = model_pair None in
        (base, model_pair (Some spec)))
  in
  (* Hop distance between ranks: the wavefront-diagonal difference, which
     on a chain is just the rank difference. *)
  let diag r =
    let i, j = Proc_grid.coords cfg.pgrid r in
    i + j
  in
  let distance ~src ~dst = diag dst - diag src in
  (* Optional real pair, one domain per rank. *)
  let real_detect =
    if not real then None
    else
      Obs.Runtime.phase phases "real" (fun () ->
          let htile = max 1 (int_of_float app.htile) in
          let plan perturb =
            Kernels.Sweep_exec.plan ?perturb ~htile ~schedule:app.schedule
              ~nonwavefront:app.nonwavefront app.grid cfg.pgrid
          in
          let run_pair perturb =
            let trs =
              Array.init (Proc_grid.cores cfg.pgrid) (fun _ ->
                  Obs.Tracer.create ~capacity ())
            in
            ignore (Kernels.Sweep_exec.run ~obs:trs (plan perturb));
            let dropped =
              Array.fold_left (fun a tr -> a + Obs.Tracer.dropped tr) 0 trs
            in
            Obs.Timeline.of_spans ~dropped ~waves (Obs.Tracer.merge trs)
          in
          let base = run_pair None in
          let perturbed = run_pair (Some spec) in
          Some (Obs.Idle_wave.detect ~baseline:base ~distance perturbed))
  in
  (* Detection and reconciliation are one analyze phase; the record is
     patched with the runtime section once the phase has closed. *)
  let report =
    Obs.Runtime.phase phases "analyze" @@ fun () ->
  let sim_detect =
    Obs.Idle_wave.detect ~baseline:timeline_base ~distance timeline
  in
  let model_detect =
    Obs.Idle_wave.detect ~baseline:model_base ~distance model_tl
  in
  let identity = Obs.Timeline.equal timeline model_tl in
  (* Analytic side: the idle-wave term on the link the wave rides — the
     x-neighbor link when the grid has columns, else the y-neighbor one.
     Rank 0's downstream neighbor is rank 1 either way (row-major). *)
  let msg =
    if cfg.pgrid.cols > 1 then App_params.message_size_ew app cfg.pgrid
    else App_params.message_size_ns app cfg.pgrid
  in
  let hop_cost = Wrun.Costs.hop_latency costs ~src:0 ~dst:1 msg in
  let wave_period = Wrun.Costs.steady_period costs ~src:0 ~dst:1 msg in
  let analytic =
    Perturb.Idle_model.of_spec ~work:(Wrun.Costs.compute costs) spec ~hop_cost
      ~wave_period
  in
  let reconcile =
    let origin_cell = function
      | None -> dash
      | Some (r, w) -> Printf.sprintf "r%d w%d" r w
    in
    let m f = match analytic with None -> dash | Some im -> f im in
    let fitted f d =
      match main_fit d with None -> dash | Some fit -> Table.fcell (f fit)
    in
    let detected f d =
      if (d : Obs.Idle_wave.t).origin = None then dash else f d
    in
    let opt f = function None -> dash | Some d -> f d in
    let row name analytic f =
      [ name; analytic; f sim_detect; f model_detect; opt f real_detect ]
    in
    Table.v ~id:"IDLEWAVE-RECONCILE"
      ~title:
        "Idle-wave propagation: analytic model vs detected (sim / model / \
         real)"
      ~notes:
        ([ Fmt.str "spec: %a" Perturb.Spec.pp spec;
           Fmt.str "analytic link: hop cost %.4f us, wave period %.4f us"
             hop_cost wave_period;
           Fmt.str "sim and model timelines identical: %s"
             (if identity then "yes" else "NO") ]
        @
        if analytic = None then
          [ "spec has no pulse clause: nothing for the analytic model to \
             predict" ]
        else [])
      ~headers:[ "quantity"; "analytic"; "simulated"; "model"; "real" ]
      [
        row "origin (rank, wave)"
          (m (fun im -> origin_cell (Some (Perturb.Idle_model.origin im))))
          (fun d -> origin_cell d.Obs.Idle_wave.origin);
        row "amplitude delta (us)"
          (m (fun im -> Table.fcell (Perturb.Idle_model.delta im)))
          (detected (fun d -> Table.fcell d.Obs.Idle_wave.delta));
        row "hop latency (us/hop)"
          (m (fun im -> Table.fcell (Perturb.Idle_model.hop_cost im)))
          (fitted (fun f -> f.Obs.Idle_wave.hop_latency));
        row "speed (ranks/us)"
          (m (fun im -> Table.fcell ~prec:4 (Perturb.Idle_model.speed im)))
          (fun d ->
            match main_fit d with
            | None -> dash
            | Some f -> Table.fcell ~prec:4 f.Obs.Idle_wave.speed);
        row "ranks per wave"
          (m (fun im ->
               Table.fcell (Perturb.Idle_model.ranks_per_wave im)))
          (fitted (fun f -> f.Obs.Idle_wave.ranks_per_wave));
        row "decay (/hop)"
          (m (fun im -> Table.fcell ~prec:4 (Perturb.Idle_model.decay im)))
          (fitted (fun f -> f.Obs.Idle_wave.decay));
        row "fronts detected" dash (fun d ->
            Table.icell (List.length d.Obs.Idle_wave.fronts));
      ]
  in
  {
    spec;
    analytic;
    sim = sim_detect;
    model = model_detect;
    real = real_detect;
    timeline_base;
    timeline;
    identity;
    reconcile;
    runtime = [];
  }
  in
  { report with runtime = Obs.Runtime.report phases }

(* Relative disagreement between the analytic hop cost and the fitted
   one on the simulator, when both exist. *)
let speed_error t =
  match (t.analytic, main_fit t.sim) with
  | Some im, Some f ->
      let a = Perturb.Idle_model.hop_cost im in
      if a > 0.0 then Some (Float.abs (f.Obs.Idle_wave.hop_latency -. a) /. a)
      else None
  | _ -> None

let mismatch_tolerance = 0.05

let exit_status ?(fail_on_mismatch = false) t =
  let has_pulse = t.spec.Perturb.Spec.pulses <> [] in
  if has_pulse && t.sim.Obs.Idle_wave.origin = None then 3
  else if
    fail_on_mismatch
    && ((not t.identity)
       || match speed_error t with
          | Some e -> e > mismatch_tolerance
          | None -> false)
  then 3
  else 0

let pp ppf t =
  Table.render ppf t.reconcile;
  Format.pp_print_newline ppf ();
  let section title d =
    Format.fprintf ppf "%s: %a@.@." title Obs.Idle_wave.pp d
  in
  section "simulated" t.sim;
  section "model" t.model;
  (match t.real with Some d -> section "real" d | None -> ());
  (* The wait heatmap of the perturbed run with the detected wave drawn
     on top: O marks the origin cell, > each front's leading edge. *)
  Format.fprintf ppf
    "perturbed wait by rank x wave (O origin, > front leading edge):@.";
  Obs.Timeline.render ~metric:Obs.Timeline.Wait
    ~mark:(fun ~rank ~col -> Obs.Idle_wave.mark t.sim ~rank ~col)
    ppf t.timeline;
  Format.fprintf ppf "@.runtime:@.%a@." Obs.Runtime.pp_report t.runtime

let detect_json (d : Obs.Idle_wave.t) =
  let b = Buffer.create 256 in
  (match d.origin with
  | None -> Buffer.add_string b "{\"origin\":null"
  | Some (r, w) ->
      Buffer.add_string b
        (Printf.sprintf "{\"origin\":{\"rank\":%d,\"wave\":%d}" r w));
  Buffer.add_string b
    (Printf.sprintf ",\"delta\":%.6f,\"wave_period\":%.6f,\"fronts\":%d"
       d.delta d.wave_period (List.length d.fronts));
  (match main_fit d with
  | None -> ()
  | Some f ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"hop_latency\":%.6f,\"speed\":%.6f,\"ranks_per_wave\":%.6f,\
            \"decay\":%.6f,\"points\":%d"
           f.hop_latency f.speed f.ranks_per_wave f.decay f.points));
  Buffer.add_char b '}';
  Buffer.contents b

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"wavefront-idlewave/v1\",";
  Buffer.add_string b
    (Printf.sprintf "\"spec\":\"%s\"," (Fmt.str "%a" Perturb.Spec.pp t.spec));
  Buffer.add_string b
    (Printf.sprintf "\"identity\":%b," t.identity);
  (match t.analytic with
  | None -> Buffer.add_string b "\"analytic\":null,"
  | Some im ->
      let r, w = Perturb.Idle_model.origin im in
      Buffer.add_string b
        (Printf.sprintf
           "\"analytic\":{\"origin\":{\"rank\":%d,\"wave\":%d},\
            \"delta\":%.6f,\"hop_cost\":%.6f,\"wave_period\":%.6f,\
            \"speed\":%.6f,\"ranks_per_wave\":%.6f,\"decay\":%.6f},"
           r w
           (Perturb.Idle_model.delta im)
           (Perturb.Idle_model.hop_cost im)
           (Perturb.Idle_model.wave_period im)
           (Perturb.Idle_model.speed im)
           (Perturb.Idle_model.ranks_per_wave im)
           (Perturb.Idle_model.decay im)));
  Buffer.add_string b "\"simulated\":";
  Buffer.add_string b (detect_json t.sim);
  Buffer.add_string b ",\"model\":";
  Buffer.add_string b (detect_json t.model);
  (match t.real with
  | Some d ->
      Buffer.add_string b ",\"real\":";
      Buffer.add_string b (detect_json d)
  | None -> ());
  Buffer.add_string b ",\"timeline\":";
  Buffer.add_string b (Obs.Timeline.to_json ~label:"perturbed" t.timeline);
  Buffer.add_char b '}';
  Buffer.contents b

let to_csv t = Table.to_csv t.reconcile
