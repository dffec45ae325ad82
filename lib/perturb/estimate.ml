(* The analytic side of the perturbation layer: a noise-adjusted (r5)-style
   bound on the perturbed iteration time.

   The plug-and-play model's critical path is a chain of tile computes and
   boundary messages; a perturbed machine stretches exactly those links.
   Because a pipelined wavefront is tightly coupled, a delay hitting a
   rank on the critical path propagates downstream as an "idle wave"
   without decaying (Afzal, Hager & Wellein, arXiv:2103.03175) — so the
   estimate charges delays on the path at full weight rather than
   averaging them over ranks:

   - noise: every tile compute on the path is inflated by the expected
     extra fraction, i.e. the model's computation component scales by
     (1 + E[frac]);
   - link contention: each of the ~2 messages per path tile pays the
     expected injection delay, prob * delay;
   - stragglers: a permanent straggler inflates every tile it contributes
     to the path; the bound assumes the worst case (the whole stack of one
     iteration routes through it) and, since concurrent idle waves merge
     rather than add (ibid.), charges the slowest straggler only.

   Every term is non-decreasing in its amplitude, which the monotonicity
   regression tests rely on. Failures have no finite predicted runtime and
   are ignored here; the executable substrates report them as degraded
   outcomes instead. *)

open Wavefront_core

type breakdown = {
  base : float;  (** the unperturbed (r5) iteration time, us *)
  noise : float;  (** expected compute inflation on the critical path *)
  link : float;  (** expected injection delay on the critical path *)
  straggler : float;  (** idle-wave bound for the slowest straggler *)
  scenario : float;  (** pulse/periodic/collective scenario charges *)
  total : float;
}

let iteration (app : App_params.t) (cfg : Plugplay.config) (spec : Spec.t) =
  let r = Plugplay.iteration app cfg in
  let c = Plugplay.components app cfg in
  let noise = c.computation *. Spec.mean_noise_frac spec in
  (* Tiles on the critical path, recovered from the model's own
     computation component; each contributes one receive and one send. *)
  let per_tile = r.w +. r.w_pre in
  let path_tiles = if per_tile > 0.0 then c.computation /. per_tile else 0.0 in
  let link =
    match spec.link with
    | None -> 0.0
    | Some { prob; delay } -> 2.0 *. path_tiles *. prob *. delay
  in
  let straggler =
    let tiles_per_iter = App_params.waves app in
    List.fold_left
      (fun worst (s : Spec.straggler) ->
        Float.max worst (s.delay *. float_of_int tiles_per_iter))
      0.0 spec.stragglers
  in
  let base = r.t_iteration in
  (* The wave-indexed scenarios: a pulse on the path is a non-decaying
     idle wave, charged once at full weight; periodic noise charges its
     per-wave mean on every path tile; collective noise pays its expected
     stall per allreduce operation. *)
  let scenario =
    let pulses =
      List.fold_left (fun acc (p : Spec.pulse) -> acc +. p.delay) 0.0
        spec.pulses
    in
    let periodic = path_tiles *. Spec.periodic_mean_per_wave spec in
    let coll =
      match app.nonwavefront with
      | App_params.Allreduce { count; _ } ->
          float_of_int count *. spec.coll_noise /. 2.0
      | _ -> 0.0
    in
    pulses +. periodic +. coll
  in
  {
    base;
    noise;
    link;
    straggler;
    scenario;
    total = base +. noise +. link +. straggler +. scenario;
  }

let time_per_iteration app cfg spec = (iteration app cfg spec).total

let pp_breakdown ppf b =
  Fmt.pf ppf
    "@[<v>base (r5):        %12.2f us@,noise inflation:  %12.2f us@,\
     link contention:  %12.2f us@,straggler bound:  %12.2f us@,\
     scenario stalls:  %12.2f us@,\
     perturbed total:  %12.2f us (%+.2f%%)@]"
    b.base b.noise b.link b.straggler b.scenario b.total
    (100.0 *. (b.total -. b.base) /. b.base)
