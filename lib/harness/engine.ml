(* Engine selection for the observed side of the report workflows: the
   event-level simulator or the wave-batched flat-array engine, behind
   one run function returning the simulator's outcome shape. *)

type t = Event | Batched

let to_string = function Event -> "event" | Batched -> "batched"

let all = [ ("event", Event); ("batched", Batched) ]

(* The batched outcome in the simulator's shape. The event-only fields
   have no batched equivalent: events stays 0, sends counts messages,
   and stats carries only the per-rank finish clocks. *)
let of_batched (o : Wrun.Batched.outcome) : Xtsim.Wavefront_sim.outcome =
  {
    elapsed = o.elapsed;
    per_iteration = o.per_iteration;
    iterations = o.iterations;
    completed = o.completed;
    failed = o.failed;
    recovered = o.recovered;
    checkpoints = o.checkpoints;
    events = 0;
    sends = o.messages;
    stats =
      Array.map
        (fun finish ->
          { Xtsim.Wavefront_sim.compute = 0.0; comm = 0.0; wait = 0.0; finish })
        o.finish;
  }

let observed_run ?(model_bus = true) ?perturb ?recover ?obs ?max_ranks engine
    (cfg : Wavefront_core.Plugplay.config) (app : Wavefront_core.App_params.t) =
  match engine with
  | Event ->
      let machine =
        Xtsim.Machine.v ~model_bus ~cmp:cfg.cmp cfg.platform cfg.pgrid
      in
      Xtsim.Wavefront_sim.run ?perturb ?recover ?obs ?max_ranks machine app
  | Batched ->
      let costs =
        Wrun.Costs.loggp ~model_bus ~cmp:cfg.cmp cfg.platform cfg.pgrid app
      in
      of_batched (Wrun.Batched.run ?perturb ?recover ?obs ~costs cfg.pgrid app)
