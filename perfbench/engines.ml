(* The three engines that check the model, called in process on one
   domain. A scenario's inputs (the event simulator's machine, the batched
   engine's LogGP costs) are built once, before timing. *)

open Gen

type inputs = Machine of Xtsim.Machine.t | Costs of Wrun.Costs.t | Clockless

type prepared = { sc : scenario; inputs : inputs }

let cmp sc = Wgrid.Cmp.of_cores_per_node sc.cpn

let prepare sc =
  let inputs =
    match sc.engine with
    | Event -> Machine (Xtsim.Machine.v ~model_bus:sc.bus ~cmp:(cmp sc) Loggp.Params.xt4 sc.pg)
    | Batched ->
        Costs (Wrun.Costs.loggp ~model_bus:sc.bus ~cmp:(cmp sc) Loggp.Params.xt4 sc.pg sc.app)
    | Validate -> Clockless
  in
  { sc; inputs }

type result = {
  outcome : Check.outcome;
  per_iteration : float;  (** simulated us; nan for the clockless run *)
  units : int;  (** events (event) or messages (batched, validate) *)
}

let run p =
  match p.inputs with
  | Machine m ->
      let o = Xtsim.Wavefront_sim.run m p.sc.app in
      {
        outcome =
          {
            completed = o.completed && o.failed = [];
            blocked = 0;
            orphaned = 0;
            mismatches = 0;
          };
        per_iteration = o.per_iteration;
        units = o.events;
      }
  | Costs costs ->
      let o = Wrun.Batched.run ~costs p.sc.pg p.sc.app in
      {
        outcome =
          {
            completed = o.completed && o.failed = [];
            blocked = List.length o.blocked;
            orphaned = o.orphaned;
            mismatches = 0;
          };
        per_iteration = o.per_iteration;
        units = o.messages;
      }
  | Clockless ->
      let o = Wrun.Dataflow.run p.sc.pg p.sc.app in
      {
        outcome =
          {
            completed = o.completed && o.failed = [];
            blocked = List.length o.blocked;
            orphaned = o.orphaned;
            mismatches = List.length o.mismatches;
          };
        per_iteration = nan;
        units = o.messages;
      }

(* The model's configuration for a scenario: the simulated machine's
   platform specialized to its node size, contention as the bus. *)
let model_cfg sc =
  let platform = Loggp.Params.with_cores_per_node Loggp.Params.xt4 sc.cpn in
  Wavefront_core.Plugplay.config ~cmp:(cmp sc) ~pgrid:sc.pg ~contention:sc.bus platform
    ~cores:(Wgrid.Proc_grid.cores sc.pg)

(* |model - event| / event, percent. *)
let model_err_pct sc ~per_iteration =
  let model = Wavefront_core.Plugplay.time_per_iteration sc.app (model_cfg sc) in
  100.0 *. Float.abs (model -. per_iteration) /. per_iteration
