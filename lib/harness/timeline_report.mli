(** The workflow behind [wavefront timeline]: reconstruct per-rank x
    per-wave timelines of the same configuration from the event-level
    simulator, the batched engine (the analytic term schedule) and
    optionally the real shared-memory kernel, and attribute the closed
    form's error wave by wave. *)

open Wavefront_core

type t = {
  observed : Obs.Timeline.t;  (** event-level simulator *)
  model : Obs.Timeline.t;  (** batched engine: the analytic term schedule *)
  real : Obs.Timeline.t option;  (** shared-memory Domains run *)
  divergence : Divergence.t;
  sim : Xtsim.Wavefront_sim.outcome;
  t_iteration : float;
  runtime : (string * Obs.Runtime.delta) list;
      (** host-side cost of producing this report (GC, CPU, RSS) per
          stage: simulate / model / real / analyze *)
}

val run :
  ?real:bool ->
  ?model_bus:bool ->
  ?engine:Engine.t ->
  ?capacity:int ->
  Plugplay.config ->
  App_params.t ->
  t
(** One iteration. [model_bus] (default [true]) keeps the simulator's
    shared-bus contention on; switch it off (with single-core nodes and an
    eager-sized configuration) and the observed and model timelines
    coincide to float precision — the cross-substrate identity the tests
    assert. [engine] (default {!Engine.Event}) selects the observed
    substrate; {!Engine.Batched} is the model's own engine, so the two
    timelines then differ only by the bus layer [model_bus] adds on
    multi-core nodes. *)

val pp : ?metric:Obs.Timeline.metric -> Format.formatter -> t -> unit

val to_json : t -> string
(** Schema ["wavefront-timeline-report/v1"], embedding the timelines'
    own documents. *)

val to_csv : t -> string
