(** One plug-and-play scenario: the application inputs (paper Table 3)
    and the platform description (Tables 2 and 6) that the model, the
    three checking engines and the serve daemon all start from.

    The command line ({!v}) and the HTTP API ({!of_json}) build it through
    the same app-name dispatch, platform table and range checks, so both
    accept the same inputs and refuse a bad one with the same message.
    {!digest} keys the run ledger. *)

type t = {
  app : Wavefront_core.App_params.t;
  platform : Loggp.Params.t;  (** the platform table's entry *)
  cores : int;
  cpn : int;  (** cores per node *)
  pgrid : Wgrid.Proc_grid.t option;
      (** explicit processor grid; [None] is the near-square
          factorization of [cores] *)
  perturb : Perturb.Spec.t option;
      (** the spec file's [perturb = ...] stanza, if any *)
}

val apps : string list
(** The built-in applications: ["lu"; "sweep3d"; "chimaera"]. *)

val platforms : (string * Loggp.Params.t) list
(** The platform table: [xt4], [sp2], [bluegene_l], [red_storm]. *)

val v :
  ?spec:string ->
  ?htile:float ->
  ?wg:float ->
  ?iterations:int ->
  ?pgrid:Wgrid.Proc_grid.t ->
  app:string ->
  nx:int ->
  ny:int ->
  nz:int ->
  platform:string ->
  cores:int ->
  cpn:int ->
  unit ->
  (t, string) result
(** A scenario from command-line values. With [spec] the application
    (and its perturb stanza) comes from that {!Spec} file, [app], the
    dimensions, [wg] and [iterations] are ignored and only [htile]
    overrides it. Ranges: every dimension in [[1, 10^6]], [cpn] in
    [[1, 64]], [cores] in [[1, 2^24]]; a [pgrid] must hold [cores]. *)

val of_json : [ `Predict | `Sweep ] -> Obs.Json.t -> (t, string) result
(** The ["app"] and ["machine"] members of a [/v1/predict] or
    [/v1/sweep] request body (shapes in {!Serve.Api}), with the checks of
    {!v}. The sweep shape has no ["machine".cores] — its points carry
    their own grids — and yields [cores = 1]. *)

val config : t -> Wavefront_core.Plugplay.config
(** The model configuration: [platform] specialized to [cpn] cores per
    node, on [cores] cores in [cpn]-core node rectangles, over [pgrid]
    when given. *)

val perturb : ?override:Perturb.Spec.t -> t -> Perturb.Spec.t
(** The perturbation to run: [override] (a [--perturb] flag) when given,
    else the spec file's stanza, else {!Perturb.Spec.zero}. *)

val digest : t -> string
(** Hex MD5 over a canonical rendering of every resolved field (the
    value's marshalled bytes, without sharing), so any bit of any input
    moves it and equal scenarios have equal digests, whichever entry
    point built them. *)
