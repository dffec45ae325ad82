(* One scenario, built the same way from the command line and from an
   HTTP request body: the app-name dispatch, the platform table and the
   range checks live here and nowhere else. Errors are client-facing
   strings (the API's 400 bodies, the CLI's exit-2 messages). *)

open Wavefront_core
module Field = Obs.Json.Field

type t = {
  app : App_params.t;
  platform : Loggp.Params.t;
  cores : int;
  cpn : int;
  pgrid : Wgrid.Proc_grid.t option;
  perturb : Perturb.Spec.t option;
}

let apps = [ "lu"; "sweep3d"; "chimaera" ]

let platforms =
  [
    ("xt4", Loggp.Params.xt4);
    ("sp2", Loggp.Params.sp2);
    ("bluegene_l", Loggp.Params.bluegene_l);
    ("red_storm", Loggp.Params.red_storm);
  ]

let fail = Field.fail

let check_dim name v =
  if v < 1 || v > 1_000_000 then fail "field %S out of range" name

let build ?spec ?htile ?wg ?iterations ?pgrid ~app ~nx ~ny ~nz ~platform
    ~cores ~cpn () =
  let app, perturb =
    match spec with
    | Some path -> (
        match Spec.full_of_file path with
        | Ok { app; perturb } ->
            let g = app.App_params.grid in
            check_dim "nx" g.nx;
            check_dim "ny" g.ny;
            check_dim "nz" g.nz;
            (app, perturb)
        | Error (`Msg m) -> fail "%s: %s" path m)
    | None ->
        check_dim "nx" nx;
        check_dim "ny" ny;
        check_dim "nz" nz;
        let grid = Wgrid.Data_grid.v ~nx ~ny ~nz in
        let app =
          match app with
          | "lu" -> Lu.params ?wg ?iterations grid
          | "sweep3d" -> Sweep3d.params ?wg ?iterations grid
          | "chimaera" -> Chimaera.params ?wg ?iterations grid
          | n -> fail "unknown app %S (try %s)" n (String.concat ", " apps)
        in
        (app, None)
  in
  let app =
    match htile with Some h -> App_params.with_htile app h | None -> app
  in
  let platform =
    match List.assoc_opt platform platforms with
    | Some p -> p
    | None ->
        fail "unknown platform %S (try %s)" platform
          (String.concat ", " (List.map fst platforms))
  in
  if cpn < 1 || cpn > 64 then fail "cores_per_node out of range [1, 64]";
  if cores < 1 || cores > 16_777_216 then fail "cores out of range [1, 2^24]";
  (match pgrid with
  | Some pg when Wgrid.Proc_grid.cores pg <> cores ->
      fail "a %dx%d processor grid does not hold %d cores" pg.cols pg.rows
        cores
  | _ -> ());
  { app; platform; cores; cpn; pgrid; perturb }

(* The App_params / Plugplay constructors guard their own domains with
   [Invalid_argument]; on these paths that is the caller's error. *)
let guarding f =
  match f () with
  | v -> Ok v
  | exception Field.Invalid m -> Error m
  | exception Invalid_argument m -> Error m

let v ?spec ?htile ?wg ?iterations ?pgrid ~app ~nx ~ny ~nz ~platform ~cores
    ~cpn () =
  guarding
    (build ?spec ?htile ?wg ?iterations ?pgrid ~app ~nx ~ny ~nz ~platform
       ~cores ~cpn)

let of_json shape j =
  guarding (fun () ->
      let a = Field.obj "app" j in
      let name = Field.str "name" a in
      let nx = Field.int "nx" a and ny = Field.int "ny" a in
      let nz = Field.int "nz" a in
      let wg = Field.opt Field.num "wg" a in
      let htile = Field.opt Field.num "htile" a in
      let iterations = Field.opt Field.int "iterations" a in
      let m = Field.obj "machine" j in
      let platform = Field.str "platform" m in
      let cpn = Field.int "cores_per_node" m in
      let cores =
        match shape with `Predict -> Field.int "cores" m | `Sweep -> 1
      in
      build ?wg ?htile ?iterations ~app:name ~nx ~ny ~nz ~platform ~cores ~cpn
        ())

(* The specialized platform carries [cpn], which picks the node
   rectangle. *)
let config t =
  Plugplay.config ?pgrid:t.pgrid
    (Loggp.Params.with_cores_per_node t.platform t.cpn)
    ~cores:t.cores

let perturb ?override t =
  match (override, t.perturb) with
  | Some p, _ | None, Some p -> p
  | None, None -> Perturb.Spec.zero

(* Marshal without sharing is a canonical byte rendering of an acyclic
   immutable value: structurally equal scenarios encode identically,
   every bit of every field (floats included) is in it, and a field
   added to [t] or [App_params.t] later is covered without touching
   this line. *)
let digest t =
  Digest.to_hex (Digest.string (Marshal.to_string t [ No_sharing ]))
