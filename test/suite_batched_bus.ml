(* The contention-aware batched engine, held to the event simulator: a
   pinned cross-engine differential matrix (bus on/off x cores-per-node
   1/2/4 x eager/rendezvous message sizes x clean/perturbed/recovering
   runs, each cell with its own tolerance), the Table-6 closed-form bus
   layer of Wrun.Costs, and the QCheck contracts — bus off is bitwise
   PR-7 behavior for every domain count, bus delay is monotone in
   cores-per-node, and domain sharding never changes a bus-on result.

   Tolerance contract (also in DESIGN.md): the batched engine charges
   the paper's closed-form interference coeff * I per tile-loop
   operation where the event simulator queues a per-node bus clock, so
   with multi-core nodes (or the bus on) the two agree only within the
   per-cell bounds pinned below — measured divergence plus ~50%
   headroom. Both engines are deterministic, so these are regression
   pins, not flake margins. *)

open Wgrid

let xt4 = Loggp.Params.xt4
let sweep n = Apps.Sweep3d.params (Data_grid.cube n)

let spec s =
  match Perturb.Spec.of_string s with
  | Ok v -> v
  | Error (`Msg e) -> Alcotest.failf "bad spec %S: %s" s e

let cfg_for ~cores ~cpn =
  Wavefront_core.Plugplay.config
    ~cmp:(Cmp.of_cores_per_node cpn)
    (Loggp.Params.with_cores_per_node xt4 cpn)
    ~cores

let waves_of (app : Wavefront_core.App_params.t) =
  Sweeps.Schedule.nsweeps app.schedule
  * Tile.ntiles_int ~nz:app.grid.nz ~htile:app.htile

(* One engine's observed timeline, reconstructed from a span trace the
   same way every report does. *)
let observed ~model_bus ?perturb ?recover ~engine cfg app =
  let tr = Obs.Tracer.create ~capacity:2_000_000 () in
  let o =
    Harness.Engine.observed_run ~model_bus ?perturb ?recover ~obs:tr engine
      cfg app
  in
  (o, Obs.Timeline.of_spans ~waves:(waves_of app) (Obs.Tracer.spans tr))

(* Max abs per-cell divergence of window width and busy time. *)
let cell_divergence (a : Obs.Timeline.t) (b : Obs.Timeline.t) =
  let d = ref 0.0 in
  for r = 0 to a.ranks - 1 do
    for c = 0 to a.waves do
      let ca = a.cells.(r).(c) and cb = b.cells.(r).(c) in
      d :=
        Float.max !d
          (Float.max
             (abs_float
                (Obs.Timeline.cell_width ca -. Obs.Timeline.cell_width cb))
             (abs_float
                (Obs.Timeline.cell_busy ca -. Obs.Timeline.cell_busy cb)))
    done
  done;
  !d

(* --- The differential matrix --- *)

let policy =
  { Perturb.Recover.interval = 16; ckpt_cost = 25.0; restart_cost = 400.0 }

type mcase = {
  name : string;
  cores : int;
  cpn : int;
  nz : int;  (** cube edge: 16 -> 384 B eager msgs, 48 -> 1152 B rendezvous *)
  bus : bool;
  perturb : string option;
  recover : Perturb.Recover.policy option;
  tol_cell : float;  (** max abs per-cell width/busy divergence, us *)
  tol_elapsed : float;  (** relative elapsed divergence *)
}

let case ?(cores = 16) ?perturb ?recover ~cpn ~nz ~bus name tol_cell
    tol_elapsed =
  { name; cores; cpn; nz; bus; perturb; recover; tol_cell; tol_elapsed }

(* Measured max divergences (see EXPERIMENTS.md) with ~50% headroom.
   cpn 1 with the bus on is not a no-op for the event engine: a node's
   own back-to-back sends queue on its bus clock, while the closed-form
   coefficients are zero — the first column pins that gap too. *)
let matrix =
  [
    case "cpn1-eager-clean-buson" ~cpn:1 ~nz:16 ~bus:true 12.0 0.02;
    case "cpn1-eager-straggler-buson" ~cpn:1 ~nz:16 ~bus:true
      ~perturb:"seed=9 straggler=3:250" 20.0 0.01;
    case "cpn1-rendez-clean-buson" ~cpn:1 ~nz:48 ~bus:true 850.0 0.07;
    case "cpn2-eager-clean-buson" ~cpn:2 ~nz:16 ~bus:true 130.0 0.14;
    case "cpn2-rendez-clean-buson" ~cpn:2 ~nz:48 ~bus:true 750.0 0.07;
    case "cpn2-eager-straggler-buson" ~cpn:2 ~nz:16 ~bus:true
      ~perturb:"seed=9 straggler=3:250" 80.0 0.03;
    case "cpn2-eager-recover-buson" ~cpn:2 ~nz:16 ~bus:true
      ~perturb:"seed=5 fail=5:40" ~recover:policy 150.0 0.12;
    case "cpn4-eager-clean-buson" ~cpn:4 ~nz:16 ~bus:true 280.0 0.30;
    case "cpn4-rendez-clean-buson" ~cpn:4 ~nz:48 ~bus:true 1350.0 0.07;
    case "cpn4-eager-straggler-buson" ~cpn:4 ~nz:16 ~bus:true
      ~perturb:"seed=9 straggler=3:250" 120.0 0.04;
    case "cpn4-eager-recover-buson" ~cpn:4 ~nz:16 ~bus:true
      ~perturb:"seed=5 fail=5:40" ~recover:policy 280.0 0.25;
    case "cpn2-eager-clean-busoff" ~cpn:2 ~nz:16 ~bus:false 25.0 0.01;
    case "cpn4-eager-clean-busoff" ~cpn:4 ~nz:16 ~bus:false 100.0 0.03;
    case "cpn2-rendez-clean-busoff" ~cpn:2 ~nz:48 ~bus:false 1000.0 0.08;
    (* The pinned 64-rank acceptance case of the issue. *)
    case "64r-cpn2-eager-clean-buson" ~cores:64 ~cpn:2 ~nz:16 ~bus:true 150.0
      0.15;
    case "64r-cpn4-eager-clean-buson" ~cores:64 ~cpn:4 ~nz:16 ~bus:true 250.0
      0.35;
  ]

let check_case c =
  let cfg = cfg_for ~cores:c.cores ~cpn:c.cpn in
  let app = sweep c.nz in
  let perturb = Option.map spec c.perturb in
  let oe, tl_e =
    observed ~model_bus:c.bus ?perturb ?recover:c.recover
      ~engine:Harness.Engine.Event cfg app
  in
  let ob, tl_b =
    observed ~model_bus:c.bus ?perturb ?recover:c.recover
      ~engine:Harness.Engine.Batched cfg app
  in
  Alcotest.(check bool) (c.name ^ ": both completed") true
    (oe.completed && ob.completed);
  Alcotest.(check (pair int int))
    (c.name ^ ": same timeline shape")
    (tl_e.ranks, tl_e.waves)
    (tl_b.ranks, tl_b.waves);
  let d = cell_divergence tl_e tl_b in
  if d > c.tol_cell then
    Alcotest.failf "%s: per-cell divergence %.4f us exceeds pinned %.1f"
      c.name d c.tol_cell;
  let rel = abs_float (ob.elapsed -. oe.elapsed) /. oe.elapsed in
  if rel > c.tol_elapsed then
    Alcotest.failf "%s: elapsed divergence %.2f%% exceeds pinned %.0f%%"
      c.name (100.0 *. rel)
      (100.0 *. c.tol_elapsed)

let test_matrix () = List.iter check_case matrix

(* Grids the 1x2 node rectangle does not divide (5x3, 13x9): the edge
   nodes hold one core, and the event engine's back-to-back Sweep3D
   all-reduces used to deadlock there. They must complete and agree
   with the batched engine, bus off; bounds are the measured 62 us /
   1.6% and 112 us / 4.6% plus ~50% headroom, as above. *)
let uneven =
  [
    case "15r-cpn2-eager-clean-busoff" ~cores:15 ~cpn:2 ~nz:16 ~bus:false
      95.0 0.025;
    case "117r-cpn2-eager-clean-busoff" ~cores:117 ~cpn:2 ~nz:16 ~bus:false
      170.0 0.07;
  ]

let test_uneven_nodes () = List.iter check_case uneven

(* --- The Costs bus layer: coefficients x Table-6 quantum --- *)

let test_costs_bus_terms () =
  let pg = Proc_grid.of_cores 16 in
  let app = sweep 16 in
  let quantum_ew =
    Loggp.Comm_model.contention_i xt4.onchip
      (Wavefront_core.App_params.message_size_ew app pg)
  and quantum_ns =
    Loggp.Comm_model.contention_i xt4.onchip
      (Wavefront_core.App_params.message_size_ns app pg)
  in
  let terms ?model_bus cpn =
    let c =
      Wrun.Costs.loggp ?model_bus ~cmp:(Cmp.of_cores_per_node cpn) xt4 pg app
    in
    (Wrun.Costs.bus_ew c, Wrun.Costs.bus_ns c, Wrun.Costs.model_bus c)
  in
  (* Off by default, and a no-op on single-core nodes even when on. *)
  Alcotest.(check (triple (float 0.0) (float 0.0) bool))
    "default construction carries no bus" (0.0, 0.0, false) (terms 2);
  Alcotest.(check (triple (float 0.0) (float 0.0) bool))
    "explicitly off" (0.0, 0.0, false)
    (terms ~model_bus:false 4);
  Alcotest.(check (triple (float 0.0) (float 0.0) bool))
    "single-core nodes never contend" (0.0, 0.0, false)
    (terms ~model_bus:true 1);
  (* Table-6 rows: 1x2 charges the N/S axis, 2x2 both, 4x4 both at 4I. *)
  Alcotest.(check (triple (float 0.0) (float 0.0) bool))
    "1x2: I on the N/S axis only" (0.0, quantum_ns, true)
    (terms ~model_bus:true 2);
  Alcotest.(check (triple (float 0.0) (float 0.0) bool))
    "2x2: I on every operation" (quantum_ew, quantum_ns, true)
    (terms ~model_bus:true 4);
  Alcotest.(check (triple (float 0.0) (float 0.0) bool))
    "4x4: 4I on every operation"
    (4.0 *. quantum_ew, 4.0 *. quantum_ns, true)
    (terms ~model_bus:true 16);
  (* The quantum itself is o_dma + size * G_dma. *)
  Alcotest.(check (float 1e-9)) "quantum is o_dma + size * G_dma"
    (xt4.onchip.o_dma
    +. float_of_int (Wavefront_core.App_params.message_size_ew app pg)
       *. xt4.onchip.g_dma)
    quantum_ew

(* --- Rank ceiling regression: the advertised escape hatch works with
   the bus on, and the CLI still exits 2 --- *)

let has_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_rank_ceiling_names_batched () =
  let cfg = cfg_for ~cores:16 ~cpn:2 in
  let app = sweep 16 in
  (match
     Harness.Engine.observed_run ~model_bus:true ~max_ranks:4
       Harness.Engine.Event cfg app
   with
  | _ -> Alcotest.fail "expected Rank_ceiling"
  | exception Xtsim.Wavefront_sim.Rank_ceiling r ->
      let printed = Printexc.to_string (Xtsim.Wavefront_sim.Rank_ceiling r) in
      Alcotest.(check bool) "printer names --engine=batched" true
        (has_sub ~sub:"--engine=batched" printed);
      Alcotest.(check bool) "printer names --max-ranks" true
        (has_sub ~sub:"--max-ranks" printed));
  (* The engine the printer points at completes the same multi-core,
     bus-on configuration with no ceiling at all. *)
  let ob =
    Harness.Engine.observed_run ~model_bus:true ~max_ranks:4
      Harness.Engine.Batched cfg app
  in
  Alcotest.(check bool) "batched honors the spec past the ceiling" true
    ob.completed;
  (* The CLI path: or_rank_ceiling still maps the exception to exit 2.
     Under `dune runtest` the binary sits next to the test dir; under
     `dune exec` from the workspace root it sits in _build. *)
  match
    List.find_opt Sys.file_exists
      [ "../bin/main.exe"; "_build/default/bin/main.exe" ]
  with
  | None -> ()
  | Some exe ->
      Alcotest.(check int) "simulate past the ceiling exits 2" 2
        (Sys.command
           (exe ^ " simulate --cores 16 --max-ranks 4 >/dev/null 2>&1"))

(* --- QCheck contracts --- *)

let perturb_of kind seed =
  match kind with
  | 0 -> None
  | 1 -> Some (spec (Printf.sprintf "seed=%d noise=uniform:0.2" seed))
  | _ -> Some (spec (Printf.sprintf "seed=%d straggler=1:150" seed))

(* (a) bus off is bitwise the PR 7 engine, for every domain count. *)
let qcheck_bus_off_identity =
  QCheck.Test.make ~count:6
    ~name:"model_bus:false batched bitwise-unchanged for every domain count"
    QCheck.(
      triple
        (QCheck.make (QCheck.Gen.oneofl [ 4; 16; 64 ]))
        (QCheck.make (QCheck.Gen.oneofl [ 1; 2; 4 ]))
        (pair (int_range 0 999) (int_range 0 2)))
    (fun (cores, cpn, (seed, kind)) ->
      let pg = Proc_grid.of_cores cores in
      let app = sweep 12 in
      let cmp = Cmp.of_cores_per_node cpn in
      let platform = Loggp.Params.with_cores_per_node xt4 cpn in
      let perturb = perturb_of kind seed in
      (* The PR 7 construction spelled no [model_bus] at all. *)
      let costs_pr7 = Wrun.Costs.loggp ~cmp platform pg app in
      let costs_off =
        Wrun.Costs.loggp ~model_bus:false ~cmp platform pg app
      in
      let o0, tl0 =
        Wrun.Batched.run_timeline ?perturb ~costs:costs_pr7 pg app
      in
      List.for_all
        (fun domains ->
          let od, tld =
            Wrun.Batched.run_timeline ?perturb ~domains ~costs:costs_off pg
              app
          in
          od.elapsed = o0.elapsed
          && od.bus_wait = 0.0
          && Obs.Timeline.equal ~tol:0.0 tl0 tld)
        [ 1; 2; 3 ])

(* (b) the charged bus delay never decreases as cores share a node. *)
let qcheck_bus_monotone =
  QCheck.Test.make ~count:6
    ~name:"bus delay monotone non-decreasing in cores-per-node"
    QCheck.(
      pair
        (QCheck.make (QCheck.Gen.oneofl [ 12; 16; 20 ]))
        (pair (int_range 0 999) (int_range 0 2)))
    (fun (nz, (seed, kind)) ->
      let pg = Proc_grid.of_cores 16 in
      let app = sweep nz in
      let perturb = perturb_of kind seed in
      let bus_wait cpn =
        let costs =
          Wrun.Costs.loggp ~model_bus:true
            ~cmp:(Cmp.of_cores_per_node cpn)
            (Loggp.Params.with_cores_per_node xt4 cpn)
            pg app
        in
        (Wrun.Batched.run ?perturb ~costs pg app).Wrun.Batched.bus_wait
      in
      let waits = List.map bus_wait [ 1; 2; 4; 8; 16 ] in
      List.hd waits = 0.0
      && List.nth waits 1 > 0.0
      && fst
           (List.fold_left
              (fun (ok, prev) w -> (ok && w >= prev, w))
              (true, 0.0) waits))

(* (c) domain sharding never changes a bus-on result, tolerance 0.0. *)
let qcheck_bus_domain_invariance =
  QCheck.Test.make ~count:6
    ~name:"domain count never changes a bus-on result (tolerance 0.0)"
    QCheck.(
      triple
        (QCheck.make (QCheck.Gen.oneofl [ 16; 64 ]))
        (QCheck.make (QCheck.Gen.oneofl [ 2; 4 ]))
        (pair (int_range 0 999) (int_range 0 2)))
    (fun (cores, cpn, (seed, kind)) ->
      let pg = Proc_grid.of_cores cores in
      let app = sweep 12 in
      let costs =
        Wrun.Costs.loggp ~model_bus:true
          ~cmp:(Cmp.of_cores_per_node cpn)
          (Loggp.Params.with_cores_per_node xt4 cpn)
          pg app
      in
      let perturb = perturb_of kind seed in
      let o1, tl1 = Wrun.Batched.run_timeline ?perturb ~costs pg app in
      o1.bus_wait > 0.0
      && List.for_all
           (fun domains ->
             let od, tld =
               Wrun.Batched.run_timeline ?perturb ~domains ~costs pg app
             in
             od.elapsed = o1.elapsed
             && od.bus_wait = o1.bus_wait
             && Obs.Timeline.equal ~tol:0.0 tl1 tld)
           [ 2; 3; 5 ])

let suite =
  [
    ( "batched_bus.matrix",
      [
        Alcotest.test_case "event vs batched differential matrix" `Quick
          test_matrix;
        Alcotest.test_case "uneven node rectangles complete and agree" `Quick
          test_uneven_nodes;
      ] );
    ( "batched_bus.costs",
      [
        Alcotest.test_case "Table-6 coefficients and quantum" `Quick
          test_costs_bus_terms;
      ] );
    ( "batched_bus.ceiling",
      [
        Alcotest.test_case "rank ceiling names the bus-capable engine" `Quick
          test_rank_ceiling_names_batched;
      ] );
    ( "batched_bus.properties",
      [
        QCheck_alcotest.to_alcotest qcheck_bus_off_identity;
        QCheck_alcotest.to_alcotest qcheck_bus_monotone;
        QCheck_alcotest.to_alcotest qcheck_bus_domain_invariance;
      ] );
  ]
