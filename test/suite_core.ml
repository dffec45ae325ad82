(* Tests for the plug-and-play model (paper Tables 5 and 6), the baseline
   Sweep3D model (Table 4), and the predictor metrics (Section 5.2). *)

open Wavefront_core
open Wgrid
module Comm = Loggp.Comm_model

let feq = Alcotest.float 1e-6
let xt4 = Loggp.Params.xt4

let single_core_cfg ?pgrid ~cores () =
  Plugplay.config ?pgrid ~cmp:Cmp.single_core xt4 ~cores

(* --- Closed forms with communication zeroed (r1-r5 skeleton) --- *)

let test_zero_comm_closed_form () =
  let grid = Data_grid.v ~nx:64 ~ny:64 ~nz:100 in
  let app = Apps.Chimaera.params ~wg:2.0 grid in
  let cores = 64 in
  let cfg =
    Plugplay.config ~cmp:Cmp.single_core
      (Plugplay.zero_comm_platform xt4)
      ~cores
  in
  let pg = Proc_grid.of_cores cores in
  let n = float_of_int pg.cols and m = float_of_int pg.rows in
  let w = 2.0 *. 1.0 *. (64.0 /. n) *. (64.0 /. m) in
  let r = Plugplay.iteration app cfg in
  Alcotest.check feq "W" w r.w;
  Alcotest.check feq "Tdiagfill = (m-1)W" ((m -. 1.0) *. w) r.t_diagfill;
  Alcotest.check feq "Tfullfill = (n+m-2)W" ((n +. m -. 2.0) *. w) r.t_fullfill;
  Alcotest.check feq "Tstack = ntiles*W" (100.0 *. w) r.t_stack;
  (* Chimaera: ndiag = 2, nfull = 4, nsweeps = 8; all-reduce costs 0 on the
     zero-comm platform. *)
  let expected =
    (2.0 *. (m -. 1.0) *. w)
    +. (4.0 *. (n +. m -. 2.0) *. w)
    +. (8.0 *. 100.0 *. w)
  in
  Alcotest.check feq "Titer (r5)" expected r.t_iteration

let test_zero_comm_with_precompute () =
  let grid = Data_grid.v ~nx:32 ~ny:32 ~nz:50 in
  let app = Apps.Lu.params ~wg:1.0 ~wg_pre:0.5 ~wg_stencil:0.0 grid in
  let cores = 16 in
  let cfg =
    Plugplay.config ~cmp:Cmp.single_core
      (Plugplay.zero_comm_platform xt4)
      ~cores
  in
  let pg = Proc_grid.of_cores cores in
  let n = float_of_int pg.cols and m = float_of_int pg.rows in
  let cells = 32.0 /. n *. (32.0 /. m) in
  let w = 1.0 *. cells and w_pre = 0.5 *. cells in
  let r = Plugplay.iteration app cfg in
  Alcotest.check feq "Wpre (r1a)" w_pre r.w_pre;
  Alcotest.check feq "fill includes origin Wpre (r2a)"
    (w_pre +. ((n +. m -. 2.0) *. w))
    r.t_fullfill;
  Alcotest.check feq "Tstack (r4) subtracts final Wpre"
    (((w +. w_pre) *. 50.0) -. w_pre)
    r.t_stack

(* --- Single-core fill-time closed forms with communication --- *)

let test_fill_times_single_core () =
  let grid = Data_grid.v ~nx:40 ~ny:40 ~nz:64 in
  let app = Apps.Chimaera.params ~wg:3.0 grid in
  let pg = Proc_grid.v ~cols:8 ~rows:4 in
  let cfg = single_core_cfg ~pgrid:pg ~cores:32 () in
  let r = Plugplay.iteration app cfg in
  let off = xt4.offnode in
  let w = r.w in
  (* Hop costs: west hops in the grid interior carry Total_commE + ReceiveN;
     north hops carry SendE + Total_commS (equation r2b). *)
  let a = w +. Comm.total_offnode off r.msg_ew +. Comm.receive_offnode off r.msg_ns in
  let b = w +. Comm.send_offnode off r.msg_ew +. Comm.total_offnode off r.msg_ns in
  Alcotest.check feq "Tdiagfill = (m-1) north hops" (3.0 *. b) r.t_diagfill;
  Alcotest.check feq "Tfullfill = (m-1)b + (n-1)a"
    ((3.0 *. b) +. (7.0 *. a))
    r.t_fullfill

let test_stack_time_single_core () =
  let grid = Data_grid.v ~nx:40 ~ny:40 ~nz:64 in
  let app = Apps.Chimaera.params ~wg:3.0 grid in
  let pg = Proc_grid.v ~cols:8 ~rows:4 in
  let cfg = single_core_cfg ~pgrid:pg ~cores:32 () in
  let r = Plugplay.iteration app cfg in
  let off = xt4.offnode in
  let per_tile =
    Comm.receive_offnode off r.msg_ew
    +. Comm.receive_offnode off r.msg_ns
    +. r.w
    +. Comm.send_offnode off r.msg_ew
    +. Comm.send_offnode off r.msg_ns
  in
  Alcotest.check feq "Tstack (r4)" (per_tile *. 64.0) r.t_stack

(* --- Message sizes (Table 3) --- *)

let test_message_sizes_sweep3d () =
  let app = Apps.Sweep3d.params ~mk:4 ~mmi:3 ~mmo:6 Data_grid.sweep3d_20m in
  let pg = Proc_grid.v ~cols:16 ~rows:16 in
  (* 8 * mmo * Htile * Ny/m = 8 * 6 * 2 * 17 = 1632 bytes. *)
  Alcotest.(check int) "EW" 1632 (App_params.message_size_ew app pg);
  Alcotest.(check int) "NS" 1632 (App_params.message_size_ns app pg)

let test_message_sizes_lu () =
  let app = Apps.Lu.params (Data_grid.cube 1000) in
  let pg = Proc_grid.v ~cols:32 ~rows:16 in
  (* 40 * Ny/m = 40 * 62.5 = 2500 bytes EW; 40 * Nx/n = 1250 NS. *)
  Alcotest.(check int) "EW" 2500 (App_params.message_size_ew app pg);
  Alcotest.(check int) "NS" 1250 (App_params.message_size_ns app pg)

(* --- Multi-core extensions (Table 6) --- *)

let test_contention_coeffs () =
  let check name cmp expected =
    Alcotest.(check (pair (float 1e-9) (float 1e-9)))
      name expected
      (Plugplay.contention_coeffs cmp)
  in
  check "1x1" Cmp.single_core (0.0, 0.0);
  check "1x2" (Cmp.v ~cx:1 ~cy:2) (0.0, 1.0);
  check "2x2" (Cmp.v ~cx:2 ~cy:2) (1.0, 1.0);
  check "2x4" (Cmp.v ~cx:2 ~cy:4) (2.0, 2.0);
  check "4x4" (Cmp.v ~cx:4 ~cy:4) (4.0, 4.0)

let test_contention_increases_time () =
  let app = Apps.Chimaera.p240 () in
  let base =
    Plugplay.config ~cmp:(Cmp.v ~cx:1 ~cy:2) ~contention:false xt4 ~cores:1024
  in
  let cont = { base with contention = true } in
  let t0 = Plugplay.time_per_iteration app base in
  let t1 = Plugplay.time_per_iteration app cont in
  Alcotest.(check bool) "contention slows the stack" true (t1 > t0)

let test_contention_matches_table6 () =
  (* For a 1x2 node the stack gains exactly 2I * ntiles (I on ReceiveN and
     on SendS each tile). *)
  let grid = Data_grid.v ~nx:64 ~ny:64 ~nz:128 in
  let app = Apps.Chimaera.params grid in
  let base =
    Plugplay.config ~cmp:(Cmp.v ~cx:1 ~cy:2) ~contention:false xt4 ~cores:64
  in
  let cont = { base with contention = true } in
  let r0 = Plugplay.iteration app base in
  let r1 = Plugplay.iteration app cont in
  let i = Comm.contention_i xt4.onchip r0.msg_ns in
  Alcotest.check feq "stack delta = 2*I*ntiles"
    (2.0 *. i *. 128.0)
    (r1.t_stack -. r0.t_stack)

let test_multicore_fill_uses_onchip () =
  (* With a 1x2 rectangle, half the N/S fill hops become on-chip, so the
     diagonal fill (a pure N/S chain) must be cheaper than all-off-node. *)
  let app = Apps.Sweep3d.p20m () in
  let onchip =
    Plugplay.config ~cmp:(Cmp.v ~cx:1 ~cy:2) ~contention:false xt4 ~cores:256
  in
  let offnode =
    Plugplay.config ~cmp:Cmp.single_core ~contention:false xt4 ~cores:256
  in
  let r_on = Plugplay.iteration app onchip in
  let r_off = Plugplay.iteration app offnode in
  Alcotest.(check bool) "on-chip fill cheaper" true
    (r_on.t_diagfill < r_off.t_diagfill);
  Alcotest.check feq "stack unchanged (always off-node)" r_off.t_stack
    r_on.t_stack

(* --- Components (Figure 11 breakdown) --- *)

let test_components_sum () =
  let app = Apps.Chimaera.p240 () in
  let cfg = Plugplay.config xt4 ~cores:4096 in
  let c = Plugplay.components app cfg in
  Alcotest.check feq "sum" c.total (c.computation +. c.communication);
  Alcotest.(check bool) "both positive" true
    (c.computation > 0.0 && c.communication > 0.0)

let test_communication_dominates_at_scale () =
  (* Figure 11: communication overtakes computation as P grows. *)
  let app = Apps.Chimaera.p240 () in
  let frac cores =
    let c = Plugplay.components app (Plugplay.config xt4 ~cores) in
    c.communication /. c.total
  in
  Alcotest.(check bool) "comm fraction grows" true (frac 16384 > frac 1024);
  Alcotest.(check bool) "compute dominates at 1K" true (frac 1024 < 0.5)

(* --- Htile study sanity (Figure 5) --- *)

let test_htile_optimum_in_paper_range () =
  let times htiles app cores =
    List.map
      (fun h ->
        ( h,
          Plugplay.time_per_iteration
            (App_params.with_htile app (float_of_int h))
            (Plugplay.config xt4 ~cores) ))
      htiles
  in
  let best app cores =
    let ts = times [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] app cores in
    fst (List.fold_left (fun (bh, bt) (h, t) -> if t < bt then (h, t) else (bh, bt))
           (List.hd ts) (List.tl ts))
  in
  let chim = best (Apps.Chimaera.p240 ()) 4096 in
  Alcotest.(check bool)
    (Fmt.str "Chimaera optimum Htile %d in 2..5" chim)
    true
    (chim >= 2 && chim <= 5)

let test_htile_optimum_sp2_larger () =
  (* On the SP/2's much slower network, larger tiles win (paper: 5-10). *)
  let app = Apps.Sweep3d.p1b () in
  let best platform =
    let t h =
      Plugplay.time_per_iteration
        (App_params.with_htile app (float_of_int h))
        (Plugplay.config ~cmp:Cmp.single_core platform ~cores:1024)
    in
    List.fold_left
      (fun bh h -> if t h < t bh then h else bh)
      1
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  Alcotest.(check bool) "SP/2 prefers taller tiles" true
    (best Loggp.Params.sp2 > best xt4)

(* --- Baseline models --- *)

let test_sweep3d_model_close_to_plugplay () =
  (* The Table 4 model and the plug-and-play model describe the same code;
     on single-core nodes they should agree within a modest tolerance (the
     Table 4 model double-counts some diagonal fill but shares W, message
     and per-tile costs). *)
  let grid = Data_grid.sweep3d_20m in
  let check cores =
    let pg = Proc_grid.of_cores cores in
    let app = Apps.Sweep3d.params grid in
    let cfg = single_core_cfg ~pgrid:pg ~cores () in
    let pp = Plugplay.iteration app cfg in
    let s3d =
      Sweep3d_model.v ~platform:xt4 ~grid ~pgrid:pg ~wg:Apps.Sweep3d.default_wg
        ~mmi:3 ~mmo:6 ~mk:4 ()
    in
    let t_table4 = Sweep3d_model.t_sweeps s3d in
    let t_pp = pp.t_iteration -. pp.t_nonwavefront in
    let rel = Float.abs (t_table4 -. t_pp) /. t_pp in
    Alcotest.(check bool)
      (Fmt.str "P=%d within 25%% (rel=%.3f)" cores rel)
      true (rel < 0.25)
  in
  List.iter check [ 64; 256; 1024 ]

let test_hoisie_overestimates () =
  (* The Hoisie-style baseline ignores sweep overlap, so it must be an upper
     bound for Sweep3D (whose consecutive sweeps pipeline). *)
  let app = Apps.Sweep3d.p20m () in
  let cfg = single_core_cfg ~cores:1024 () in
  let hoisie = Hoisie_model.time_per_iteration app cfg in
  let pp = Plugplay.time_per_iteration app cfg in
  Alcotest.(check bool) "hoisie >= plug-and-play" true (hoisie >= pp)

(* --- Predictor / partition metrics (Section 5.2) --- *)

let test_total_time_scaling () =
  let app = Apps.Sweep3d.p1b () in
  let cfg = Plugplay.config xt4 ~cores:4096 in
  let run = Predictor.run ~energy_groups:30 ~time_steps:100 () in
  let per_step = Predictor.time_step_time app cfg in
  Alcotest.check feq "total = groups*steps*step"
    (30.0 *. 100.0 *. per_step)
    (Predictor.total_time ~run app cfg)

let test_partition_metrics_relations () =
  let app = Apps.Chimaera.p240 () in
  let run = Predictor.run ~time_steps:10 () in
  let m = Predictor.partition ~run ~platform:xt4 ~avail:8192 ~jobs:4 app in
  Alcotest.(check int) "cores per job" 2048 m.cores_per_job;
  Alcotest.check feq "R/X = R^2/jobs" (m.r *. m.r /. 4.0) m.r_over_x;
  Alcotest.check feq "R2/X = R^3/jobs" (m.r *. m.r *. m.r /. 4.0) m.r2_over_x

let test_partition_throughput_tradeoff () =
  (* Figure 7's qualitative shape: with diminishing returns, each of 2 jobs
     on half the cores completes more than 7/16 of the single-job rate —
     i.e. two problems in parallel solve more total steps per month. *)
  let app = Apps.Sweep3d.p1b () in
  let run = Predictor.run ~energy_groups:30 ~time_steps:1 () in
  let one = Predictor.partition ~run ~platform:xt4 ~avail:131072 ~jobs:1 app in
  let two = Predictor.partition ~run ~platform:xt4 ~avail:131072 ~jobs:2 app in
  Alcotest.(check bool) "per-job rate above half" true
    (two.steps_per_month > 0.5 *. one.steps_per_month);
  Alcotest.(check bool) "aggregate throughput higher" true
    (2.0 *. two.steps_per_month > one.steps_per_month)

let test_best_partition () =
  let app = Apps.Sweep3d.p1b () in
  let run = Predictor.run ~energy_groups:30 ~time_steps:1 () in
  let r_best =
    Predictor.best_partition ~run ~platform:xt4 ~avail:131072
      ~candidates:[ 1; 2; 4; 8 ] ~criterion:`R_over_x app
  in
  let r2_best =
    Predictor.best_partition ~run ~platform:xt4 ~avail:131072
      ~candidates:[ 1; 2; 4; 8 ] ~criterion:`R2_over_x app
  in
  (* R/X favours more, smaller partitions than R^2/X (Figure 9). *)
  Alcotest.(check bool) "R/X runs at least as many jobs" true
    (r_best.jobs >= r2_best.jobs)

let test_partition_invalid_jobs () =
  let app = Apps.Chimaera.p240 () in
  let run = Predictor.run ~time_steps:1 () in
  Alcotest.check_raises "non-dividing jobs"
    (Invalid_argument "Predictor.partition: jobs must divide the available cores")
    (fun () ->
      ignore (Predictor.partition ~run ~platform:xt4 ~avail:100 ~jobs:3 app))

(* --- Section 5.5: energy-group pipelining cuts fill time --- *)

let test_energy_pipeline_redesign () =
  let cores = 4096 in
  let seq = Apps.Sweep3d.weak_4x4x1000 ~cores () in
  let cfg = Plugplay.config xt4 ~cores in
  let groups = 30 in
  (* Sequential: each energy group runs the full 8-sweep iteration. *)
  let t_seq = float_of_int groups *. Plugplay.time_per_iteration seq cfg in
  (* Pipelined: one iteration of 8 * groups sweeps with unchanged nfull and
     ndiag (Section 5.5: 240 sweeps, nfull = 2, ndiag = 2). *)
  let piped =
    {
      seq with
      schedule = Sweeps.Schedule.make ~nsweeps:(8 * groups) ~nfull:2 ~ndiag:2;
    }
  in
  let t_pipe = Plugplay.time_per_iteration piped cfg in
  Alcotest.(check bool) "pipelining eliminates fill overhead" true
    (t_pipe < t_seq);
  (* The savings should be close to (groups-1) * (nfull*Tfullfill +
     ndiag*Tdiagfill) minus the extra all-reduce difference. *)
  let r = Plugplay.iteration seq cfg in
  let fill_per_iter = (2.0 *. r.t_fullfill) +. (2.0 *. r.t_diagfill) in
  let saved = t_seq -. t_pipe in
  let expected = (float_of_int groups -. 1.0) *. fill_per_iter in
  let rel = Float.abs (saved -. expected) /. expected in
  Alcotest.(check bool)
    (Fmt.str "saving matches fill estimate (rel=%.3f)" rel)
    true (rel < 0.15)

(* --- Properties --- *)

let arb_cores = QCheck.Gen.oneofl [ 4; 16; 64; 256; 1024; 4096 ]

let prop_iteration_positive =
  QCheck.Test.make ~name:"iteration time is positive and finite" ~count:100
    (QCheck.make
       QCheck.Gen.(
         triple arb_cores (float_range 0.1 10.0) (int_range 1 8)))
    (fun (cores, wg, htile) ->
      let app =
        Apps.Chimaera.params ~wg ~htile:(float_of_int htile)
          Data_grid.chimaera_240
      in
      let t = Plugplay.time_per_iteration app (Plugplay.config xt4 ~cores) in
      Float.is_finite t && t > 0.0)

let prop_monotone_in_wg =
  QCheck.Test.make ~name:"iteration time is monotone in Wg" ~count:100
    (QCheck.make
       QCheck.Gen.(triple arb_cores (float_range 0.1 5.0) (float_range 0.0 5.0)))
    (fun (cores, wg, extra) ->
      let t wg =
        Plugplay.time_per_iteration
          (Apps.Sweep3d.params ~wg Data_grid.sweep3d_20m)
          (Plugplay.config xt4 ~cores)
      in
      t wg <= t (wg +. extra) +. 1e-9)

let prop_more_gating_is_slower =
  QCheck.Test.make ~name:"more full gates never speed an iteration up"
    ~count:100
    (QCheck.make QCheck.Gen.(pair arb_cores (int_range 1 3)))
    (fun (cores, nfull_extra) ->
      let mk_app nfull =
        Apps.Custom.params ~name:"gates" ~nsweeps:8 ~nfull ~ndiag:2 ~wg:1.0
          (Data_grid.cube 128)
      in
      let cfg = Plugplay.config xt4 ~cores in
      Plugplay.time_per_iteration (mk_app 2) cfg
      <= Plugplay.time_per_iteration (mk_app (2 + nfull_extra)) cfg +. 1e-9)

let prop_components_consistent =
  QCheck.Test.make ~name:"components sum and are non-negative" ~count:50
    (QCheck.make arb_cores)
    (fun cores ->
      let c =
        Plugplay.components (Apps.Lu.class_e ()) (Plugplay.config xt4 ~cores)
      in
      c.computation >= 0.0
      && c.communication >= 0.0
      && Float.abs (c.total -. (c.computation +. c.communication)) < 1e-6)

(* The (r2a)/(r2b) oracle, and the only per-cell fill in the tree: the
   pipeline-fill recurrence evaluated cell by cell over the full StartP
   grid, each cell probing [Cmp.link_locality] for its own links — none
   of the per-column / per-row hoisting or the one-row scratch
   [Plugplay.Eval] relies on. Returns (t_diagfill, t_fullfill). *)
let fill_oracle (cfg : Plugplay.config) ~w ~w_pre ~msg_ew ~msg_ns =
  let { Proc_grid.cols; rows } = cfg.pgrid in
  let start = Array.make (cols * rows) 0.0 in
  let idx i j = ((j - 1) * cols) + (i - 1) in
  let locality src dir = Cmp.link_locality cfg.cmp ~src dir in
  for j = 1 to rows do
    for i = 1 to cols do
      if i = 1 && j = 1 then start.(idx 1 1) <- w_pre
      else begin
        let from_west =
          if i = 1 then neg_infinity
          else
            let arrive =
              Comm.total cfg.platform (locality (i - 1, j) E) msg_ew
            in
            let recv_north =
              if j = 1 then 0.0
              else Comm.receive cfg.platform (locality (i, j - 1) S) msg_ns
            in
            start.(idx (i - 1) j) +. w +. arrive +. recv_north
        in
        let from_north =
          if j = 1 then neg_infinity
          else
            let send_east =
              if i = cols then 0.0
              else Comm.send cfg.platform (locality (i, j - 1) E) msg_ew
            in
            let arrive =
              Comm.total cfg.platform (locality (i, j - 1) S) msg_ns
            in
            start.(idx i (j - 1)) +. w +. send_east +. arrive
        in
        start.(idx i j) <- Float.max from_west from_north
      end
    done
  done;
  (start.(idx 1 rows), start.(idx cols rows))

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [Plugplay.Eval] sums the fill in another order than the oracle, and
   the oracle itself rounds once per move along a path of cols + rows
   moves, so the two agree to a tolerance that grows with the path:
   |fast - oracle| <= 4 (cols + rows) eps |oracle|. *)
let within_fill_tolerance ~cols ~rows ~oracle fast =
  Float.abs (fast -. oracle)
  <= 4.0 *. float_of_int (cols + rows) *. epsilon_float *. Float.abs oracle

let fill_cfg ?(sync_terms = false) ?(contention = true) platform ~cpn ~cols
    ~rows =
  Plugplay.config ~cmp:(Cmp.of_cores_per_node cpn)
    ~pgrid:(Proc_grid.v ~cols ~rows) ~sync_terms ~contention
    (Loggp.Params.with_cores_per_node platform cpn)
    ~cores:(cols * rows)

(* The oracle's (Tdiagfill, Tfullfill, Titer) next to [r]'s, each within
   the fill tolerance; [r.w] and friends do not depend on the fill. *)
let fill_matches_oracle app (cfg : Plugplay.config) (r : Plugplay.result) =
  let { Proc_grid.cols; rows } = cfg.pgrid in
  let diag, full =
    fill_oracle cfg ~w:r.w ~w_pre:r.w_pre ~msg_ew:r.msg_ew ~msg_ns:r.msg_ns
  in
  let c = App_params.counts app in
  let t_iteration =
    (float_of_int c.ndiag *. diag)
    +. (float_of_int c.nfull *. full)
    +. (float_of_int c.nsweeps *. r.t_stack)
    +. r.t_nonwavefront
  in
  within_fill_tolerance ~cols ~rows ~oracle:diag r.t_diagfill
  && within_fill_tolerance ~cols ~rows ~oracle:full r.t_fullfill
  && within_fill_tolerance ~cols ~rows ~oracle:t_iteration r.t_iteration

let fill_apps =
  [
    Apps.Sweep3d.params (Data_grid.cube 48);
    Apps.Lu.params (Data_grid.cube 48);
    Apps.Chimaera.params (Data_grid.cube 48);
    Apps.Sweep3d.params (Data_grid.cube 1024);
  ]

let prop_fill_matches_oracle =
  let gen =
    QCheck.Gen.(
      let side = int_range 1 256 in
      let thin = int_range 1 3 in
      let dims =
        oneof
          [
            pair thin side;
            pair side thin;
            pair (int_range 1 24) (int_range 1 24);
            pair side side;
          ]
      in
      tup6 (oneofl Loggp.Params.presets)
        (oneofl [ 1; 2; 3; 4; 6; 8; 16 ])
        dims bool bool (oneofl fill_apps))
  in
  let print (p, cpn, (cols, rows), sync_terms, contention, app) =
    Printf.sprintf "%s cpn=%d %dx%d sync=%b contention=%b %s"
      p.Loggp.Params.name cpn cols rows sync_terms contention
      app.App_params.name
  in
  QCheck.Test.make ~count:200
    ~name:"iteration and Eval match the per-cell fill oracle within 4(n+m)eps"
    (QCheck.make ~print gen)
    (fun (platform, cpn, (cols, rows), sync_terms, contention, app) ->
      let cfg_of = fill_cfg ~sync_terms ~contention platform ~cpn in
      let cfg = cfg_of ~cols ~rows in
      let r = Plugplay.iteration app cfg in
      (* Each evaluator reuses its corner scratch: run it twice, with an
         evaluator for another grid run in between, and require
         [iteration]'s bits every time. *)
      let e = Plugplay.Eval.create app cfg in
      let other =
        Plugplay.Eval.create app (cfg_of ~cols:(rows + 1) ~rows:(cols + 2))
      in
      let matches_iteration () =
        bits_equal r.t_diagfill (Plugplay.Eval.t_diagfill e)
        && bits_equal r.t_fullfill (Plugplay.Eval.t_fullfill e)
        && bits_equal r.t_iteration (Plugplay.Eval.t_iteration e)
      in
      Plugplay.Eval.run e;
      let first = matches_iteration () in
      Plugplay.Eval.run other;
      Plugplay.Eval.run e;
      fill_matches_oracle app cfg r && first && matches_iteration ())

(* Every grid up to three node rectangles (plus one) on each side: all
   the ways the first and last corners can overlap, touch or part, and
   every phase a thin side can end on. *)
let test_fill_oracle_exhaustive () =
  List.iter
    (fun platform ->
      List.iter
        (fun cpn ->
          let { Cmp.cx; cy } = Cmp.of_cores_per_node cpn in
          for cols = 1 to 3 * (cx + 1) do
            for rows = 1 to 3 * (cy + 1) do
              List.iter
                (fun app ->
                  let cfg = fill_cfg platform ~cpn ~cols ~rows in
                  if not (fill_matches_oracle app cfg (Plugplay.iteration app cfg))
                  then
                    Alcotest.failf "%s cpn=%d %dx%d %s: off the oracle"
                      platform.Loggp.Params.name cpn cols rows
                      app.App_params.name)
                fill_apps
            done
          done)
        [ 1; 2; 4; 8; 16 ])
    Loggp.Params.presets

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_iteration_positive;
      prop_monotone_in_wg;
      prop_more_gating_is_slower;
      prop_components_consistent;
      prop_fill_matches_oracle;
    ]

let suite =
  [
    ( "core.closed-forms",
      [
        Alcotest.test_case "zero-comm iteration (r5)" `Quick
          test_zero_comm_closed_form;
        Alcotest.test_case "pre-compute placement (r1a/r2a/r4)" `Quick
          test_zero_comm_with_precompute;
        Alcotest.test_case "fill times (r2b/r3)" `Quick
          test_fill_times_single_core;
        Alcotest.test_case "stack time (r4)" `Quick
          test_stack_time_single_core;
      ] );
    ( "core.messages",
      [
        Alcotest.test_case "Sweep3D sizes (Table 3)" `Quick
          test_message_sizes_sweep3d;
        Alcotest.test_case "LU sizes (Table 3)" `Quick test_message_sizes_lu;
      ] );
    ( "core.multicore",
      [
        Alcotest.test_case "contention coefficients (Table 6)" `Quick
          test_contention_coeffs;
        Alcotest.test_case "contention slows iteration" `Quick
          test_contention_increases_time;
        Alcotest.test_case "1x2 stack delta = 2I/tile" `Quick
          test_contention_matches_table6;
        Alcotest.test_case "fill uses on-chip links" `Quick
          test_multicore_fill_uses_onchip;
        Alcotest.test_case "fill = oracle on every small grid" `Quick
          test_fill_oracle_exhaustive;
      ] );
    ( "core.components",
      [
        Alcotest.test_case "computation + communication = total" `Quick
          test_components_sum;
        Alcotest.test_case "communication grows with P (Fig 11)" `Quick
          test_communication_dominates_at_scale;
      ] );
    ( "core.htile",
      [
        Alcotest.test_case "optimum in 2..5 on XT4 (Fig 5)" `Quick
          test_htile_optimum_in_paper_range;
        Alcotest.test_case "SP/2 prefers taller tiles" `Quick
          test_htile_optimum_sp2_larger;
      ] );
    ( "core.baselines",
      [
        Alcotest.test_case "Table 4 model agrees" `Quick
          test_sweep3d_model_close_to_plugplay;
        Alcotest.test_case "Hoisie baseline overestimates" `Quick
          test_hoisie_overestimates;
      ] );
    ( "core.predictor",
      [
        Alcotest.test_case "total time scaling" `Quick test_total_time_scaling;
        Alcotest.test_case "partition metric relations" `Quick
          test_partition_metrics_relations;
        Alcotest.test_case "throughput trade-off (Fig 7)" `Quick
          test_partition_throughput_tradeoff;
        Alcotest.test_case "best partition (Fig 9)" `Quick test_best_partition;
        Alcotest.test_case "invalid job split" `Quick
          test_partition_invalid_jobs;
      ] );
    ( "core.redesign",
      [
        Alcotest.test_case "energy-group pipelining (S5.5)" `Quick
          test_energy_pipeline_redesign;
      ] );
    ("core.properties", props);
  ]
