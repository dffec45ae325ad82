(* The plug-and-play re-usable LogGP model (paper Section 4, Tables 5 and 6).

   Equations implemented here, with their paper labels:

     Wpre = Wg_pre * Htile * Nx/n * Ny/m                               (r1a)
     W    = Wg     * Htile * Nx/n * Ny/m                               (r1b)
     StartP(1,1) = Wpre                                                (r2a)
     StartP(i,j) = max(StartP(i-1,j) + W + Total_commE + ReceiveN,
                       StartP(i,j-1) + W + SendE + Total_commS)        (r2b)
     Tdiagfill = StartP(1,m)                                           (r3a)
     Tfullfill = StartP(n,m)                                           (r3b)
     Tstack = (ReceiveW + ReceiveN + W + SendE + SendS + Wpre)
              * Nz/Htile - Wpre                                        (r4)
     Titer  = ndiag*Tdiagfill + nfull*Tfullfill
              + nsweeps*Tstack + Tnonwavefront                         (r5)

   For multi-core nodes, each communication term in (r2b) is classified
   on-chip or off-node by the position of the cores involved inside the
   Cx x Cy node rectangle (Table 6), all communication in (r4) is off-node
   (the stack proceeds at the rate of the slowest direction), and the
   shared-bus interference term I = o_dma + size * G_dma is added to the
   sends and receives of (r4).

   With single-core nodes every link of a direction costs the same and
   (r3a)/(r3b) have the paper's closed forms. With multi-core nodes they
   do not, but the locality pattern repeats with the node rectangle, and
   [Eval] evaluates (r2b) exactly from that one period: its cost is set
   by Cx*Cy, not by the number of cores. *)

open Wgrid
module Comm = Loggp.Comm_model

type config = {
  platform : Loggp.Params.t;
  cmp : Cmp.t;
  pgrid : Proc_grid.t;
  contention : bool;
  sync_terms : bool;
}

let config ?cmp ?pgrid ?(contention = true) ?(sync_terms = false) platform
    ~cores =
  if cores < 1 then invalid_arg "Plugplay.config: cores must be >= 1";
  let cmp =
    match cmp with
    | Some c -> c
    | None -> Cmp.of_cores_per_node platform.Loggp.Params.cores_per_node
  in
  let pgrid =
    match pgrid with Some g -> g | None -> Proc_grid.of_cores cores
  in
  if Proc_grid.cores pgrid <> cores then
    invalid_arg "Plugplay.config: pgrid does not match the core count";
  { platform; cmp; pgrid; contention; sync_terms }

type result = {
  w : float;
  w_pre : float;
  msg_ew : int;
  msg_ns : int;
  t_diagfill : float;
  t_fullfill : float;
  t_stack : float;
  t_nonwavefront : float;
  t_iteration : float;
}

(* Shared-bus interference coefficients for the sends and receives of (r4),
   generalizing the three cases of Table 6 (1x2 -> I on the N/S operations;
   2x2 -> I on every operation; 2x4 -> 2I on every operation): cores sharing
   a bus interfere in proportion to Cx*Cy/4 when the rectangle spans both
   dimensions, and only the spanned dimension suffers when the rectangle is a
   single row or column of cores. *)
let contention_coeffs (cmp : Cmp.t) =
  let cpn = float_of_int (Cmp.cores_per_node cmp) in
  if cmp.cx = 1 && cmp.cy = 1 then (0.0, 0.0)
  else if cmp.cx = 1 then (0.0, cpn /. 2.0)
  else if cmp.cy = 1 then (cpn /. 2.0, 0.0)
  else (cpn /. 4.0, cpn /. 4.0)

(* The non-wavefront (between-iteration) cost. *)
let nonwavefront_time (app : App_params.t) cfg =
  match app.nonwavefront with
  | No_op -> 0.0
  | Fixed t -> t
  | Allreduce { count; msg_size } ->
      let cores = Proc_grid.cores cfg.pgrid in
      float_of_int count *. Loggp.Allreduce.time ~msg_size cfg.platform ~cores
  | Stencil { wg_stencil; halo_bytes_per_cell } ->
      let cells_x = Decomp.cells_x app.grid cfg.pgrid in
      let cells_y = Decomp.cells_y app.grid cfg.pgrid in
      let nz = float_of_int app.grid.nz in
      let compute = wg_stencil *. cells_x *. cells_y *. nz in
      let face extent =
        Decomp.message_size ~bytes_per_cell:halo_bytes_per_cell ~htile:nz
          ~extent
      in
      let halo =
        (2.0 *. Comm.total_offnode cfg.platform.offnode (face cells_y))
        +. (2.0 *. Comm.total_offnode cfg.platform.offnode (face cells_x))
      in
      compute +. halo

(* --- The evaluator: the one (r1a)-(r5) implementation --- *)

(* [create] derives everything that depends only on the configuration:
   (r1), the message sizes, the per-period (r2b) link tables and their
   counts, (r4) and the non-wavefront term. [run] then evaluates
   (r2a)-(r3b) from those tables and sums (r5), allocating zero minor
   words per call (pinned by the telemetry gate; the compiler here is
   classic ocamlopt, so any record, closure or boxed float return in
   [run] would show up immediately). [iteration] is [create] + [run] +
   [result]. Neither half does work that grows with the core count: the
   tables have one entry per core of a node side, and [run] costs
   O(Cx*Cy).

   Why that is exact. (r2b) is a longest monotone path from (1,1) to
   (n,m) on which an E move into (i,j) costs W + Total_commE(i-1) +
   ReceiveN(j-1) and an S move into (i,j) costs W + SendE(i) +
   Total_commS(j-1), with ReceiveN = 0 in row 1 and SendE = 0 in column
   n. Every path makes one E move out of each column and one S move out
   of each row, so the W and Total_comm sums are the same on every path.
   What varies is the gain: a(j) = ReceiveN(j-1) per E move in row j and
   b(i) = SendE(i) per S move in column i. [Cmp.link_locality] of an E
   link depends only on the source column and of an S link only on the
   source row, with period Cx and Cy (Table 6), so a and b are periodic
   apart from row 1 and column n.

   Let A = max a and B = max b over the grid, and call a row with a = A
   and a column with b = B good. E moves along a good row and S moves
   along a good column lose nothing against the bound A per E move and B
   per S move, and no move gains more. So any path can be rerouted
   through (i1,j1), the first good column and row, without losing gain:
   if it leaves row j1 west of column i1, replace its stretch from there
   to where it enters column i1 by E along row j1 then S along column
   i1; if it enters row j1 east of column i1, replace its stretch from
   where it leaves column i1 by S along column i1 then E along row j1.
   The same holds for (i2,j2), the last good column and row, and the
   second reroute only replaces stretches that start at or after
   (i1,j1). From (i1,j1) to (i2,j2), E along row j1 then S along column
   i2 loses nothing. Hence

     Tfullfill = Wpre + (n-1 + m-1)*W + Sum Total_commE + Sum Total_commS
                 + G(1,1 -> i1,j1) + A*(i2-i1) + B*(j2-j1)
                 + G(i2,j2 -> n,m)

   where G is the best gain of a monotone path inside a rectangle, found
   by a small DP ([corner]). Link costs are non-negative, so A and B are
   reached within the first period: i1 <= Cx, j1 <= Cy+1,
   n-i2 <= Cx and m-j2 < Cy. Each corner has at most (Cx+1)*(Cy+1)
   cells whatever the core count, and on a side shorter than a period a
   corner simply spans it. Tdiagfill has one path, down column 1.

   The sums run in a different order from the per-cell recurrence, so
   the two agree to rounding, not bit for bit: the tests hold [run] to
   4*(n+m)*eps relative of a per-cell oracle. *)
module Eval = struct
  type out = {
    mutable t_diagfill : float;
    mutable t_fullfill : float;
    mutable t_iteration : float;
  }

  type nonrec t = {
    cols : int;
    rows : int;
    cx : int;
    cy : int;
    (* Per-period (r2b) link terms: phase k is the E link out of every
       column i with (i-1) mod Cx = k, and the S link out of every row j
       with (j-1) mod Cy = k; the counts are how many such links the grid
       has. *)
    ew_total : float array;  (* .(k), k in 0..cx-1 *)
    ew_send : float array;
    ew_count : float array;
    ns_total : float array;  (* .(k), k in 0..cy-1 *)
    ns_recv : float array;
    ns_count : float array;
    dp : float array;  (* one row of a corner, reused every run *)
    ndiag : float;
    nfull : float;
    stack_term : float;  (* nsweeps * t_stack, constant per config *)
    t_nonwavefront : float;
    out : out;
    base : result;  (* constant result fields for [result] *)
  }

  (* (r4): all communication off-node; bus interference added per
     Table 6. *)
  let stack_time (app : App_params.t) cfg ~w ~w_pre ~msg_ew ~msg_ns =
    let pg = cfg.pgrid in
    let off = cfg.platform.offnode in
    let coeff_ew, coeff_ns =
      if cfg.contention then contention_coeffs cfg.cmp else (0.0, 0.0)
    in
    let i_ew = coeff_ew *. Comm.contention_i cfg.platform.onchip msg_ew in
    let i_ns = coeff_ns *. Comm.contention_i cfg.platform.onchip msg_ns in
    (* Optional handshake back-propagation terms of the Table 4 model
       ((m-1)L and (n-2)L per tile): significant on high-latency platforms
       like the SP/2, negligible on the XT4 (paper Section 4.2). *)
    let sync =
      if cfg.sync_terms then
        float_of_int (pg.rows - 1 + max 0 (pg.cols - 2)) *. off.l
      else 0.0
    in
    let per_tile =
      Comm.receive_offnode off msg_ew +. i_ew (* ReceiveW *)
      +. Comm.receive_offnode off msg_ns +. i_ns (* ReceiveN *)
      +. w
      +. Comm.send_offnode off msg_ew +. i_ew (* SendE *)
      +. Comm.send_offnode off msg_ns +. i_ns (* SendS *)
      +. w_pre +. sync
    in
    let ntiles = Tile.ntiles ~nz:app.grid.nz ~htile:app.htile in
    (per_tile *. ntiles) -. w_pre

  (* How many of the links 1..[links] have phase k: (l-1) mod [period] = k. *)
  let phase_count ~links ~period k =
    if k >= links then 0.0 else float_of_int (((links - 1 - k) / period) + 1)

  let create (app : App_params.t) cfg =
    let pg = cfg.pgrid in
    let cols = pg.Proc_grid.cols and rows = pg.Proc_grid.rows in
    let cx = cfg.cmp.Cmp.cx and cy = cfg.cmp.Cmp.cy in
    let cells_tile = Decomp.cells_per_tile app.grid pg ~htile:app.htile in
    let w = app.wg *. cells_tile (* r1b *) in
    let w_pre = app.wg_pre *. cells_tile (* r1a *) in
    let msg_ew = App_params.message_size_ew app pg in
    let msg_ns = App_params.message_size_ns app pg in
    let locality src dir = Cmp.link_locality cfg.cmp ~src dir in
    let ew_loc = Array.init cx (fun k -> locality (k + 1, 1) Cmp.E) in
    let ns_loc = Array.init cy (fun k -> locality (1, k + 1) Cmp.S) in
    let t_stack = stack_time app cfg ~w ~w_pre ~msg_ew ~msg_ns in
    let t_nonwavefront = nonwavefront_time app cfg in
    let c = App_params.counts app in
    {
      cols;
      rows;
      cx;
      cy;
      ew_total = Array.map (fun l -> Comm.total cfg.platform l msg_ew) ew_loc;
      ew_send = Array.map (fun l -> Comm.send cfg.platform l msg_ew) ew_loc;
      ew_count = Array.init cx (phase_count ~links:(cols - 1) ~period:cx);
      ns_total = Array.map (fun l -> Comm.total cfg.platform l msg_ns) ns_loc;
      ns_recv = Array.map (fun l -> Comm.receive cfg.platform l msg_ns) ns_loc;
      ns_count = Array.init cy (phase_count ~links:(rows - 1) ~period:cy);
      dp = Array.make (cx + 1) 0.0;
      ndiag = float_of_int c.ndiag;
      nfull = float_of_int c.nfull;
      stack_term = float_of_int c.nsweeps *. t_stack;
      t_nonwavefront;
      out = { t_diagfill = 0.0; t_fullfill = 0.0; t_iteration = 0.0 };
      base =
        {
          w; w_pre; msg_ew; msg_ns; t_diagfill = 0.0; t_fullfill = 0.0;
          t_stack; t_nonwavefront; t_iteration = 0.0;
        };
    }

  (* The gain a(j) of an E move into row j and b(i) of an S move into
     column i. *)
  let[@inline] gain_e e j =
    if j = 1 then 0.0 else e.ns_recv.((j - 2) mod e.cy)

  let[@inline] gain_s e i =
    if i = e.cols then 0.0 else e.ew_send.((i - 1) mod e.cx)

  (* The best gain G of a monotone path from (i0,j0) to (i1,j1), one row
     of the rectangle at a time; left in [e.dp.(i1 - i0)] (a float
     return would be boxed). *)
  let corner e ~i0 ~j0 ~i1 ~j1 =
    let dp = e.dp in
    let width = i1 - i0 in
    let a = gain_e e j0 in
    dp.(0) <- 0.0;
    for x = 1 to width do
      dp.(x) <- dp.(x - 1) +. a
    done;
    for j = j0 + 1 to j1 do
      let a = gain_e e j in
      dp.(0) <- dp.(0) +. gain_s e i0;
      for x = 1 to width do
        let fw = dp.(x - 1) +. a and fn = dp.(x) +. gain_s e (i0 + x) in
        (* plain compare, not [Float.max]: neither side is ever nan or
           -0., and the call would box its float arguments *)
        dp.(x) <- (if fw >= fn then fw else fn)
      done
    done

  let run e =
    let cols = e.cols and rows = e.rows in
    let w = e.base.w in
    (* A and B over the rows and columns the grid has: row 1 and the
       first period of rows, column n and the first period of
       columns. *)
    let a = ref (gain_e e 1) in
    for j = 2 to min rows (e.cy + 1) do
      let g = gain_e e j in
      if g > !a then a := g
    done;
    let b = ref (gain_s e cols) in
    for i = 1 to min cols e.cx do
      let g = gain_s e i in
      if g > !b then b := g
    done;
    let a = !a and b = !b in
    let j1 = ref 1 and j2 = ref rows and i1 = ref 1 and i2 = ref cols in
    while gain_e e !j1 <> a do incr j1 done;
    while gain_e e !j2 <> a do decr j2 done;
    while gain_s e !i1 <> b do incr i1 done;
    while gain_s e !i2 <> b do decr i2 done;
    let sum_ew = ref 0.0 and sum_ns = ref 0.0 in
    for k = 0 to e.cx - 1 do
      sum_ew := !sum_ew +. (e.ew_count.(k) *. e.ew_total.(k))
    done;
    for k = 0 to e.cy - 1 do
      sum_ns := !sum_ns +. (e.ns_count.(k) *. e.ns_total.(k))
    done;
    corner e ~i0:1 ~j0:1 ~i1:!i1 ~j1:!j1;
    let g_in = e.dp.(!i1 - 1) in
    corner e ~i0:!i2 ~j0:!j2 ~i1:cols ~j1:rows;
    let g_out = e.dp.(cols - !i2) in
    let down = float_of_int (rows - 1) in
    let o = e.out in
    (* r3a: StartP(1,m), the one path down column 1 *)
    o.t_diagfill <- e.base.w_pre +. (down *. (w +. gain_s e 1)) +. !sum_ns;
    (* r3b: StartP(n,m) *)
    o.t_fullfill <-
      e.base.w_pre
      +. (float_of_int (cols - 1 + rows - 1) *. w)
      +. !sum_ew +. !sum_ns +. g_in
      +. (a *. float_of_int (!i2 - !i1))
      +. (b *. float_of_int (!j2 - !j1))
      +. g_out;
    o.t_iteration <-
      (e.ndiag *. o.t_diagfill)
      +. (e.nfull *. o.t_fullfill)
      +. e.stack_term +. e.t_nonwavefront (* r5 *)

  let t_iteration e = e.out.t_iteration
  let t_diagfill e = e.out.t_diagfill
  let t_fullfill e = e.out.t_fullfill

  let result e =
    {
      e.base with
      t_diagfill = e.out.t_diagfill;
      t_fullfill = e.out.t_fullfill;
      t_iteration = e.out.t_iteration;
    }
end

let iteration app cfg =
  let e = Eval.create app cfg in
  Eval.run e;
  Eval.result e

let time_per_iteration app cfg = (iteration app cfg).t_iteration

(* Per-sweep critical-path contributions implied by the (r5) accounting:
   a Follow-gated sweep adds one stack time, a Diagonal-gated sweep adds a
   diagonal fill on top, a Full-gated sweep a full fill. The contributions
   sum to the iteration time minus the non-wavefront term. *)
let sweep_times app cfg =
  let r = iteration app cfg in
  List.map
    (fun (g : Sweeps.Schedule.gate) ->
      let t =
        match g with
        | Follow -> r.t_stack
        | Diagonal -> r.t_diagfill +. r.t_stack
        | Full -> r.t_fullfill +. r.t_stack
      in
      (g, t))
    (Sweeps.Schedule.gates app.App_params.schedule)

let time_per_time_step app cfg =
  float_of_int app.App_params.iterations *. time_per_iteration app cfg

(* --- Computation/communication decomposition (for Figure 11) --- *)

type components = {
  total : float;
  computation : float;
  communication : float;
}

(* A platform with all communication costs zeroed: evaluating the model on
   it yields the pure-computation component of the critical path. *)
let zero_comm_platform (p : Loggp.Params.t) : Loggp.Params.t =
  {
    p with
    offnode = { g = 0.0; l = 0.0; o = 0.0; o_h = 0.0; eager_limit = max_int };
    onchip =
      { g_copy = 0.0; g_dma = 0.0; o_copy = 0.0; o_dma = 0.0;
        eager_limit = max_int };
  }

let components app cfg =
  let total = time_per_iteration app cfg in
  let comp_cfg =
    { cfg with platform = zero_comm_platform cfg.platform; contention = false }
  in
  let computation = time_per_iteration app comp_cfg in
  { total; computation; communication = total -. computation }

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>W=%a Wpre=%a msgs EW=%dB NS=%dB@,Tdiagfill=%a Tfullfill=%a \
     Tstack=%a Tnonwf=%a@,T_iteration=%a@]"
    Units.pp_time r.w Units.pp_time r.w_pre r.msg_ew r.msg_ns Units.pp_time
    r.t_diagfill Units.pp_time r.t_fullfill Units.pp_time r.t_stack
    Units.pp_time r.t_nonwavefront Units.pp_time r.t_iteration
