(* Seeded inputs for every workload.

   A seed scrambles and jitters a fixed stratified design rather than
   drawing sizes independently: request cost is heavy-tailed in the core
   count, so independent draws would make a run's throughput hinge on how
   many large grids one seed happened to pick. With stratified draws every
   seed covers the same size distribution and two seeds measure the same
   thing. *)

let apps = [| "lu"; "sweep3d"; "chimaera" |]
let platforms = [| "xt4"; "sp2"; "bluegene_l"; "red_storm" |]
let cpns = [| 1; 2; 4 |]

let rng seed salt = Random.State.make [| 0x5eed; seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [n] draws of U(0,1), draw [i] inside [i/n, (i+1)/n), in shuffled order. *)
let strata st n =
  let a =
    Array.init n (fun i -> (float_of_int i +. Random.State.float st 1.0) /. float_of_int n)
  in
  shuffle st a;
  a

(* The [n] stratum midpoints in shuffled order: the same sizes for every
   seed, so the largest input, and with it peak memory, does not move. *)
let midpoints st n =
  let a = Array.init n (fun i -> (float_of_int i +. 0.5) /. float_of_int n) in
  shuffle st a;
  a

(* Every combination of the given axes, in shuffled order. *)
let factorial st axes =
  let combos =
    Array.of_list
      (List.fold_right
         (fun axis acc -> List.concat_map (fun v -> List.map (fun c -> v :: c) acc) axis)
         axes [ [] ])
  in
  shuffle st combos;
  combos

let log_uniform ~lo ~hi u = int_of_float (Float.round (2.0 ** (lo +. ((hi -. lo) *. u))))

let app_json b ~app ~side =
  Printf.bprintf b {|"app":{"name":"%s","nx":%d,"ny":%d,"nz":%d}|} app side side side

(* --- /v1/predict ---------------------------------------------------- *)

type predict = { p_body : string; p_cores : int }

(* lu/sweep3d/chimaera x four platforms x cores-per-node 1/2/4 x cube
   sides 64/128/256, every combination twice: once in the lower and once
   in the upper half of the log-uniform 2^4..2^10 core range, stratified
   within each half. No validation. *)
let predict_pool ~seed =
  let st = rng seed 1 in
  let combos =
    factorial st [ List.init 3 Fun.id; List.init 4 Fun.id; List.init 3 Fun.id; [ 64; 128; 256 ] ]
  in
  let pool =
    Array.concat
      (List.map
         (fun half ->
           let u = strata st (Array.length combos) in
           Array.mapi
             (fun i combo ->
               match combo with
               | [ a; p; c; side ] ->
                   let cores = log_uniform ~lo:4.0 ~hi:10.0 ((float_of_int half +. u.(i)) /. 2.0) in
                   let b = Buffer.create 160 in
                   Buffer.add_char b '{';
                   app_json b ~app:apps.(a) ~side;
                   Printf.bprintf b {|,"machine":{"platform":"%s","cores":%d,"cores_per_node":%d}}|}
                     platforms.(p) cores cpns.(c);
                   { p_body = Buffer.contents b; p_cores = cores }
               | _ -> assert false)
             combos)
         [ 0; 1 ])
  in
  shuffle st pool;
  pool

(* --- /v1/sweep ------------------------------------------------------ *)

type sweep = {
  s_body : string;
  s_app : string;
  s_side : int;
  s_platform : string;
  s_cpn : int;
  s_htiles : int list;
  s_grids : (int * int) list;  (** (cols, rows) *)
  s_ks : int list;
  s_points : int;
  s_configs : int;  (** distinct (htile, grid) pairs *)
  s_cores : int list;  (** core count of each point *)
}

let sweep_pool_size = 48

(* Candidates drawn per pool entry; the pool takes one from each cost
   stratum of the candidates. *)
let sweep_candidates = 32

(* Core-evaluations (points x cores) a request may cost: about a second
   of model time, so the heaviest request stays far inside the daemon's
   default 10 s deadline with both cores busy. Heavier draws are redrawn. *)
let max_sweep_cost = 4_000_000

let pick_distinct st n from =
  let a = Array.copy from in
  shuffle st a;
  Array.to_list (Array.sub a 0 n)

(* One draw from the design space: 2-4 Htile values x 2-4 grids with
   sides log-uniform over 2^3..2^9 x 1-4 checkpoint intervals. *)
let rec sweep_request st =
  let nh = 2 + Random.State.int st 3 in
  let ng = 2 + Random.State.int st 3 in
  let nk = 1 + Random.State.int st 4 in
  let side () = int_of_float (Float.round (2.0 ** (3.0 +. Random.State.float st 6.0))) in
  let grids = List.init ng (fun _ -> (side (), side ())) in
  let cost = nh * nk * List.fold_left (fun a (c, r) -> a + (c * r)) 0 grids in
  if cost > max_sweep_cost then sweep_request st
  else begin
    let htiles = pick_distinct st nh [| 1; 2; 4; 8; 16 |] in
    let ks = pick_distinct st nk [| 0; 4; 8; 16; 32 |] in
    let app = apps.(Random.State.int st 3) in
    let side = if Random.State.bool st then 64 else 128 in
    let platform = platforms.(Random.State.int st 4) in
    let cpn = cpns.(Random.State.int st 3) in
    let b = Buffer.create 256 in
    Buffer.add_char b '{';
    app_json b ~app ~side;
    Printf.bprintf b {|,"machine":{"platform":"%s","cores_per_node":%d}|} platform cpn;
    let list f l = String.concat "," (List.map f l) in
    Printf.bprintf b {|,"htile":[%s],"grids":[%s],"k":[%s]|} (list string_of_int htiles)
      (list (fun (c, r) -> Printf.sprintf "[%d,%d]" c r) grids)
      (list string_of_int ks);
    Buffer.add_string b {|,"ckpt_cost":40,"restart_cost":400,"failures":1}|};
    let distinct = List.sort_uniq compare grids in
    ( cost,
      {
        s_body = Buffer.contents b;
        s_app = app;
        s_side = side;
        s_platform = platform;
        s_cpn = cpn;
        s_htiles = htiles;
        s_grids = grids;
        s_ks = ks;
        s_points = nh * ng * nk;
        s_configs = nh * List.length distinct;
        s_cores =
          List.concat_map
            (fun _ -> List.concat_map (fun (c, r) -> List.init nk (fun _ -> c * r)) grids)
            htiles;
      } )
  end

(* Request cost is heavy-tailed, so a pool of independent draws would
   give each seed its own latency distribution and points per second. The
   pool instead takes one request from each cost stratum of many
   candidates: of the middle half of a stratum, the request whose point
   count is nearest the median. Every seed then sees the same spread of
   request costs and point counts, each request still a draw from the
   design space. *)
let sweep_pool ~seed =
  let st = rng seed 2 in
  let n = sweep_candidates in
  let cands = Array.init (sweep_pool_size * n) (fun _ -> sweep_request st) in
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) cands;
  let pool =
    Array.init sweep_pool_size (fun i ->
        let middle = Array.to_list (Array.sub cands ((i * n) + (n / 4)) (n / 2)) |> List.map snd in
        let pts = List.sort compare (List.map (fun r -> r.s_points) middle) in
        let target = List.nth pts (List.length pts / 2) in
        List.fold_left
          (fun best r -> if abs (r.s_points - target) < abs (best.s_points - target) then r else best)
          (List.hd middle) middle)
  in
  shuffle st pool;
  pool

(* A fixed, seed-independent request used to warm the daemon. *)
let warm_predict =
  {|{"app":{"name":"sweep3d","nx":128,"ny":128,"nz":128},"machine":{"platform":"xt4","cores":256,"cores_per_node":2}}|}

(* One of its grids is the largest a sweep draws, so the daemon's heap
   has grown to the size the window needs. *)
let warm_sweep =
  {|{"app":{"name":"lu","nx":64,"ny":64,"nz":64},"machine":{"platform":"xt4","cores_per_node":2},"htile":[1,4],"grids":[[64,64],[512,512]],"k":[0,8]}|}

(* --- engine scenarios ----------------------------------------------- *)

type engine = Event | Batched | Validate

type scenario = {
  engine : engine;
  app : Wavefront_core.App_params.t;
  pg : Wgrid.Proc_grid.t;
  cpn : int;
  bus : bool;
}

let engine_name = function Event -> "event" | Batched -> "batched" | Validate -> "validate"

(* Per-engine rank range (log2) and tiles per sweep: event 64-256,
   batched 4096-65536 and dataflow 1024-8192 ranks, with stacks short
   enough that one run takes tens of milliseconds and a window holds
   hundreds of runs. *)
let engine_shape = function
  | Event -> (6.0, 8.0, 4)
  | Batched -> (12.0, 16.0, 1)
  | Validate -> (10.0, 13.0, 2)

let make_app name ~pg ~ntiles =
  let htile = 2.0 in
  let grid =
    Wgrid.Data_grid.v ~nx:(4 * pg.Wgrid.Proc_grid.cols) ~ny:(4 * pg.Wgrid.Proc_grid.rows)
      ~nz:(2 * ntiles)
  in
  let app =
    match name with
    | "lu" -> Apps.Lu.params ~iterations:1 grid
    | "sweep3d" -> Apps.Sweep3d.params ~iterations:1 grid
    | _ -> Apps.Chimaera.params ~iterations:1 grid
  in
  Wavefront_core.App_params.with_htile app htile

(* A near-square grid of about [ranks] ranks with even sides, so 1x2 and
   2x2 nodes tile it exactly: the event simulator deadlocks on grids its
   node rectangle does not divide (13x9 ranks on 1x2 nodes, for one). *)
let even_grid ranks =
  let even x = max 2 (2 * int_of_float (Float.round (x /. 2.0))) in
  let rows = even (sqrt ranks) in
  Wgrid.Proc_grid.v ~cols:(even (ranks /. float_of_int rows)) ~rows

(* Every app meets every node kind (cores-per-node 1/2/4, bus on/off)
   once per engine, the six node kinds of an app taking stratified rank
   counts over the engine's (log2) rank range. Run cost grows with ranks
   and differs by app (LU has two sweeps, the others eight), so pairing
   ranks with apps the same way for every seed keeps one seed's mix of
   costs like another's. The clockless validator has no costs, so for it
   only the app and rank count matter. The three engines' lists are
   interleaved, so slow phases of a shared host fall on all of them
   alike. *)
let node_kinds = [| (1, true); (1, false); (2, true); (2, false); (4, true); (4, false) |]

let engines = [ Event; Batched; Validate ]

let scenarios ~seed =
  let st = rng seed 3 in
  let list =
    Array.concat
      (List.concat_map
         (fun engine ->
           let lo, hi, ntiles = engine_shape engine in
           List.map
             (fun app ->
               let u = midpoints st (Array.length node_kinds) in
               Array.mapi
                 (fun i (cpn, bus) ->
                   let pg = even_grid (2.0 ** (lo +. ((hi -. lo) *. u.(i)))) in
                   { engine; app = make_app app ~pg ~ntiles; pg; cpn; bus })
                 node_kinds)
             (Array.to_list apps))
         engines)
  in
  shuffle st list;
  list

let waves (app : Wavefront_core.App_params.t) =
  Sweeps.Schedule.nsweeps app.schedule
  * Wgrid.Tile.ntiles_int ~nz:app.grid.nz ~htile:app.htile

(* One rank-wave is one rank's visit to one wave of one iteration. *)
let rank_waves sc =
  Wgrid.Proc_grid.cores sc.pg * waves sc.app * sc.app.Wavefront_core.App_params.iterations
