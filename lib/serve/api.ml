(* JSON in via Obs.Json (hostile input -> Error, never an exception);
   JSON out via Printf.bprintf into a caller-owned buffer ([%.17g] so
   predictions round-trip bit-exactly). *)

module Json = Obs.Json
module App_params = Wavefront_core.App_params
module Plugplay = Wavefront_core.Plugplay
module Field = Json.Field

let fail = Field.fail

(* --- /v1/predict ---------------------------------------------------- *)

type predict = { app : App_params.t; cfg : Plugplay.config; validate : bool }

(* Scenario errors come back as messages; the App_params / Plugplay
   constructors below them guard their domains with [Invalid_argument].
   On this path all of it is client error, not server bug. *)
let guarding f =
  match f () with
  | v -> Ok v
  | exception Field.Invalid m -> Error m
  | exception Json.Parse_error m -> Error ("malformed JSON: " ^ m)
  | exception Invalid_argument m -> Error m
  | exception Failure m -> Error m

let scenario shape j =
  match Apps.Scenario.of_json shape j with
  | Ok sc -> sc
  | Error m -> fail "%s" m

let parse_predict body =
  guarding (fun () ->
      let j = Json.of_string body in
      let sc = scenario `Predict j in
      {
        app = sc.app;
        cfg = Apps.Scenario.config sc;
        validate = Field.flag "validate" j;
      })

let cores p = Wgrid.Proc_grid.cores p.cfg.pgrid

type validation =
  | Not_requested
  | Validated of {
      cores : int;
      engine : float;
      model : float;
      error_pct : float;
    }
  | Degraded of string

let validate_run ?(max_cores = 64) p =
  let cores = min (cores p) max_cores in
  let pg = Wgrid.Proc_grid.of_cores cores in
  let { Plugplay.cmp; platform; _ } = p.cfg in
  let costs = Wrun.Costs.loggp ~model_bus:true ~cmp platform pg p.app in
  let o = Wrun.Batched.run ~costs pg p.app in
  let cfg = Plugplay.config ~cmp ~pgrid:pg platform ~cores in
  let model = Plugplay.time_per_iteration p.app cfg in
  let engine = o.Wrun.Batched.per_iteration in
  let error_pct =
    if model = 0.0 then nan else (engine -. model) /. model *. 100.0
  in
  Validated { cores; engine; model; error_pct }

(* --- response serialization ----------------------------------------- *)

let eval_predict_into b p ~validation =
  Buffer.clear b;
  let ev = Plugplay.Eval.create p.app p.cfg in
  Plugplay.Eval.run ev;
  let r = Plugplay.Eval.result ev in
  Buffer.add_string b {|{"schema":"wavefront-predict/v1","app":|};
  Json.add_string b p.app.App_params.name;
  Buffer.add_string b {|,"platform":|};
  Json.add_string b p.cfg.platform.Loggp.Params.name;
  Printf.bprintf b
    {|,"cores":%d,"cores_per_node":%d,"t_iteration":%.17g,"t_diagfill":%.17g,"t_fullfill":%.17g,"t_stack":%.17g,"t_nonwavefront":%.17g,"w":%.17g,"w_pre":%.17g,"msg_ew":%d,"msg_ns":%d,"time_per_time_step":%.17g|}
    (cores p) p.cfg.platform.cores_per_node r.Plugplay.t_iteration r.t_diagfill r.t_fullfill r.t_stack
    r.t_nonwavefront r.w r.w_pre r.msg_ew r.msg_ns
    (float_of_int p.app.App_params.iterations *. r.t_iteration);
  (match validation with
  | Not_requested -> Buffer.add_string b {|,"degraded":false,"validation":null|}
  | Degraded reason ->
      Buffer.add_string b {|,"degraded":true,"validation":null,"reason":|};
      Json.add_string b reason
  | Validated { cores; engine; model; error_pct } ->
      Printf.bprintf b
        {|,"degraded":false,"validation":{"cores":%d,"engine":%.17g,"model":%.17g,"error_pct":%.17g}|}
        cores engine model error_pct);
  Buffer.add_char b '}'

let predict_into b body =
  match parse_predict body with
  | Error _ as e -> e
  | Ok p ->
      eval_predict_into b p ~validation:Not_requested;
      Ok ()

(* --- /v1/sweep ------------------------------------------------------ *)

let max_sweep_points = 4096
let max_point_cores = 1_048_576

type sweep = {
  base : Apps.Scenario.t;
  htiles : float list;
  grids : (int * int) list;
  ks : int list;
  ckpt_cost : float;
  restart_cost : float;
  failures : int;
}

let parse_sweep body =
  guarding (fun () ->
      let j = Json.of_string body in
      let base = scenario `Sweep j in
      let htiles =
        List.map
          (fun v ->
            let h = Field.num_item "htile" v in
            if h <= 0.0 then fail "htile values must be > 0";
            h)
          (Field.list "htile" j)
      in
      let grids =
        List.map
          (function
            | Json.List [ c; r ] ->
                let cols = Field.int_item "grids" c in
                let rows = Field.int_item "grids" r in
                if cols < 1 || rows < 1 then fail "grid sides must be >= 1";
                if cols * rows > max_point_cores then
                  fail "grid %dx%d exceeds %d cores" cols rows max_point_cores;
                (cols, rows)
            | _ -> fail "elements of \"grids\" must be [cols, rows] pairs")
          (Field.list "grids" j)
      in
      let ks =
        List.map
          (fun v ->
            let k = Field.int_item "k" v in
            if k < 0 then fail "checkpoint intervals must be >= 0";
            k)
          (Field.list "k" j)
      in
      let opt_cost name =
        match Field.opt Field.num name j with
        | None -> 0.0
        | Some c ->
            if c < 0.0 then fail "field %S must be >= 0" name;
            c
      in
      let ckpt_cost = opt_cost "ckpt_cost" in
      let restart_cost = opt_cost "restart_cost" in
      let failures =
        match Field.opt Field.int "failures" j with
        | None -> 0
        | Some f ->
            if f < 0 then fail "field \"failures\" must be >= 0";
            f
      in
      let points = List.length htiles * List.length grids * List.length ks in
      if points > max_sweep_points then
        fail "sweep describes %d points; the limit is %d" points
          max_sweep_points;
      { base; htiles; grids; ks; ckpt_cost; restart_cost; failures })

let sweep_points s =
  List.length s.htiles * List.length s.grids * List.length s.ks

type point = {
  htile : float;
  cols : int;
  rows : int;
  k : int;
  cores : int;
  t_iter : float;
  overhead : float;
  total : float;
}

let eval_point s ~htile ~cols ~rows ~k =
  let app = App_params.with_htile s.base.app htile in
  let cores = cols * rows in
  let pgrid = Some (Wgrid.Proc_grid.v ~cols ~rows) in
  let cfg = Apps.Scenario.config { s.base with cores; pgrid } in
  let r = Plugplay.iteration app cfg in
  (* Per-iteration resilience overhead over one iteration's waves, the
     same accounting as the resilience subcommand. *)
  let policy =
    Perturb.Recover.v ~ckpt_cost:s.ckpt_cost ~restart_cost:s.restart_cost k
  in
  let term =
    Perturb.Recover.expected_term policy ~waves:(App_params.waves app)
      ~wave_cost:(r.Plugplay.w +. r.Plugplay.w_pre)
      ~failures:s.failures
  in
  let overhead = term.Perturb.Recover.total in
  {
    htile;
    cols;
    rows;
    k;
    cores;
    t_iter = r.Plugplay.t_iteration;
    overhead;
    total = r.Plugplay.t_iteration +. overhead;
  }

let run_sweep ~deadline s =
  let acc = ref [] in
  let evaluated = ref 0 in
  let expired = ref false in
  (try
     List.iter
       (fun htile ->
         List.iter
           (fun (cols, rows) ->
             List.iter
               (fun k ->
                 if Deadline.expired ~now:(Unix.gettimeofday ()) deadline
                 then begin
                   expired := true;
                   raise Exit
                 end;
                 acc := eval_point s ~htile ~cols ~rows ~k :: !acc;
                 incr evaluated)
               s.ks)
           s.grids)
       s.htiles
   with Exit -> ());
  if !expired then `Expired !evaluated else `Done (List.rev !acc)

let pareto points =
  (* Sort by (cores, total); a point survives if no cheaper-or-equal
     core count achieved a total <= its own. *)
  let sorted =
    List.sort
      (fun a b ->
        match compare a.cores b.cores with
        | 0 -> compare a.total b.total
        | c -> c)
      points
  in
  let rec scan best acc = function
    | [] -> List.rev acc
    | p :: rest ->
        if p.total < best then scan p.total (p :: acc) rest
        else scan best acc rest
  in
  scan infinity [] sorted

let add_point b p =
  Printf.bprintf b
    {|{"htile":%.17g,"cols":%d,"rows":%d,"k":%d,"cores":%d,"t_iteration":%.17g,"overhead":%.17g,"total":%.17g}|}
    p.htile p.cols p.rows p.k p.cores p.t_iter p.overhead p.total

let add_points b points =
  Buffer.add_char b '[';
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      add_point b p)
    points;
  Buffer.add_char b ']'

let render_sweep_into b s points =
  Buffer.clear b;
  Buffer.add_string b {|{"schema":"wavefront-sweep/v1","app":|};
  Json.add_string b s.base.app.App_params.name;
  Buffer.add_string b {|,"platform":|};
  Json.add_string b s.base.platform.Loggp.Params.name;
  Printf.bprintf b {|,"cores_per_node":%d,"points":%d,"evaluated":|} s.base.cpn
    (sweep_points s);
  add_points b points;
  Buffer.add_string b {|,"frontier":|};
  add_points b (pareto points);
  Buffer.add_char b '}'
