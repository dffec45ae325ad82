(* The benchmark's own checks: good results pass and results with one
   perturbed field, a non-200 status or an unclean engine outcome are
   counted as failed. Responses are produced in process by the same
   serializers the daemon uses. *)

open Perfbench
module Api = Serve.Api

let http body = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" ^ body

let sample idx response =
  { Loopback.idx; t0 = 0.0; connected = 0.0; first_byte = 0.0; finished = 0.0; response }

let check name cond =
  if not cond then begin
    Printf.eprintf "FAIL: %s\n" name;
    exit 1
  end

let failed ~checker responses = Check.responses ~checker (List.map (fun r -> sample 0 r) responses)

let () =
  (* predict *)
  let body = (Gen.predict_pool ~seed:7).(0).p_body in
  let buf = Buffer.create 1024 in
  (match Api.predict_into buf body with Ok () -> () | Error m -> failwith m);
  let good = http (Buffer.contents buf) in
  let checker _ = Check.predict_checker body in
  check "predict response passes" (failed ~checker [ good ] = 0);
  let bad = Option.get (Check.perturb good "t_iteration") in
  check "perturbed t_iteration fails" (failed ~checker [ bad ] = 1);
  let err = "HTTP/1.1 500 Internal Server Error\r\n\r\n" ^ Buffer.contents buf in
  check "non-200 fails" (failed ~checker [ err ] = 1);
  check "each response counted" (failed ~checker [ good; bad; good; bad ] = 2);
  (* sweep *)
  let body = (Gen.sweep_pool ~seed:7).(0).s_body in
  let s = match Api.parse_sweep body with Ok s -> s | Error m -> failwith m in
  let points = match Api.run_sweep ~deadline:Serve.Deadline.none s with `Done p -> p | `Expired _ -> [] in
  Api.render_sweep_into buf s points;
  let good = http (Buffer.contents buf) in
  let checker _ = Check.sweep_checker body in
  check "sweep response passes" (failed ~checker [ good ] = 0);
  let bad = Option.get (Check.perturb good "total") in
  check "perturbed total fails" (failed ~checker [ bad ] = 1);
  let bad = Option.get (Check.perturb good "points") in
  check "perturbed point count fails" (failed ~checker [ bad ] = 1);
  (* engine outcomes *)
  let clean = { Check.completed = true; blocked = 0; orphaned = 0; mismatches = 0 } in
  check "clean outcome passes" (Check.outcome_ok clean);
  List.iter
    (fun (name, o) -> check name (not (Check.outcome_ok o)))
    [
      ("incomplete fails", { clean with completed = false });
      ("blocked fails", { clean with blocked = 1 });
      ("orphaned fails", { clean with orphaned = 2 });
      ("mismatch fails", { clean with mismatches = 1 });
    ];
  (* a real engine run is clean *)
  let sc = List.find (fun (sc : Gen.scenario) -> sc.engine = Gen.Validate) (Array.to_list (Gen.scenarios ~seed:7)) in
  check "dataflow scenario is clean" (Check.outcome_ok (Engines.run (Engines.prepare sc)).outcome);
  print_endline "perfbench checks: ok"
