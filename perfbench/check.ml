(* Correctness of every operation a run performed, checked after the timed
   window against an in-process recompute through the public functions. A
   failed check is a failed operation. *)

module Api = Serve.Api
module Json = Obs.Json

let num name j = match Json.member name j with Some (Json.Num x) -> Some x | _ -> None
let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* --- /v1/predict ---------------------------------------------------- *)

(* The model's t_iteration for a request body, computed in process. *)
let expected_predict body =
  match Api.parse_predict body with
  | Ok p -> Some (Wavefront_core.Plugplay.iteration p.app p.cfg).t_iteration
  | Error _ -> None

(* A response passes when it is a 200 whose t_iteration is bit-equal to
   the in-process value. *)
let predict_ok ~expected response =
  Loopback.status response = 200
  &&
  match (expected, Json.of_string (Loopback.body response)) with
  | Some e, j -> ( match num "t_iteration" j with Some t -> same t e | None -> false)
  | None, _ -> false
  | exception Json.Parse_error _ -> false

(* --- /v1/sweep ------------------------------------------------------ *)

type sweep_expect = { count : int; points : Api.point list; frontier : Api.point list }

let expected_sweep body =
  match Api.parse_sweep body with
  | Error _ -> None
  | Ok s -> (
      match Api.run_sweep ~deadline:Serve.Deadline.none s with
      | `Done points -> Some { count = Api.sweep_points s; points; frontier = Api.pareto points }
      | `Expired _ -> None)

let point_ok (e : Api.point) j =
  let is name v = match num name j with Some x -> same x v | None -> false in
  is "total" e.total && is "cores" (float_of_int e.cores) && is "htile" e.htile
  && is "k" (float_of_int e.k)

let list_ok expected = function
  | Some (Json.List l) ->
      List.length l = List.length expected && List.for_all2 point_ok expected l
  | _ -> false

(* A response passes when it is a 200 with the right point count, every
   point's total and the Pareto frontier equal to the recompute. *)
let sweep_ok ~expected response =
  Loopback.status response = 200
  &&
  match (expected, Json.of_string (Loopback.body response)) with
  | Some e, j ->
      num "points" j = Some (float_of_int e.count)
      && list_ok e.points (Json.member "evaluated" j)
      && list_ok e.frontier (Json.member "frontier" j)
  | None, _ -> false
  | exception Json.Parse_error _ -> false

(* Check every sample: [checker idx] builds the check for pool entry [idx]
   (recomputing its expectation once), and each distinct response is
   checked once. Returns the number that failed. *)
let responses ~checker (samples : Loopback.sample list) =
  let checks = Hashtbl.create 64 and seen = Hashtbl.create 64 in
  List.fold_left
    (fun failed (s : Loopback.sample) ->
      let check =
        match Hashtbl.find_opt checks s.idx with
        | Some c -> c
        | None ->
            let c = checker s.idx in
            Hashtbl.add checks s.idx c;
            c
      in
      let key = (s.idx, s.response) in
      let pass =
        match Hashtbl.find_opt seen key with
        | Some p -> p
        | None ->
            let p = check s.response in
            Hashtbl.add seen key p;
            p
      in
      if pass then failed else failed + 1)
    0 samples

let predict_checker body =
  let expected = expected_predict body in
  fun response -> predict_ok ~expected response

let sweep_checker body =
  let expected = expected_sweep body in
  fun response -> sweep_ok ~expected response

(* Negative control run alongside every check: one good response with a
   single digit of one field changed must fail. *)
let perturb response field =
  let key = Printf.sprintf {|"%s":|} field in
  let rec find i =
    if i + String.length key > String.length response then None
    else if String.sub response i (String.length key) = key then Some (i + String.length key)
    else find (i + 1)
  in
  let rec digit j =
    if j >= String.length response then None
    else if response.[j] >= '1' && response.[j] <= '8' then Some j
    else digit (j + 1)
  in
  match Option.bind (find 0) digit with
  | None -> None
  | Some j ->
      let b = Bytes.of_string response in
      Bytes.set b j (Char.chr (Char.code response.[j] + 1));
      Some (Bytes.to_string b)

(* --- engine outcomes ------------------------------------------------ *)

type outcome = {
  completed : bool;
  blocked : int;
  orphaned : int;
  mismatches : int;
}

let outcome_ok o = o.completed && o.blocked = 0 && o.orphaned = 0 && o.mismatches = 0
