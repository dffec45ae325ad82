(* Tests for the wave-batched engine and its supporting layers: the
   cell-for-cell differential identities against the event-level
   simulator (perturbations, recovery and multi-iteration schedules
   included), the epilogue golden, bitwise determinism across domain
   counts, the streaming timeline accumulator, the SoA event heap, and the
   event engine's structured rank ceiling. *)

open Wgrid

let xt4 = Loggp.Params.xt4
let sweep n = Apps.Sweep3d.params (Data_grid.cube n)

(* Sweep3D without its all-reduce epilogue. The event simulator models a
   collective message by message where the batched engine charges the
   eq-9 closed form, so the two coincide on the wave columns only; the
   epilogue is pinned by its own golden below. *)
let sweep_waves n =
  { (sweep n) with
    Wavefront_core.App_params.nonwavefront = Wavefront_core.App_params.No_op
  }

let costs_for pg app = Wrun.Costs.loggp ~cmp:Cmp.single_core xt4 pg app

let spec s =
  match Perturb.Spec.of_string s with
  | Ok v -> v
  | Error (`Msg e) -> Alcotest.failf "bad spec %S: %s" s e

(* The event simulator's reference timeline for a configuration, via a
   span tracer — the yardstick every batched timeline is held to. With
   single-core nodes and the bus off both engines charge the same LogGP
   arithmetic per operation. *)
let event_timeline ?iterations ?perturb ?recover ~waves pg app =
  let machine = Xtsim.Machine.v ~model_bus:false ~cmp:Cmp.single_core xt4 pg in
  let tr = Obs.Tracer.create () in
  let o =
    Xtsim.Wavefront_sim.run ?iterations ?perturb ?recover ~obs:tr machine app
  in
  (o, Obs.Timeline.of_spans ~waves (Obs.Tracer.spans tr))

(* The batched engine's timeline reconstructed the same way (traced). *)
let batched_span_timeline ?iterations ?perturb ?recover ~waves costs pg app =
  let tr = Obs.Tracer.create () in
  let o = Wrun.Batched.run ?iterations ?perturb ?recover ~obs:tr ~costs pg app in
  (o, Obs.Timeline.of_spans ~waves (Obs.Tracer.spans tr))

(* --- Differential identity: batched = event simulator, cell for cell --- *)

let test_clean_identity () =
  let pg = Proc_grid.of_cores 16 in
  let app = sweep_waves 16 in
  let costs = costs_for pg app in
  let ob, tl_spans = batched_span_timeline ~waves:0 costs pg app in
  let oev, tl_ev = event_timeline ~waves:ob.waves pg app in
  Alcotest.(check bool) "both completed" true (ob.completed && oev.completed);
  Alcotest.(check int) "same messages" oev.sends ob.messages;
  Alcotest.(check int) "no orphans" 0 ob.orphaned;
  Alcotest.(check (float 1e-6)) "same elapsed" oev.elapsed ob.elapsed;
  Alcotest.(check bool) "traced timelines coincide" true
    (Obs.Timeline.equal ~tol:1e-6 tl_ev tl_spans);
  (* The streaming cell path reconstructs the identical dense grid. *)
  let oc, tl_cells = Wrun.Batched.run_timeline ~costs pg app in
  Alcotest.(check bool) "cell-streamed timeline coincides" true
    (Obs.Timeline.equal ~tol:1e-6 tl_ev tl_cells);
  Alcotest.(check (float 0.0)) "elapsed agrees bitwise with traced run"
    ob.elapsed oc.elapsed

let test_event_identity () =
  (* Same configuration the timeline identity test pins: with single-core
     nodes and the bus off, the observed and model sides coincide. *)
  let app =
    { (sweep 16) with
      Wavefront_core.App_params.nonwavefront = Wavefront_core.App_params.No_op
    }
  in
  let cfg =
    Wavefront_core.Plugplay.config ~cmp:Cmp.single_core xt4 ~cores:4
  in
  let ev = Harness.Timeline_report.run ~model_bus:false cfg app in
  let ba =
    Harness.Timeline_report.run ~model_bus:false ~engine:Harness.Engine.Batched
      cfg app
  in
  Alcotest.(check bool) "batched observed = its model side" true
    (Obs.Timeline.equal ~tol:1e-6 ba.observed ba.model);
  Alcotest.(check bool) "batched observed = event observed" true
    (Obs.Timeline.equal ~tol:1e-6 ev.observed ba.observed)

let perturbed_cases =
  [
    ("noise+link", "seed=42 noise=uniform:0.15 link=0.02:5", None, 1);
    ("collnoise", "seed=7 collnoise=80", None, 1);
    ("straggler", "seed=9 straggler=3:250", None, 1);
    ("pulse+periodic", "seed=3 pulse=3:40:500 periodic=16:120", None, 1);
    ("fail", "seed=5 fail=5:40", None, 1);
    ( "fail+recover",
      "seed=5 fail=5:40",
      Some { Perturb.Recover.interval = 16; ckpt_cost = 25.0;
             restart_cost = 400.0 },
      1 );
    ("iter2+noise", "seed=11 noise=uniform:0.2", None, 2);
  ]

let test_perturbed_identities () =
  let pg = Proc_grid.of_cores 16 in
  let app = sweep_waves 16 in
  let costs = costs_for pg app in
  List.iter
    (fun (name, s, recover, iterations) ->
      let perturb = spec s in
      let ob, tl_b =
        batched_span_timeline ~iterations ~perturb ?recover ~waves:0 costs pg
          app
      in
      let oev, tl_ev =
        event_timeline ~iterations ~perturb ?recover ~waves:ob.waves pg app
      in
      Alcotest.(check bool)
        (name ^ ": same completion") oev.completed ob.completed;
      Alcotest.(check (list int)) (name ^ ": same failed") oev.failed ob.failed;
      Alcotest.(check (list int))
        (name ^ ": same recovered") oev.recovered ob.recovered;
      Alcotest.(check int) (name ^ ": same messages") oev.sends ob.messages;
      Alcotest.(check bool)
        (name ^ ": traced timelines coincide") true
        (Obs.Timeline.equal ~tol:1e-6 tl_ev tl_b);
      (* The streaming cell contract merges multi-iteration visits, so the
         dense-grid identity is a single-iteration statement. *)
      if iterations = 1 then begin
        let _, tl_cells =
          Wrun.Batched.run_timeline ~iterations ~perturb ?recover ~costs pg
            app
        in
        Alcotest.(check bool)
          (name ^ ": cell-streamed timeline coincides") true
          (Obs.Timeline.equal ~tol:1e-6 tl_ev tl_cells)
      end)
    perturbed_cases

let test_recovery_matches_event () =
  let pg = Proc_grid.of_cores 16 in
  let app = sweep_waves 16 in
  let costs = costs_for pg app in
  let perturb = spec "seed=5 fail=5:40" in
  let recover =
    { Perturb.Recover.interval = 16; ckpt_cost = 25.0; restart_cost = 400.0 }
  in
  let ob = Wrun.Batched.run ~perturb ~recover ~costs pg app in
  let oev, _ = event_timeline ~perturb ~recover ~waves:ob.waves pg app in
  Alcotest.(check bool) "batched completed" true ob.completed;
  Alcotest.(check (list int)) "same recovered set" oev.recovered ob.recovered;
  Alcotest.(check int) "same checkpoint count" oev.checkpoints ob.checkpoints;
  Alcotest.(check (float 1e-6)) "same elapsed" oev.elapsed ob.elapsed;
  (* Every rank snapshots on the policy's schedule. *)
  Alcotest.(check int) "checkpoint count follows the schedule"
    (Perturb.Recover.checkpoints ~interval:recover.interval ~waves:ob.waves
    * ob.ranks)
    ob.checkpoints

(* --- The epilogue golden --- *)

(* Elapsed time and epilogue-column totals (compute, send, recv, wait,
   busy, total; us) of 16-rank, 16^3 runs on single-core XT4 nodes,
   recorded from the timed dataflow replay at commit 52cb9c0, the last
   commit that had it. That replay charged each collective its eq-9
   closed form as Batched does, where the event simulator models it
   message by message, so it stays the exact reference for the
   non-wavefront section. *)
let epilogue_golden =
  [
    ( "sweep3d", "clean", 2864.4584480000094,
      [ 0.; 0.; 0.; 0.; 4024.1511680000131; 4024.1511680000131 ] );
    ( "sweep3d", "collnoise", 2911.0735202923956,
      [ 0.; 0.; 0.; 0.; 4769.9923246781927; 4769.9923246781927 ] );
    ( "sweep3d", "fail+recover", 3416.2584480000073,
      [ 0.; 0.; 0.; 0.; 4024.1511680000149; 4024.1511680000149 ] );
    ( "lu", "clean", 933.14399999999785,
      [ 327.68000000000029; 0.; 0.; 0.; 2010.0159999999921;
        2010.0159999999921 ] );
    ( "lu", "collnoise", 933.14399999999785,
      [ 327.68000000000029; 0.; 0.; 0.; 2010.0159999999921;
        2010.0159999999921 ] );
    ( "lu", "fail+recover", 1381.1840000000034,
      [ 327.68000000000029; 0.; 0.; 0.; 4125.2160000000222;
        4125.2160000000222 ] );
    ( "chimaera", "clean", 4879.2518240000309,
      [ 0.; 0.; 0.; 0.; 2662.253184000012; 2662.253184000012 ] );
    ( "chimaera", "collnoise", 4906.1489602992096,
      [ 0.; 0.; 0.; 0.; 3092.6073647868725; 3092.6073647868725 ] );
    ( "chimaera", "fail+recover", 5518.2518240000354,
      [ 0.; 0.; 0.; 0.; 2662.253184000012; 2662.253184000012 ] );
  ]

let test_epilogue_golden () =
  let pg = Proc_grid.of_cores 16 in
  let apps =
    [
      ("sweep3d", sweep 16);
      ("lu", Apps.Lu.params (Data_grid.cube 16));
      ("chimaera", Apps.Chimaera.params (Data_grid.cube 16));
    ]
  in
  let cases =
    [
      ("clean", (None, None));
      ("collnoise", (Some (spec "seed=7 collnoise=80"), None));
      ( "fail+recover",
        ( Some (spec "seed=5 fail=5:20"),
          Some
            { Perturb.Recover.interval = 16; ckpt_cost = 25.0;
              restart_cost = 400.0 } ) );
    ]
  in
  List.iter
    (fun (app_name, case_name, elapsed, totals) ->
      let app = List.assoc app_name apps in
      let perturb, recover = List.assoc case_name cases in
      let costs = costs_for pg app in
      let o, tl = Wrun.Batched.run_timeline ?perturb ?recover ~costs pg app in
      let name = app_name ^ " " ^ case_name in
      Alcotest.(check bool) (name ^ ": completed") true o.completed;
      Alcotest.(check (float 1e-6)) (name ^ ": elapsed") elapsed o.elapsed;
      List.iter2
        (fun metric expected ->
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "%s: epilogue %s" name
               (Obs.Timeline.metric_name metric))
            expected
            (Obs.Timeline.column_total tl metric o.waves))
        Obs.Timeline.[ Compute; Send; Recv; Wait; Busy; Total ]
        totals)
    epilogue_golden

(* --- Bitwise determinism across domain counts --- *)

let test_domain_determinism () =
  let pg = Proc_grid.of_cores 16 in
  let app = sweep 16 in
  let costs = costs_for pg app in
  let check_spec name perturb =
    let o1, tl1 = Wrun.Batched.run_timeline ?perturb ~costs pg app in
    List.iter
      (fun domains ->
        let od, tld =
          Wrun.Batched.run_timeline ?perturb ~domains ~costs pg app
        in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s: elapsed bitwise-equal at %d domains" name
             domains)
          o1.elapsed od.elapsed;
        Alcotest.(check bool)
          (Printf.sprintf "%s: timeline bitwise-equal at %d domains" name
             domains)
          true
          (Obs.Timeline.equal ~tol:0.0 tl1 tld))
      [ 2; 3; 16 ]
  in
  check_spec "zero spec" None;
  check_spec "perturbed" (Some (spec "seed=3 pulse=3:40:500 straggler=2:100"))

(* --- The event engine's structured rank ceiling --- *)

let test_rank_ceiling () =
  let pg = Proc_grid.of_cores 16 in
  let machine = Xtsim.Machine.v ~cmp:Cmp.single_core xt4 pg in
  let app = sweep 16 in
  (match Xtsim.Wavefront_sim.run ~max_ranks:4 machine app with
  | _ -> Alcotest.fail "expected Rank_ceiling"
  | exception Xtsim.Wavefront_sim.Rank_ceiling r ->
      Alcotest.(check int) "carries the rank count" 16 r.ranks;
      Alcotest.(check int) "carries the ceiling" 4 r.max_ranks;
      Alcotest.(check bool) "estimates the event volume" true
        (r.estimated_events > 0);
      let printed = Printexc.to_string (Xtsim.Wavefront_sim.Rank_ceiling r) in
      let has_sub ~sub s =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "printer points at the batched engine" true
        (has_sub ~sub:"--engine=batched" printed));
  (* Below the ceiling nothing changes. *)
  let o = Xtsim.Wavefront_sim.run ~max_ranks:16 machine app in
  Alcotest.(check bool) "at the ceiling the run proceeds" true o.completed;
  Alcotest.(check bool) "default ceiling is past the test sizes" true
    (Xtsim.Wavefront_sim.default_max_ranks >= 65536)

(* --- The streaming timeline accumulator --- *)

let test_stream_lossless () =
  let pg = Proc_grid.of_cores 16 in
  let app = sweep 16 in
  let costs = costs_for pg app in
  let o0, dense = Wrun.Batched.run_timeline ~costs pg app in
  let st = Obs.Timeline_stream.create ~ranks:16 ~waves:o0.waves () in
  let o = Wrun.Batched.run ~cells:(Obs.Timeline_stream.sink st) ~costs pg app in
  Alcotest.(check bool) "run completed" true o.completed;
  Alcotest.(check int) "one cell per (rank, column)"
    (16 * (o0.waves + 1))
    (Obs.Timeline_stream.cells st);
  (* With buckets >= extents the fold is lossless: the accumulator's
     timeline is the dense grid, bit for bit. *)
  Alcotest.(check bool) "bucket grid = dense grid" true
    (Obs.Timeline.equal ~tol:0.0 dense (Obs.Timeline_stream.to_timeline st));
  for col = 0 to o0.waves do
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "column %d compute total exact" col)
      (Obs.Timeline.column_total dense Obs.Timeline.Compute col)
      (Obs.Timeline_stream.column_total st Obs.Timeline.Compute col)
  done

let test_stream_bucketized () =
  let pg = Proc_grid.of_cores 16 in
  let app = sweep 16 in
  let costs = costs_for pg app in
  let waves =
    Sweeps.Schedule.nsweeps app.schedule
    * Tile.ntiles_int ~nz:app.grid.nz ~htile:app.htile
  in
  let st =
    Obs.Timeline_stream.create ~max_rank_buckets:4 ~max_wave_buckets:8
      ~ranks:16 ~waves ()
  in
  let o =
    Wrun.Batched.run ~cells:(Obs.Timeline_stream.sink st) ~domains:3 ~costs pg
      app
  in
  Alcotest.(check bool) "multi-domain run completed" true o.completed;
  Alcotest.(check int) "rank buckets clamped" 4
    (Obs.Timeline_stream.rank_buckets st);
  (* The bucket bounds partition the rank range. *)
  let covered = ref 0 in
  for b = 0 to Obs.Timeline_stream.rank_buckets st - 1 do
    let lo, hi = Obs.Timeline_stream.rank_bucket_bounds st b in
    Alcotest.(check bool) "bucket non-empty" true (lo <= hi);
    covered := !covered + (hi - lo + 1)
  done;
  Alcotest.(check int) "rank buckets partition the ranks" 16 !covered;
  let lo, hi =
    Obs.Timeline_stream.wave_bucket_bounds st
      (Obs.Timeline_stream.wave_buckets st)
  in
  Alcotest.(check (pair int int)) "epilogue bucket is its own" (waves, waves)
    (lo, hi);
  let jb = Buffer.create 256 in
  Obs.Timeline_stream.emit_json ~label:"test" st (Buffer.add_string jb);
  let head = "{\"schema\":\"wavefront-timeline-stream/v1\"" in
  Alcotest.(check string) "JSON schema leads the document" head
    (String.sub (Buffer.contents jb) 0 (String.length head));
  (* Chunked emission: at full bucket resolution the 16 * (waves + 1)
     populated rows exceed the flush threshold, so the writer is called
     many times — never with one monolithic string. *)
  let full =
    Obs.Timeline_stream.create ~ranks:16 ~waves ()
  in
  ignore
    (Wrun.Batched.run ~cells:(Obs.Timeline_stream.sink full) ~costs pg app);
  let json_chunks = ref 0 in
  Obs.Timeline_stream.emit_json ~label:"full" full (fun _ -> incr json_chunks);
  Alcotest.(check bool) "JSON emitted in chunks" true (!json_chunks > 1);
  let cb = Buffer.create 256 in
  Obs.Timeline_stream.emit_csv st (Buffer.add_string cb);
  let rows =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (Buffer.contents cb))
  in
  Alcotest.(check bool) "CSV has a header and bucket rows" true
    (List.length rows > 1);
  (* Out-of-range cells are rejected, not silently folded. *)
  Alcotest.check_raises "out-of-range rank rejected"
    (Invalid_argument "Timeline_stream.sink: cell out of range") (fun () ->
      Obs.Timeline_stream.sink st ~rank:99 ~col:0 (Obs.Timeline.zero_cell 0.0))

(* --- The SoA event heap --- *)

let test_heap_ordering () =
  let h = Xtsim.Heap.create () in
  Alcotest.(check bool) "fresh heap empty" true (Xtsim.Heap.is_empty h);
  Alcotest.check_raises "top_time on empty raises"
    (Invalid_argument "Heap.top_time: empty") (fun () ->
      ignore (Xtsim.Heap.top_time h));
  (* Equal times pop in insertion order; the growth path (past the initial
     capacity) preserves the ordering invariant. *)
  let n = 1000 in
  let entries =
    List.init n (fun i ->
        let time = float_of_int ((i * 7919) mod 97) in
        (time, i))
  in
  List.iter (fun (time, seq) -> Xtsim.Heap.push h ~time ~seq (time, seq)) entries;
  Alcotest.(check int) "all queued" n (Xtsim.Heap.length h);
  let sorted = List.sort compare entries in
  List.iter
    (fun expected ->
      let t = Xtsim.Heap.top_time h in
      let v = Xtsim.Heap.pop_top h in
      Alcotest.(check (float 0.0)) "top_time = popped time" (fst v) t;
      Alcotest.(check (pair (float 0.0) int)) "pop order (time, then seq)"
        expected v)
    sorted;
  Alcotest.(check bool) "drained" true (Xtsim.Heap.is_empty h)

let test_heap_compat () =
  (* The allocating entry API stays coherent with the SoA fast path. *)
  let h = Xtsim.Heap.create () in
  Xtsim.Heap.push h ~time:2.0 ~seq:0 "b";
  Xtsim.Heap.push h ~time:1.0 ~seq:1 "a";
  (match Xtsim.Heap.peek h with
  | Some e ->
      Alcotest.(check (float 0.0)) "peek time" 1.0 e.Xtsim.Heap.time;
      Alcotest.(check string) "peek value" "a" e.Xtsim.Heap.value
  | None -> Alcotest.fail "peek on non-empty");
  (match Xtsim.Heap.pop h with
  | Some e -> Alcotest.(check string) "pop entry value" "a" e.Xtsim.Heap.value
  | None -> Alcotest.fail "pop on non-empty");
  Alcotest.(check string) "remaining element" "b" (Xtsim.Heap.pop_top h);
  Alcotest.(check bool) "pop on empty" true (Xtsim.Heap.pop h = None)

(* --- Random differential property --- *)

let qcheck_differential =
  QCheck.Test.make ~count:8
    ~name:"batched = event = domains-sharded on random configurations"
    QCheck.(
      triple
        (QCheck.make (QCheck.Gen.oneofl [ 4; 9; 16; 64; 256 ]))
        (QCheck.make (QCheck.Gen.oneofl [ 12; 16; 20 ]))
        (pair (int_range 0 1000) (int_range 0 3)))
    (fun (cores, nz, (seed, kind)) ->
      let pg = Proc_grid.of_cores cores in
      let app = sweep_waves nz in
      let costs = costs_for pg app in
      let perturb =
        match kind with
        | 0 -> None
        | 1 -> Some (spec (Printf.sprintf "seed=%d noise=uniform:0.2" seed))
        | 2 -> Some (spec (Printf.sprintf "seed=%d straggler=1:150" seed))
        | _ -> Some (spec (Printf.sprintf "seed=%d pulse=0:10:300" seed))
      in
      let ob, tl_cells = Wrun.Batched.run_timeline ?perturb ~costs pg app in
      let _, tl_ev = event_timeline ?perturb ~waves:ob.waves pg app in
      let od, tl_dom =
        Wrun.Batched.run_timeline ?perturb ~domains:2 ~costs pg app
      in
      Obs.Timeline.equal ~tol:1e-6 tl_ev tl_cells
      && Obs.Timeline.equal ~tol:0.0 tl_cells tl_dom
      && od.elapsed = ob.elapsed)

let suite =
  [
    ( "batched.identity",
      [
        Alcotest.test_case "clean run: batched = event simulator" `Quick
          test_clean_identity;
        Alcotest.test_case "batched = event simulator" `Quick
          test_event_identity;
        Alcotest.test_case "perturbed and recovering runs" `Quick
          test_perturbed_identities;
        Alcotest.test_case "recovery outcome matches the event simulator"
          `Quick test_recovery_matches_event;
        QCheck_alcotest.to_alcotest qcheck_differential;
        Alcotest.test_case "epilogue golden from the timed replay" `Quick
          test_epilogue_golden;
      ] );
    ( "batched.domains",
      [
        Alcotest.test_case "bitwise determinism across domain counts" `Quick
          test_domain_determinism;
      ] );
    ( "batched.scale",
      [
        Alcotest.test_case "event engine rank ceiling" `Quick
          test_rank_ceiling;
        Alcotest.test_case "streaming accumulator lossless" `Quick
          test_stream_lossless;
        Alcotest.test_case "streaming accumulator bucketized" `Quick
          test_stream_bucketized;
      ] );
    ( "batched.heap",
      [
        Alcotest.test_case "SoA ordering and growth" `Quick test_heap_ordering;
        Alcotest.test_case "entry API compatibility" `Quick test_heap_compat;
      ] );
  ]
