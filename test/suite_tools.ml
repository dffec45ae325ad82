(* Tests for the tooling around the model: spec files, the scenario the
   CLI and the HTTP API share, the explanation worksheet, and sensitivity
   analysis. *)

open Wavefront_core

let xt4 = Loggp.Params.xt4

(* --- Spec files --- *)

let full_spec =
  {|
# an imaginary code
name = hydra
nx = 480
ny = 480
nz = 320
wg = 1.4
wg_pre = 0.15
htile = 2
nsweeps = 4
nfull = 2
ndiag = 1
bytes_per_cell = 96
iterations = 200
nonwavefront = allreduce 2
|}

let test_spec_parses () =
  match Apps.Spec.of_string full_spec with
  | Error (`Msg m) -> Alcotest.fail m
  | Ok app ->
      Alcotest.(check string) "name" "hydra" app.App_params.name;
      Alcotest.(check int) "cells" (480 * 480 * 320)
        (Wgrid.Data_grid.cells app.grid);
      Alcotest.(check (float 1e-9)) "wg" 1.4 app.wg;
      Alcotest.(check (float 1e-9)) "wg_pre" 0.15 app.wg_pre;
      Alcotest.(check (float 1e-9)) "htile" 2.0 app.htile;
      Alcotest.(check int) "iterations" 200 app.iterations;
      let c = App_params.counts app in
      Alcotest.(check int) "nsweeps" 4 c.nsweeps;
      Alcotest.(check int) "nfull" 2 c.nfull;
      Alcotest.(check int) "ndiag" 1 c.ndiag;
      (match app.nonwavefront with
      | Allreduce { count = 2; _ } -> ()
      | _ -> Alcotest.fail "expected 2 all-reduces")

let test_spec_minimal () =
  match Apps.Spec.of_string "nx=8\nny=8\nnz=8\nwg=1.0" with
  | Error (`Msg m) -> Alcotest.fail m
  | Ok app ->
      Alcotest.(check (float 1e-9)) "default htile" 1.0 app.App_params.htile;
      Alcotest.(check int) "default iterations" 1 app.App_params.iterations

let expect_error ~substr spec =
  match Apps.Spec.of_string spec with
  | Ok _ -> Alcotest.fail ("expected an error mentioning " ^ substr)
  | Error (`Msg m) ->
      let contains () =
        let n = String.length substr and h = String.length m in
        let rec go i = i + n <= h && (String.sub m i n = substr || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (m ^ " mentions " ^ substr) true (contains ())

let test_spec_errors () =
  expect_error ~substr:"missing required" "nx=8\nny=8\nnz=8";
  expect_error ~substr:"unknown key" "nx=8\nny=8\nnz=8\nwg=1\nbogus=3";
  expect_error ~substr:"expected an integer" "nx=eight\nny=8\nnz=8\nwg=1";
  expect_error ~substr:"KEY = VALUE" "nx=8\nny=8\nnz=8\nwg=1\nnot a binding";
  expect_error ~substr:"nonwavefront"
    "nx=8\nny=8\nnz=8\nwg=1\nnonwavefront=sometimes";
  expect_error ~substr:"stencil"
    "nx=8\nny=8\nnz=8\nwg=1\nnonwavefront = stencil x y"

let test_spec_schedule () =
  (match
     Apps.Spec.of_string "nx=8\nny=8\nnz=8\nwg=1\nschedule = chimaera"
   with
  | Ok app ->
      let c = App_params.counts app in
      Alcotest.(check int) "chimaera nsweeps" 8 c.nsweeps;
      Alcotest.(check bool) "same sweeps as preset" true
        (Sweeps.Schedule.sweeps app.App_params.schedule
        = Sweeps.Schedule.sweeps Sweeps.Schedule.chimaera)
  | Error (`Msg m) -> Alcotest.fail m);
  expect_error ~substr:"schedule"
    "nx=8\nny=8\nnz=8\nwg=1\nschedule = zigzag";
  expect_error ~substr:"conflicts"
    "nx=8\nny=8\nnz=8\nwg=1\nschedule = lu\nnsweeps = 4"

let test_spec_allreduce_bytes () =
  (match
     Apps.Spec.of_string "nx=8\nny=8\nnz=8\nwg=1\nnonwavefront=allreduce 3 256"
   with
  | Ok app -> (
      match app.App_params.nonwavefront with
      | Allreduce { count; msg_size } ->
          Alcotest.(check int) "count" 3 count;
          Alcotest.(check int) "msg_size" 256 msg_size
      | _ -> Alcotest.fail "expected allreduce")
  | Error (`Msg m) -> Alcotest.fail m);
  (* The two-token form still defaults to 8-byte messages. *)
  (match
     Apps.Spec.of_string "nx=8\nny=8\nnz=8\nwg=1\nnonwavefront=allreduce 3"
   with
  | Ok app -> (
      match app.App_params.nonwavefront with
      | Allreduce { count = 3; msg_size = 8 } -> ()
      | _ -> Alcotest.fail "expected allreduce 3 x 8B")
  | Error (`Msg m) -> Alcotest.fail m);
  expect_error ~substr:"all-reduce"
    "nx=8\nny=8\nnz=8\nwg=1\nnonwavefront=allreduce 3 none"

let test_spec_stencil_and_fixed () =
  (match Apps.Spec.of_string "nx=8\nny=8\nnz=8\nwg=1\nnonwavefront=stencil 0.1 40" with
  | Ok app -> (
      match app.App_params.nonwavefront with
      | Stencil { wg_stencil; halo_bytes_per_cell } ->
          Alcotest.(check (float 1e-9)) "wg_stencil" 0.1 wg_stencil;
          Alcotest.(check (float 1e-9)) "halo" 40.0 halo_bytes_per_cell
      | _ -> Alcotest.fail "expected stencil")
  | Error (`Msg m) -> Alcotest.fail m);
  match Apps.Spec.of_string "nx=8\nny=8\nnz=8\nwg=1\nnonwavefront=fixed 123.5" with
  | Ok app -> (
      match app.App_params.nonwavefront with
      | Fixed t -> Alcotest.(check (float 1e-9)) "fixed" 123.5 t
      | _ -> Alcotest.fail "expected fixed")
  | Error (`Msg m) -> Alcotest.fail m

(* --- Explain --- *)

let test_worksheet_renders () =
  let app = Apps.Chimaera.p240 () in
  (* 64 cores: 2400-byte faces, so the rendezvous path shows up. *)
  let cfg = Plugplay.config xt4 ~cores:64 in
  let s = Fmt.str "%a" (fun ppf () -> Explain.worksheet ppf app cfg) () in
  List.iter
    (fun needle ->
      let contains =
        let n = String.length needle and h = String.length s in
        let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("worksheet mentions " ^ needle) true contains)
    [ "W (r1b)"; "Tdiagfill"; "Tfullfill"; "Tstack"; "Titer"; "rendezvous" ]

(* --- Sensitivity --- *)

let test_elasticities_homogeneous () =
  (* The model is homogeneous of degree one in its time-like inputs, so the
     elasticities of Wg, Wg_pre, G, L and o must sum to ~1. *)
  List.iter
    (fun (app, cores) ->
      let cfg = Plugplay.config xt4 ~cores in
      let e input = Sensitivity.elasticity app cfg input in
      let sum =
        e Sensitivity.Wg +. e Wg_pre +. e G +. e L +. e O
      in
      Alcotest.check (Alcotest.float 0.02)
        (Fmt.str "%s @%d" app.App_params.name cores)
        1.0 sum)
    [ (Apps.Chimaera.p240 (), 1024); (Apps.Lu.class_e (), 4096);
      (Apps.Sweep3d.p20m (), 4096) ]

let test_wg_elasticity_tracks_compute_share () =
  let app = Apps.Chimaera.p240 () in
  let cfg = Plugplay.config xt4 ~cores:1024 in
  let c = Plugplay.components app cfg in
  let e = Sensitivity.elasticity app cfg Sensitivity.Wg in
  Alcotest.check (Alcotest.float 0.03) "e_Wg ~ compute share"
    (c.computation /. c.total) e

let test_sensitivity_shifts_with_scale () =
  (* Communication-bound configurations care about o and L; compute-bound
     ones about Wg. *)
  let app = Apps.Chimaera.p240 () in
  let e cores input =
    Sensitivity.elasticity app (Plugplay.config xt4 ~cores) input
  in
  Alcotest.(check bool) "Wg matters more at small P" true
    (e 1024 Sensitivity.Wg > e 32768 Sensitivity.Wg);
  Alcotest.(check bool) "o matters more at large P" true
    (e 32768 Sensitivity.O > e 1024 Sensitivity.O)

let test_analyze_covers_all_inputs () =
  let rows =
    Sensitivity.analyze (Apps.Sweep3d.p20m ()) (Plugplay.config xt4 ~cores:1024)
  in
  Alcotest.(check int) "all inputs" (List.length Sensitivity.all_inputs)
    (List.length rows);
  List.iter
    (fun (r : Sensitivity.row) ->
      Alcotest.(check bool)
        (Sensitivity.input_name r.input ^ " finite")
        true
        (Float.is_finite r.elasticity))
    rows

(* --- One scenario for the CLI, the HTTP API and the ledger --- *)

(* Under `dune runtest` the binary sits next to the test dir; under
   `dune exec` from the workspace root it sits in _build. *)
let main_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/main.exe"; "_build/default/bin/main.exe" ]

let with_temp f =
  let path = Filename.temp_file "wavefront_tools" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path = In_channel.with_open_text path In_channel.input_all

let test_config_hash_covers_every_input () =
  match main_exe () with
  | None -> ()
  | Some exe ->
      with_temp @@ fun ledger ->
      let predict args =
        Alcotest.(check int) ("predict " ^ args) 0
          (Sys.command
             (Printf.sprintf "%s predict -p 256 %s --ledger %s >/dev/null" exe
                args (Filename.quote ledger)))
      in
      let runs =
        [ ""; "--htile 8"; "--wg 3"; "--iterations 5"; "--htile 8 --wg 3" ]
      in
      List.iter predict runs;
      predict "";
      let hashes =
        match Obs.Ledger.load ~path:ledger () with
        | Ok (records, 0) ->
            List.map (fun (r : Obs.Ledger.t) -> r.config_hash) records
        | Ok (_, n) -> Alcotest.failf "%d malformed ledger lines" n
        | Error m -> Alcotest.fail m
      in
      let distinct = List.sort_uniq compare hashes in
      Alcotest.(check int) "one hash per distinct scenario"
        (List.length runs) (List.length distinct);
      Alcotest.(check string) "identical runs share a hash" (List.hd hashes)
        (List.nth hashes (List.length runs))

let test_cli_and_api_build_one_scenario () =
  let cli =
    match
      Apps.Scenario.v ~htile:2.0 ~wg:0.75 ~iterations:3 ~app:"chimaera"
        ~nx:96 ~ny:64 ~nz:48 ~platform:"red_storm" ~cores:384 ~cpn:4 ()
    with
    | Ok sc -> sc
    | Error m -> Alcotest.fail m
  in
  let body =
    {|{"app":{"name":"chimaera","nx":96,"ny":64,"nz":48,"wg":0.75,"htile":2,"iterations":3},"machine":{"platform":"red_storm","cores":384,"cores_per_node":4}}|}
  in
  let api =
    match Apps.Scenario.of_json `Predict (Obs.Json.of_string body) with
    | Ok sc -> sc
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "equal scenarios" true (cli = api);
  Alcotest.(check string) "equal digests" (Apps.Scenario.digest cli)
    (Apps.Scenario.digest api);
  let other = { cli with cores = 512 } in
  Alcotest.(check bool) "the digest moves with the cores" true
    (Apps.Scenario.digest other <> Apps.Scenario.digest cli);
  let served =
    match Serve.Api.parse_predict body with
    | Ok p -> (Plugplay.iteration p.app p.cfg).t_iteration
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check (float 0.0)) "bit-equal t_iteration"
    (Plugplay.iteration cli.app (Apps.Scenario.config cli)).t_iteration served

let test_cli_refuses_with_the_api_message () =
  let api_error ~app ~machine =
    let body =
      Printf.sprintf
        {|{"app":{"name":"sweep3d",%s},"machine":{"platform":"xt4",%s}}|} app
        machine
    in
    match Serve.Api.parse_predict body with
    | Ok _ -> Alcotest.failf "API accepted %s" body
    | Error m -> m
  in
  let cube = {|"nx":240,"ny":240,"nz":240|} in
  match main_exe () with
  | None -> ()
  | Some exe ->
      List.iter
        (fun (args, app, machine) ->
          with_temp @@ fun err ->
          let status =
            Sys.command
              (Printf.sprintf "%s predict %s --no-ledger >/dev/null 2>%s" exe
                 args (Filename.quote err))
          in
          Alcotest.(check int) (args ^ " exits 2") 2 status;
          Alcotest.(check string)
            (args ^ " says what the API says")
            ("wavefront: " ^ api_error ~app ~machine ^ "\n")
            (read_file err))
        [
          ("-p 0", cube, {|"cores":0,"cores_per_node":2|});
          ( "-g 0",
            {|"nx":0,"ny":0,"nz":0|},
            {|"cores":1024,"cores_per_node":2|} );
          ("--cores-per-node 99", cube, {|"cores":1024,"cores_per_node":99|});
        ]

let suite =
  [
    ( "tools.spec",
      [
        Alcotest.test_case "full spec parses" `Quick test_spec_parses;
        Alcotest.test_case "minimal spec + defaults" `Quick test_spec_minimal;
        Alcotest.test_case "errors are loud" `Quick test_spec_errors;
        Alcotest.test_case "stencil and fixed epilogues" `Quick
          test_spec_stencil_and_fixed;
        Alcotest.test_case "schedule presets" `Quick test_spec_schedule;
        Alcotest.test_case "allreduce message size" `Quick
          test_spec_allreduce_bytes;
      ] );
    ( "tools.scenario",
      [
        Alcotest.test_case "config hash covers htile, wg and iterations"
          `Quick test_config_hash_covers_every_input;
        Alcotest.test_case "CLI and API build one scenario" `Quick
          test_cli_and_api_build_one_scenario;
        Alcotest.test_case "CLI refuses bad ranges with the API message"
          `Quick test_cli_refuses_with_the_api_message;
      ] );
    ( "tools.explain",
      [ Alcotest.test_case "worksheet renders" `Quick test_worksheet_renders ]
    );
    ( "tools.sensitivity",
      [
        Alcotest.test_case "homogeneity: elasticities sum to 1" `Quick
          test_elasticities_homogeneous;
        Alcotest.test_case "Wg elasticity = compute share" `Quick
          test_wg_elasticity_tracks_compute_share;
        Alcotest.test_case "shifts with scale" `Quick
          test_sensitivity_shifts_with_scale;
        Alcotest.test_case "analyze covers inputs" `Quick
          test_analyze_covers_all_inputs;
      ] );
  ]
