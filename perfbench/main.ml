(* perfbench: the repository benchmark. See README.md beside this file.

   main.exe --workload W --seed N --seconds S --trace 0|1
   main.exe compare RUN_A.json RUN_B.json *)

open Perfbench

let workloads = [ "predict"; "sweep"; "simulate" ]
let out_dir = Filename.concat "perfbench" "out"
let daemon_exe = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "main.exe"))

let max_trace_spans = 20_000  (* client request spans written to a trace file *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1\n       main.exe compare RUN_A.json RUN_B.json");
  exit 2

let run ~workload ~seed ~seconds ~trace =
  let host = Host.fingerprint () in
  Printf.printf "host: nproc %d, cpu %s, ocaml %s, commit %s, calibration %.3f ms\n%!" host.nproc
    host.cpu host.ocaml host.commit host.calib_ms;
  let serve kind =
    if not (Sys.file_exists daemon_exe) then begin
      prerr_endline ("perfbench: daemon binary missing: " ^ daemon_exe);
      exit 2
    end;
    Out.ensure_dir out_dir;
    let log = Filename.concat out_dir "serve.log" in
    let p = Serve_load.pool kind ~seed in
    if trace then Serve_load.traced ~exe:daemon_exe ~log ~seconds p
    else Serve_load.untraced ~exe:daemon_exe ~log ~seconds p
  in
  let r : Out.result =
    match workload with
    | "predict" -> serve Serve_load.Predict
    | "sweep" -> serve Serve_load.Sweep
    | "simulate" ->
        if trace then Engine_load.traced ~seed ~seconds else Engine_load.untraced ~seed ~seconds
    | _ -> usage ()
  in
  Printf.printf "negative control (one perturbed result) counted as failed: %b\n" r.control_ok;
  let json_metrics = if trace then Layers.complete r.json_metrics else r.json_metrics in
  if trace then begin
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
    (* every span feeds the metrics; the file keeps the earliest client
       request spans, so a predict trace stays a few megabytes, and all
       the others *)
    let client, others = List.partition (fun (s : Obs.Span.t) -> s.cat = "serve") r.spans in
    let client = List.filteri (fun i _ -> i < max_trace_spans) (List.sort Obs.Span.compare_start client) in
    let kept = client @ others in
    Out.ensure_dir out_dir;
    Out.write_file path
      (Obs.Chrome_trace.to_json [ { pid = 0; name = "perfbench " ^ workload; spans = kept } ]);
    Printf.printf "chrome trace: %s (%d of %d spans)\n" path (List.length kept) (List.length r.spans)
  end;
  Out.finish ~dir:out_dir ~workload ~seed ~trace ~host
    ~report:(if trace then json_metrics else r.report)
    ~json_metrics ~attempted:r.attempted ~failed:r.failed
    ~correct:(r.failed = 0 && r.control_ok && r.attempted > 0)
    ~properties:(("calibration_end_ms", Host.calibration_ms ()) :: r.properties)

(* Compare two run records; refuse when they come from different hosts. *)
let compare_runs a b =
  let load path =
    let ic = open_in path in
    let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
    Obs.Json.of_string s
  in
  let ja = load a and jb = load b in
  let host j = Host.of_json (Option.get (Obs.Json.member "host" j)) in
  match Host.incompatible (host ja) (host jb) with
  | Some why ->
      Printf.printf "refusing to compare: host fingerprints differ (%s)\n" why;
      exit 3
  | None ->
      let metrics j =
        match Obs.Json.member "metrics" j with Some (Obs.Json.Obj kv) -> kv | _ -> []
      in
      let value v = Obs.Json.get_num "value" (Obs.Json.member "value" v) in
      List.iter
        (fun (name, va) ->
          match List.assoc_opt name (metrics jb) with
          | Some vb ->
              let x = value va and y = value vb in
              Printf.printf "%-34s %16.6g %16.6g %+8.2f%%\n" name x y
                (if x = 0.0 then 0.0 else 100.0 *. (y -. x) /. x)
          | None -> ())
        (metrics ja)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | [ _; "compare"; a; b ] -> compare_runs a b
  | _ :: args ->
      let rec parse acc = function
        | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
            parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
      let workload = get "workload" in
      if not (List.mem workload workloads) then usage ();
      let seconds = float_of_int (int "seconds") in
      if seconds <= 0.0 then usage ();
      let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
      run ~workload ~seed:(int "seed") ~seconds ~trace
  | [] -> usage ()
