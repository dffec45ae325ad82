(* Host fingerprint and a fixed calibration kernel, recorded with every
   run so runs from different hosts or toolchains are never compared. *)

let first_line_with prefix path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let n = String.length prefix in
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | l when String.length l >= n && String.sub l 0 n = prefix -> Some l
            | _ -> scan ()
          in
          scan ())

let cpu_model () =
  match first_line_with "model name" "/proc/cpuinfo" with
  | Some l -> (
      match String.index_opt l ':' with
      | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
      | None -> "unknown")
  | None -> "unknown"

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (String.trim (input_line ic)))

(* The commit of a git checkout in the working directory, read from
   [.git] directly so nothing outside the directory is consulted. *)
let git_commit () =
  let packed r =
    match open_in ".git/packed-refs" with
    | exception Sys_error _ -> "unknown"
    | ic ->
        (* lines "<commit> <ref name>" *)
        let rec scan () =
          match String.split_on_char ' ' (input_line ic) with
          | [ c; name ] when name = r -> c
          | _ -> scan ()
          | exception End_of_file -> "unknown"
        in
        Fun.protect ~finally:(fun () -> close_in ic) scan
  in
  match read_file ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" r) with Some c -> c | None -> packed r)
  | Some c -> c
  | None -> "none"

(* A fixed integer and floating-point loop; its median time over five
   runs scales the host's single-core speed. *)
let calibration_ms () =
  let kernel () =
    let x = ref 0x2545F491 and acc = ref 0.0 in
    for _ = 1 to 4_000_000 do
      x := !x lxor (!x lsl 13) land 0xFFFFFFFF;
      x := !x lxor (!x lsr 17);
      x := !x lxor (!x lsl 5) land 0xFFFFFFFF;
      acc := !acc +. sqrt (float_of_int (!x land 0xFFFF))
    done;
    !acc
  in
  let time () =
    let t0 = Obs.Clock.monotonic () in
    ignore (Sys.opaque_identity (kernel ()));
    (Obs.Clock.monotonic () -. t0) /. 1e3
  in
  ignore (time ());
  Bench_stats.Stats.median (Array.init 5 (fun _ -> time ()))

type t = { nproc : int; cpu : string; ocaml : string; commit : string; calib_ms : float }

let fingerprint () =
  {
    nproc = Domain.recommended_domain_count ();
    cpu = cpu_model ();
    ocaml = Sys.ocaml_version;
    commit = git_commit ();
    calib_ms = calibration_ms ();
  }

let to_json h =
  Obs.Json.Obj
    [
      ("nproc", Num (float_of_int h.nproc));
      ("cpu", Str h.cpu);
      ("ocaml", Str h.ocaml);
      ("commit", Str h.commit);
      ("calibration_ms", Num h.calib_ms);
    ]

(* Calibration times within this share are the same host speed. *)
let calib_tolerance = 0.25

(* Why two runs may not be compared, if they may not. The commit is what
   a comparison is for, so it is not part of the host. *)
let incompatible a b =
  if a.nproc <> b.nproc then Some (Printf.sprintf "nproc %d vs %d" a.nproc b.nproc)
  else if a.cpu <> b.cpu then Some (Printf.sprintf "cpu %S vs %S" a.cpu b.cpu)
  else if a.ocaml <> b.ocaml then Some (Printf.sprintf "ocaml %s vs %s" a.ocaml b.ocaml)
  else if Float.abs (a.calib_ms -. b.calib_ms) > calib_tolerance *. Float.min a.calib_ms b.calib_ms
  then Some (Printf.sprintf "calibration %.2f ms vs %.2f ms" a.calib_ms b.calib_ms)
  else None

let of_json j =
  let module J = Obs.Json in
  {
    nproc = int_of_float (J.get_num "nproc" (J.member "nproc" j));
    cpu = J.get_str "cpu" (J.member "cpu" j);
    ocaml = J.get_str "ocaml" (J.member "ocaml" j);
    commit = J.get_str "commit" (J.member "commit" j);
    calib_ms = J.get_num "calibration_ms" (J.member "calibration_ms" j);
  }
