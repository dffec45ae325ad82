(* What a run reports: human-readable lines, a run record under the output
   directory, and a last stdout line of one JSON object: [correct],
   [attempted], [failed] and [metrics]. *)

module J = Obs.Json

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* What one workload run measured and checked. *)
type result = {
  json_metrics : metric list;  (** the last line's metrics *)
  report : metric list;  (** the same run under per-workload names *)
  properties : (string * float) list;  (** workload property shares *)
  attempted : int;
  failed : int;
  control_ok : bool;  (** the negative control was counted as failed *)
  spans : Obs.Span.t list;  (** traced runs only *)
}

let quantile a q = if Array.length a = 0 then 0.0 else Bench_stats.Stats.quantile a q
let median a = quantile a 0.5
let mean a = if Array.length a = 0 then 0.0 else Bench_stats.Stats.mean a

(* Shares of [values] falling in each [lo, hi) bucket, for the workload
   property report. *)
let shares values buckets =
  let n = float_of_int (max 1 (Array.length values)) in
  List.map
    (fun (label, lo, hi) ->
      let c = Array.fold_left (fun acc v -> if v >= lo && v < hi then acc + 1 else acc) 0 values in
      (label, float_of_int c /. n))
    buckets

let pp_shares title l =
  Printf.printf "property %s: %s\n" title
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %.1f%%" k (100.0 *. v)) l))

let finite v = if Float.is_finite v then v else 0.0

let metrics_json ms =
  J.Obj
    (List.map
       (fun x -> (x.name, J.Obj [ ("value", J.Num (finite x.value)); ("unit", J.Str x.unit_) ]))
       ms)

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Print the report lines (per-workload names), save the run record, and
   end stdout with the JSON line carrying [json_metrics]. *)
let finish ~dir ~workload ~seed ~trace ~host ~report ~json_metrics ~attempted ~failed ~correct
    ~properties =
  List.iter (fun x -> Printf.printf "%-34s %18.6f %s\n" x.name x.value x.unit_) report;
  Printf.printf "%-34s %18.6f fraction (%d failed / %d attempted)\n" "error_rate"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  let record =
    J.Obj
      [
        ("schema", J.Str "wavefront-perfbench/v1");
        ("workload", J.Str workload);
        ("seed", J.Num (float_of_int seed));
        ("trace", J.Bool trace);
        ("host", Host.to_json host);
        ("correct", J.Bool correct);
        ("attempted", J.Num (float_of_int attempted));
        ("failed", J.Num (float_of_int failed));
        ("metrics", metrics_json json_metrics);
        ("report", metrics_json report);
        ("properties", J.Obj (List.map (fun (k, v) -> (k, J.Num (finite v))) properties));
      ]
  in
  ensure_dir dir;
  write_file
    (Filename.concat dir (Printf.sprintf "run-%s-seed%d-trace%d.json" workload seed (Bool.to_int trace)))
    (J.to_string record ^ "\n");
  print_string
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int attempted));
            ("failed", J.Num (float_of_int failed));
            ("metrics", metrics_json json_metrics);
          ]));
  print_newline ()
