(* The predict and sweep workloads: closed-loop loopback traffic into a
   real [wavefront serve] daemon, two connections (one per core of the
   reference host), daemon at its default settings. *)

open Out

type kind = Predict | Sweep

let conns = 2
let setups = 3

type pool = {
  kind : kind;
  bodies : string array;
  points : int array;  (** model points each request evaluates *)
  cores : float array;  (** core count of every point of the pool *)
  shared : float;  (** share of points repeating an earlier (htile, grid) *)
  sweeps : Gen.sweep array;  (** the sweep requests; empty for predict *)
}

let pool kind ~seed =
  match kind with
  | Predict ->
      let p = Gen.predict_pool ~seed in
      {
        kind;
        bodies = Array.map (fun (r : Gen.predict) -> r.p_body) p;
        points = Array.map (fun _ -> 1) p;
        cores = Array.map (fun (r : Gen.predict) -> float_of_int r.p_cores) p;
        shared = 0.0;
        sweeps = [||];
      }
  | Sweep ->
      let p = Gen.sweep_pool ~seed in
      let total = Array.fold_left (fun a (r : Gen.sweep) -> a + r.s_points) 0 p in
      let configs = Array.fold_left (fun a (r : Gen.sweep) -> a + r.s_configs) 0 p in
      {
        kind;
        bodies = Array.map (fun (r : Gen.sweep) -> r.s_body) p;
        points = Array.map (fun (r : Gen.sweep) -> r.s_points) p;
        cores =
          Array.of_list (List.concat_map (fun (r : Gen.sweep) -> List.map float_of_int r.s_cores) (Array.to_list p));
        shared = float_of_int (total - configs) /. float_of_int total;
        sweeps = p;
      }

let path = function Predict -> "/v1/predict" | Sweep -> "/v1/sweep"

(* Warm-up: a fixed, seed-independent request stream, so that set-up time
   does not depend on the seed. *)
let warm ~port kind =
  let body, count = match kind with Predict -> (Gen.warm_predict, 3000) | Sweep -> (Gen.warm_sweep, 6) in
  ignore
    (Loopback.closed_loop ~max_requests:count ~port ~conns ~duration_s:60.0 ~path:(path kind) [| body |])

(* Spawn until [/readyz] answers, then warm; returns the daemon and the
   seconds that took. *)
let setup ~exe ~log kind =
  let t0 = Unix.gettimeofday () in
  let d = Loopback.start ~exe ~log in
  warm ~port:d.port kind;
  (d, Unix.gettimeofday () -. t0)

(* Throughput of a closed loop: each connection's count over its own busy
   span, summed, so the last in-flight request of one connection does not
   leave the other's tail idle in the denominator. *)
let rate ~start per_conn count =
  List.fold_left
    (fun acc (samples : Loopback.sample list) ->
      match List.rev samples with
      | [] -> acc
      | last :: _ ->
          acc +. (float_of_int (count samples) /. ((last.finished -. start) /. 1e6)))
    0.0 per_conn

let points_of p samples = List.fold_left (fun a (s : Loopback.sample) -> a + p.points.(s.idx)) 0 samples

let latencies_ms samples =
  Array.of_list (List.map (fun (s : Loopback.sample) -> (s.finished -. s.t0) /. 1e3) samples)

let tail_name = function Predict -> "p99_ms" | Sweep -> "p90_ms"

(* Requests and points per second, median and tail latency, the tail at
   a percentile with well over ten samples beyond it.

   Sweep answers about ten requests a second; all four come from the
   whole window. Predict answers thousands a second and is what a shared
   host disturbs most: while the hypervisor steals a fifth of the guest's
   CPU time, its throughput halves. Predict is therefore cut into
   one-second slices and reports its better quarter: the upper quartile
   of slice throughput and the lower quartile of slice p50 and p99, which
   hold still while disturbed slices come and go. *)
let headline p ~seconds ~start per_conn =
  let samples = List.concat per_conn in
  match p.kind with
  | Sweep ->
      let lat = latencies_ms samples in
      (rate ~start per_conn List.length, rate ~start per_conn (points_of p), median lat, quantile lat 0.90)
  | Predict ->
      let slices = Array.make (int_of_float seconds) [] in
      List.iter
        (fun (s : Loopback.sample) ->
          let k = int_of_float ((s.finished -. start) /. 1e6) in
          if k < Array.length slices then slices.(k) <- s :: slices.(k))
        samples;
      let per_slice f = Array.of_list (List.filter_map f (Array.to_list slices)) in
      let rps = quantile (per_slice (fun l -> Some (float_of_int (List.length l)))) 0.75 in
      let lat q l = if List.length l >= 100 then Some (quantile (latencies_ms l) q) else None in
      (rps, rps, quantile (per_slice (lat 0.5)) 0.25, quantile (per_slice (lat 0.99)) 0.25)

(* Verify every response; the negative control must fail. *)
let verify p samples =
  let checker, field =
    match p.kind with
    | Predict -> ((fun i -> Check.predict_checker p.bodies.(i)), "t_iteration")
    | Sweep -> ((fun i -> Check.sweep_checker p.bodies.(i)), "total")
  in
  let failed = Check.responses ~checker samples in
  let control =
    match List.find_opt (fun (s : Loopback.sample) -> Loopback.status s.response = 200) samples with
    | None -> false
    | Some s -> (
        match Check.perturb s.response field with
        | None -> false
        | Some bad -> Check.responses ~checker [ { s with response = bad } ] = 1)
  in
  (failed, control)

(* --- /metrics scrape ------------------------------------------------ *)

type scrape = { counters : (string * float) list; buckets : (float * float) list }

let scrape ~port =
  let text = Loopback.body (Loopback.get ~port "/metrics") in
  let counters = ref [] and buckets = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; v ] when String.length name > 0 && name.[0] <> '#' -> (
          let v = float_of_string_opt v in
          let bucket = "serve_latency_us_bucket{le=\"" in
          let bl = String.length bucket in
          match v with
          | None -> ()
          | Some v ->
              if String.length name > bl && String.sub name 0 bl = bucket then begin
                let le = String.sub name bl (String.length name - bl - 2) in
                let le = if le = "+Inf" then infinity else float_of_string le in
                buckets := (le, v) :: !buckets
              end
              else counters := (name, v) :: !counters)
      | _ -> ())
    (String.split_on_char '\n' text);
  { counters = !counters; buckets = List.sort compare !buckets }

let counter s name = Option.value (List.assoc_opt name s.counters) ~default:0.0

(* Cumulative count at [le] from the occupied buckets of a scrape. *)
let cumulative s le =
  List.fold_left (fun acc (b, c) -> if b <= le then Float.max acc c else acc) 0.0 s.buckets

(* Median daemon-side latency over the observations made between each
   (before, after) pair of scrapes: the upper bound of the first bucket
   holding half of them. *)
let daemon_p50 pairs =
  let added le = List.fold_left (fun a (b, x) -> a +. cumulative x le -. cumulative b le) 0.0 pairs in
  let total = added infinity in
  let les = List.sort_uniq compare (List.concat_map (fun (_, x) -> List.map fst x.buckets) pairs) in
  match List.find_opt (fun le -> added le >= 0.5 *. total) les with
  | Some le when total > 0.0 && Float.is_finite le -> le
  | _ -> 0.0

(* --- the run -------------------------------------------------------- *)

let cores_buckets =
  [
    ("<2^6", 0.0, 64.0);
    ("2^6..2^8", 64.0, 256.0);
    ("2^8..2^10", 256.0, 1024.5);
    ("2^10..2^14", 1024.5, 16384.0);
    (">=2^14", 16384.0, infinity);
  ]

let properties p sent =
  let cores =
    match p.kind with
    | Predict -> Array.of_list (List.map (fun (s : Loopback.sample) -> p.cores.(s.idx)) sent)
    | Sweep -> p.cores
  in
  let sh = shares cores cores_buckets in
  pp_shares "cores (share of points)" sh;
  if p.kind = Sweep then
    Printf.printf "property api.shared_config_frac: %.4f (points whose (htile, grid) repeats in the request)\n"
      p.shared;
  List.map (fun (k, v) -> ("cores " ^ k, v)) sh @ [ ("api.shared_config_frac", p.shared) ]

let untraced ~exe ~log ~seconds p =
  let runs = List.init setups (fun _ -> setup ~exe ~log p.kind) in
  List.iteri (fun i (d, _) -> if i < setups - 1 then Loopback.stop d) runs;
  let d, _ = List.nth runs (setups - 1) in
  let setup_s = median (Array.of_list (List.map snd runs)) in
  let start, per_conn =
    Loopback.closed_loop ~port:d.port ~conns ~duration_s:seconds ~path:(path p.kind) p.bodies
  in
  let rss = Loopback.vm_hwm_mb d.pid in
  Loopback.stop d;
  let samples = List.concat per_conn in
  let rps, pps, p50, tail = headline p ~seconds ~start per_conn in
  let failed, control_ok = verify p samples in
  let json_metrics =
    [
      m "setup_s" "s" setup_s;
      m "requests_per_s" "1/s" rps;
      m "work_per_s" "1/s" pps;
      m "p50_ms" "ms" p50;
      m "tail_ms" "ms" tail;
      m "peak_rss_mb" "MB" rss;
    ]
  in
  let report =
    [ m "setup_s" "s" setup_s; m "requests_per_s" "1/s" rps ]
    @ (if p.kind = Sweep then [ m "points_per_s" "1/s" pps ] else [])
    @ [
        m "p50_ms" "ms" p50;
        m (tail_name p.kind) "ms" tail;
        m "peak_rss_mb" "MB" rss;
        m "samples" "count" (float_of_int (List.length samples));
      ]
  in
  {
    json_metrics;
    report;
    properties = properties p samples;
    attempted = List.length samples;
    failed;
    control_ok;
    spans = [];
  }

(* Connections per request: a response announcing [Connection: close]
   used its connection for that request alone, as every response does
   until the daemon keeps connections alive. *)
let conns_per_request samples =
  let closing = List.filter (fun (s : Loopback.sample) -> Loopback.closes_connection s.response) samples in
  float_of_int (List.length closing) /. float_of_int (max 1 (List.length samples))

let p_us samples q f = quantile (Array.of_list (List.map f samples)) q

(* Untraced and traced quarters alternate, so drift over the run does not
   read as tracing overhead. Traced quarters record one client span per
   request phase and are bracketed by /metrics scrapes. The run's own
   bodies are then replayed in process through the public API. *)
let traced ~exe ~log ~seconds p =
  let d, _ = setup ~exe ~log p.kind in
  let quarter traced =
    let tracers = Array.init conns (fun _ -> Obs.Tracer.create ~capacity:65536 ()) in
    let before = scrape ~port:d.port in
    let start, per_conn =
      Loopback.closed_loop
        ?tracers:(if traced then Some tracers else None)
        ~port:d.port ~conns ~duration_s:(seconds /. 4.0)
        ~path:(path p.kind) p.bodies
    in
    let after = scrape ~port:d.port in
    (rate ~start per_conn List.length, List.concat per_conn, (before, after), tracers)
  in
  let segments = List.map quarter [ false; true; false; true ] in
  Loopback.stop d;
  let plain = List.filteri (fun i _ -> i mod 2 = 0) segments
  and traced = List.filteri (fun i _ -> i mod 2 = 1) segments in
  let all = List.concat_map (fun (_, s, _, _) -> s) segments in
  let failed, control_ok = verify p all in
  let t = List.concat_map (fun (_, s, _, _) -> s) traced in
  let mean_rate l = mean (Array.of_list (List.map (fun (r, _, _, _) -> r) l)) in
  let overhead = 100.0 *. ((mean_rate plain /. mean_rate traced) -. 1.0) in
  let pairs = List.map (fun (_, _, pair, _) -> pair) traced in
  let delta name = List.fold_left (fun a (b, x) -> a +. counter x name -. counter b name) 0.0 pairs in
  let d_req = delta "serve_requests_total" in
  let frac name = if d_req > 0.0 then delta name /. d_req else 0.0 in
  let serve =
    [
      m "serve.connect_us_p50" "us" (p_us t 0.5 (fun s -> s.connected -. s.t0));
      m "serve.ttfb_us_p50" "us" (p_us t 0.5 (fun s -> s.first_byte -. s.connected));
      m "serve.ttfb_us_p99" "us" (p_us t 0.99 (fun s -> s.first_byte -. s.connected));
      m "serve.read_us_p50" "us" (p_us t 0.5 (fun s -> s.finished -. s.first_byte));
      m "serve.daemon_latency_us_p50" "us" (daemon_p50 pairs);
      m "serve.conns_per_request" "count" (conns_per_request t);
      m "serve.shed_frac" "fraction" (frac "serve_shed_total");
      m "serve.timeout_frac" "fraction" (frac "serve_timeout_total");
      m "serve.response_bytes" "bytes"
        (mean (Array.of_list (List.map (fun (s : Loopback.sample) -> float_of_int (String.length s.response)) t)));
    ]
  in
  let tr = Layers.tracer () in
  let layers =
    match p.kind with
    | Predict -> Layers.predict tr p.bodies
    | Sweep -> Layers.sweep tr p.sweeps ~shared:p.shared
  in
  {
    json_metrics = serve @ layers @ [ m "bench.trace_overhead_pct" "%" overhead ];
    report = [];
    properties = properties p all;
    attempted = List.length all;
    failed;
    control_ok;
    spans = List.concat_map (fun (_, _, _, trs) -> Obs.Tracer.merge trs) traced @ Obs.Tracer.spans tr;
  }
