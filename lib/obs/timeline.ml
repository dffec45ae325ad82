(* Per-rank x per-wave timeline analytics: reconstruct, from a flat span
   trace, where every rank's time went in every wave of the sweep pipeline.

   A "wave" is one global tile step: wave w = sweep * ntiles + tile, the
   granularity at which the paper's (r2)/(r4) recurrences advance. Substrates
   tag the spans they emit inside the tile loop with a ("wave", Int w) arg
   (wave -1 marks the non-wavefront epilogue); spans from layers that cannot
   know the wave (e.g. the shared-memory transport) are assigned by a
   program-order heuristic anchored on the tagged spans around them: a
   receive belongs to the wave of the next tagged span (its own tile's
   compute comes after it), anything else to the wave of the latest tagged
   span started at or before it.

   Each rank's run is then cut into contiguous windows, one per wave plus
   one epilogue column, and each window decomposed into

     compute | send | recv (pure) | wait (blocking) | other | idle

   where wait is the blocking share recorded on comm spans (their "wait"
   arg), idle is the window time covered by no span at all, and other is
   the exact remainder (collectives, halos, perturbation injections, span
   overlap corrections) — so the six buckets always sum to the window width
   and whole-timeline identities hold with no float leakage beyond
   summation order. *)

type cell = {
  t_start : float;
  t_end : float;
  compute : float;
  send : float;
  recv : float;  (** pure (uncontended) share of the receive spans *)
  wait : float;  (** blocking share of the comm spans ("wait" arg) *)
  other : float;  (** collectives, halos, perturbations, overlap *)
  idle : float;  (** window time covered by no span *)
  spans : int;
}

let cell_width c = c.t_end -. c.t_start
let cell_busy c = cell_width c -. c.idle

let zero_cell t =
  { t_start = t; t_end = t; compute = 0.0; send = 0.0; recv = 0.0;
    wait = 0.0; other = 0.0; idle = 0.0; spans = 0 }

type t = {
  ranks : int;
  waves : int;  (** wavefront columns; the epilogue is one extra column *)
  cells : cell array array;  (** [ranks] x [waves + 1]; last col = epilogue *)
  t0 : float;  (** earliest span start across ranks *)
  start : float array;  (** per-rank first span start *)
  finish : float array;  (** per-rank last span end *)
  dropped : int;  (** spans the producing tracer lost *)
}

let columns t = t.waves + 1
let epilogue_column t = t.waves
let cell t ~rank ~col = t.cells.(rank).(col)

let wave_arg = "wave"
let epilogue_wave = -1

(* --- wave assignment --- *)

(* Span kinds that precede their wave's compute in program order (Figure 4:
   pre-compute, then the two receives, then compute): an untagged one is
   pulled forward to the next anchor's wave. Everything else trails its
   wave's compute and takes the previous anchor's wave. *)
let leads_wave (s : Span.t) = s.name = "recv" || s.name = "precompute"

(* Epilogue operations by name, for traces whose producers tag nothing. *)
let epilogue_name (s : Span.t) =
  match s.name with
  | "allreduce" | "barrier" | "halo" | "stencil" -> true
  | _ -> false

(* Assign a wave to every span of one rank (spans in start order):
   explicit tag wins; otherwise interpolate between tagged anchors. *)
let assign_waves (spans : Span.t array) =
  let n = Array.length spans in
  let waves = Array.make n epilogue_wave in
  let anchors = ref [] in
  Array.iteri
    (fun i s ->
      match Span.arg_int s wave_arg with
      | Some w ->
          waves.(i) <- w;
          if w >= 0 then anchors := (s.Span.t_start, w) :: !anchors
      | None -> waves.(i) <- min_int)
    spans;
  let anchors = Array.of_list (List.rev !anchors) in
  let n_anchor = Array.length anchors in
  (* Last anchor index with start <= t (binary search; -1 if none). *)
  let anchor_at t =
    let lo = ref 0 and hi = ref (n_anchor - 1) and best = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if fst anchors.(mid) <= t then begin
        best := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    !best
  in
  Array.iteri
    (fun i s ->
      if waves.(i) = min_int then
        if n_anchor = 0 || epilogue_name s then waves.(i) <- epilogue_wave
        else begin
          let prev = anchor_at s.Span.t_start in
          let next = if prev + 1 < n_anchor then prev + 1 else -1 in
          waves.(i) <-
            (if leads_wave s then
               if next >= 0 then snd anchors.(next)
               else if prev >= 0 then snd anchors.(prev)
               else epilogue_wave
             else if prev >= 0 then snd anchors.(prev)
             else if next >= 0 then snd anchors.(next)
             else epilogue_wave)
        end)
    spans;
  waves

(* --- decomposition --- *)

(* Length of the union of span intervals clipped to [lo, hi]: the busy
   time, with nested/overlapping spans counted once. *)
let covered ~lo ~hi spans =
  let iv =
    List.filter_map
      (fun (s : Span.t) ->
        let a = Float.max lo s.t_start and b = Float.min hi (Span.end_time s) in
        if b > a then Some (a, b) else None)
      spans
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None iv

let wait_of (s : Span.t) =
  match Span.arg_float s "wait" with
  | Some w -> Float.min s.dur (Float.max 0.0 w)
  | None -> 0.0

let decompose ~lo ~hi spans =
  let compute = ref 0.0 and send = ref 0.0 and recv = ref 0.0 in
  let wait = ref 0.0 in
  List.iter
    (fun (s : Span.t) ->
      if s.cat = "compute" || s.name = "compute" || s.name = "precompute"
      then compute := !compute +. s.dur
      else
        match s.name with
        | "send" ->
            let w = wait_of s in
            send := !send +. (s.dur -. w);
            wait := !wait +. w
        | "recv" ->
            let w = wait_of s in
            recv := !recv +. (s.dur -. w);
            wait := !wait +. w
        | _ -> ())
    spans;
  let width = hi -. lo in
  let idle = Float.max 0.0 (width -. covered ~lo ~hi spans) in
  let other = width -. idle -. !compute -. !send -. !recv -. !wait in
  { t_start = lo; t_end = hi; compute = !compute; send = !send;
    recv = !recv; wait = !wait; other; idle; spans = List.length spans }

(* Spans that describe a whole rank rather than one operation (the real
   runtime wraps each domain's program in a "rank" span). *)
let structural (s : Span.t) = s.name = "rank" || s.cat = "rank"

(* A trace with no operation spans at all (empty, or structural-only)
   degrades to an empty report rather than an error, so the detector and
   `wavefront timeline` handle unperturbed or partial traces gracefully. *)
let empty ?(dropped = 0) ?waves () =
  let waves = match waves with Some w -> max w 0 | None -> 0 in
  { ranks = 0; waves; cells = [||]; t0 = 0.0; start = [||]; finish = [||];
    dropped }

let of_spans ?(dropped = 0) ?waves spans =
  let spans = List.filter (fun s -> not (structural s)) spans in
  let ranks =
    1 + List.fold_left (fun a (s : Span.t) -> max a s.Span.rank) (-1) spans
  in
  if ranks < 1 then empty ~dropped ?waves ()
  else begin
  let by_rank = Array.make ranks [] in
  List.iter
    (fun (s : Span.t) -> by_rank.(s.rank) <- s :: by_rank.(s.rank))
    spans;
  let by_rank =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort Span.compare_start a;
        a)
      by_rank
  in
  let assigned = Array.map assign_waves by_rank in
  let max_wave =
    Array.fold_left
      (fun acc ws -> Array.fold_left max acc ws)
      (-1) assigned
  in
  let waves =
    match waves with Some w -> max w (max_wave + 1) | None -> max_wave + 1
  in
  let start = Array.make ranks 0.0 and finish = Array.make ranks 0.0 in
  let cells =
    Array.init ranks (fun rank ->
        let rs = by_rank.(rank) in
        if Array.length rs = 0 then Array.init (waves + 1) (fun _ -> zero_cell 0.0)
        else begin
          start.(rank) <- rs.(0).Span.t_start;
          finish.(rank) <-
            Array.fold_left
              (fun a s -> Float.max a (Span.end_time s))
              (Span.end_time rs.(0))
              rs;
          (* Bucket the rank's spans by column (epilogue last). *)
          let buckets = Array.make (waves + 1) [] in
          Array.iteri
            (fun i s ->
              let w = assigned.(rank).(i) in
              let col = if w < 0 || w >= waves then waves else w in
              buckets.(col) <- s :: buckets.(col))
            rs;
          (* Contiguous windows: each column starts at its first span (or
             where the previous column ended) and runs to the next
             column's start; the last runs to the rank's finish. *)
          let first_start l =
            List.fold_left
              (fun acc (s : Span.t) ->
                match acc with
                | None -> Some s.Span.t_start
                | Some a -> Some (Float.min a s.Span.t_start))
              None l
          in
          let bounds = Array.make (waves + 2) nan in
          bounds.(0) <- start.(rank);
          for col = 1 to waves do
            bounds.(col) <-
              (match first_start buckets.(col) with
              | Some t -> Float.max t bounds.(col - 1)
              | None -> nan)
          done;
          bounds.(waves + 1) <- finish.(rank);
          (* Fill empty columns: their window collapses at the next known
             boundary, walking backwards. *)
          let next_known = ref finish.(rank) in
          for col = waves + 1 downto 0 do
            if Float.is_nan bounds.(col) then bounds.(col) <- !next_known
            else next_known := bounds.(col)
          done;
          Array.init (waves + 1) (fun col ->
              decompose ~lo:bounds.(col) ~hi:bounds.(col + 1) buckets.(col))
        end)
  in
  let t0 =
    Array.fold_left Float.min
      (if ranks > 0 then start.(0) else 0.0)
      start
  in
  { ranks; waves; cells; t0; start; finish; dropped }
  end

(* --- comparison (for cross-substrate identity tests) --- *)

let cell_equal ~tol a b =
  let f x y = Float.abs (x -. y) <= tol in
  f (cell_width a) (cell_width b)
  && f a.compute b.compute && f a.send b.send && f a.recv b.recv
  && f a.wait b.wait && f a.other b.other && f a.idle b.idle

let equal ?(tol = 1e-6) a b =
  a.ranks = b.ranks && a.waves = b.waves
  && Array.for_all2
       (fun ra rb -> Array.for_all2 (cell_equal ~tol) ra rb)
       a.cells b.cells

(* --- aggregate views --- *)

type metric = Compute | Send | Recv | Wait | Idle | Busy | Total

let metric_name = function
  | Compute -> "compute"
  | Send -> "send"
  | Recv -> "recv"
  | Wait -> "wait"
  | Idle -> "idle"
  | Busy -> "busy"
  | Total -> "total"

let metric_of_string = function
  | "compute" -> Some Compute
  | "send" -> Some Send
  | "recv" -> Some Recv
  | "wait" -> Some Wait
  | "idle" -> Some Idle
  | "busy" -> Some Busy
  | "total" -> Some Total
  | _ -> None

let metric_value m c =
  match m with
  | Compute -> c.compute
  | Send -> c.send
  | Recv -> c.recv
  | Wait -> c.wait
  | Idle -> c.idle
  | Busy -> cell_busy c
  | Total -> cell_width c

let rank_total t m rank =
  Array.fold_left (fun a c -> a +. metric_value m c) 0.0 t.cells.(rank)

let column_total t m col =
  let acc = ref 0.0 in
  for rank = 0 to t.ranks - 1 do
    acc := !acc +. metric_value m t.cells.(rank).(col)
  done;
  !acc

(* --- ASCII heatmap --- *)

let ramp = " .:-=+*#%@"

let shade ~vmax v =
  if vmax <= 0.0 then ramp.[0]
  else
    let i =
      int_of_float (Float.round (v /. vmax *. float_of_int (String.length ramp - 1)))
    in
    ramp.[max 0 (min (String.length ramp - 1) i)]

(* Downsample [n] source indices onto [m] display buckets (mean of the
   aggregated values), so big grids stay readable. *)
let bucketize n m =
  let m = min n m in
  Array.init m (fun b ->
      let lo = b * n / m and hi = ((b + 1) * n / m) - 1 in
      (lo, max lo hi))

let render ?(metric = Wait) ?(max_ranks = 32) ?(max_cols = 72) ?mark ppf t =
  let cols = columns t in
  let rbuckets = bucketize t.ranks max_ranks in
  let cbuckets = bucketize cols max_cols in
  (* Overlay: a marked source cell claims its display bucket's character
     (first mark in scan order wins), so detected features stay visible
     after downsampling. *)
  let mark_of rlo rhi clo chi =
    match mark with
    | None -> None
    | Some f ->
        let res = ref None in
        (try
           for r = rlo to rhi do
             for c = clo to chi do
               match f ~rank:r ~col:c with
               | Some ch ->
                   res := Some ch;
                   raise Exit
               | None -> ()
             done
           done
         with Exit -> ());
        !res
  in
  let value rlo rhi clo chi =
    let acc = ref 0.0 and n = ref 0 in
    for r = rlo to rhi do
      for c = clo to chi do
        acc := !acc +. metric_value metric t.cells.(r).(c);
        incr n
      done
    done;
    if !n = 0 then 0.0 else !acc /. float_of_int !n
  in
  let grid =
    Array.map
      (fun (rlo, rhi) ->
        Array.map (fun (clo, chi) -> value rlo rhi clo chi) cbuckets)
      rbuckets
  in
  let vmax = Array.fold_left (Array.fold_left Float.max) 0.0 grid in
  Format.fprintf ppf
    "@[<v>%s per (rank, wave) cell, us; scale '%s' = 0 .. '%c' = %.2f; \
     last column = epilogue@,"
    (metric_name metric) " " ramp.[String.length ramp - 1] vmax;
  Array.iteri
    (fun bi row ->
      let rlo, rhi = rbuckets.(bi) in
      let label =
        if rlo = rhi then Printf.sprintf "r%-5d" rlo
        else Printf.sprintf "r%d-%d" rlo rhi
      in
      Format.fprintf ppf "%-8s|" label;
      Array.iteri
        (fun ci v ->
          let clo, chi = cbuckets.(ci) in
          match mark_of rlo rhi clo chi with
          | Some ch -> Format.fprintf ppf "%c" ch
          | None -> Format.fprintf ppf "%c" (shade ~vmax v))
        row;
      Format.fprintf ppf "|@,")
    grid;
  Format.fprintf ppf "@]"

(* --- exports --- *)

let schema = "wavefront-timeline/v1"

let to_json ?(label = "") t =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"schema\":\"%s\",\"label\":" schema;
  Json.add_string b label;
  Printf.bprintf b ",\"ranks\":%d,\"waves\":%d,\"dropped\":%d,\"cells\":["
    t.ranks t.waves t.dropped;
  let first = ref true in
  for rank = 0 to t.ranks - 1 do
    for col = 0 to t.waves do
      let c = t.cells.(rank).(col) in
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_string b
        (Printf.sprintf
           "{\"rank\":%d,\"wave\":%d,\"t_start\":%.6f,\"t_end\":%.6f,\
            \"compute\":%.6f,\"send\":%.6f,\"recv\":%.6f,\"wait\":%.6f,\
            \"other\":%.6f,\"idle\":%.6f,\"spans\":%d}"
           rank
           (if col = t.waves then -1 else col)
           c.t_start c.t_end c.compute c.send c.recv c.wait c.other c.idle
           c.spans)
    done
  done;
  Buffer.add_string b "]}";
  Buffer.contents b

let to_csv t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "rank,wave,t_start,t_end,compute,send,recv,wait,other,idle,spans\n";
  for rank = 0 to t.ranks - 1 do
    for col = 0 to t.waves do
      let c = t.cells.(rank).(col) in
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d\n"
           rank
           (if col = t.waves then -1 else col)
           c.t_start c.t_end c.compute c.send c.recv c.wait c.other c.idle
           c.spans)
    done
  done;
  Buffer.contents b
