(* The [wavefront serve] daemon in its own process, and a blocking
   HTTP/1.1 client that times each request's phases on the monotonic
   clock. *)

let now_us = Obs.Clock.monotonic

type daemon = { pid : int; port : int }

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false)

let addr port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* One request on a fresh connection (the daemon answers
   [Connection: close]). Times are monotonic microseconds. *)
type sample = {
  idx : int;  (** pool index of the request *)
  t0 : float;
  connected : float;
  first_byte : float;
  finished : float;
  response : string;  (** status line, headers and body; "" if the connection failed *)
}

let read_all fd buf chunk ~first =
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        if Buffer.length buf = 0 then first := now_us ();
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

let request_bytes ~meth ~path body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    meth path (String.length body) body

let exchange ~port ~chunk ~idx req =
  let buf = Buffer.create 1024 in
  let t0 = now_us () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let connected = ref t0 and first = ref t0 in
  (try
     Unix.connect fd (addr port);
     connected := now_us ();
     write_all fd req 0;
     read_all fd buf chunk ~first
   with Unix.Unix_error _ -> Buffer.clear buf);
  Unix.close fd;
  let finished = now_us () in
  {
    idx;
    t0;
    connected = !connected;
    first_byte = (if Buffer.length buf = 0 then finished else !first);
    finished;
    response = Buffer.contents buf;
  }

let get ~port path =
  (exchange ~port ~chunk:(Bytes.create 65536) ~idx:(-1) (request_bytes ~meth:"GET" ~path ""))
    .response

let status response =
  match String.split_on_char ' ' (String.sub response 0 (min 16 (String.length response))) with
  | _ :: code :: _ -> Option.value (int_of_string_opt code) ~default:0
  | _ -> 0

let body response =
  let rec find i =
    if i + 3 >= String.length response then String.length response
    else if String.sub response i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let i = find 0 in
  String.sub response i (String.length response - i)

(* Whether the response's headers announce [Connection: close]. *)
let closes_connection response =
  let head = String.sub response 0 (String.length response - String.length (body response)) in
  let head = String.lowercase_ascii head and key = "connection: close" in
  let n = String.length key in
  let rec at i = i + n <= String.length head && (String.sub head i n = key || at (i + 1)) in
  at 0

(* --- daemon lifecycle ----------------------------------------------- *)

(* Daemons not yet stopped; any left when the benchmark exits, even on an
   exception, are stopped then. *)
let live = ref []

let spawn ~exe ~log =
  let port = free_port () in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close devnull)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--port"; string_of_int port |]
          devnull out out)
  in
  live := pid :: !live;
  { pid; port }

let stop d =
  live := List.filter (( <> ) d.pid) !live;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] d.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

let () = at_exit (fun () -> List.iter (fun pid -> stop { pid; port = 0 }) !live)

(* Poll [/readyz] until it answers 200; fail if the daemon exits first
   (e.g. the port was taken between [free_port] and its bind). *)
let wait_ready ?(timeout_s = 30.0) d =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | p, _ when p = d.pid -> false
    | _ ->
        if status (get ~port:d.port "/readyz") = 200 then true
        else if Unix.gettimeofday () > deadline then false
        else begin
          Unix.sleepf 0.002;
          poll ()
        end
  in
  poll ()

let start ~exe ~log =
  let rec attempt n =
    let d = spawn ~exe ~log in
    if wait_ready d then d
    else begin
      stop d;
      if n > 1 then attempt (n - 1) else failwith "serve daemon did not become ready"
    end
  in
  attempt 3

(* Peak resident set (VmHWM) of a live process, MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> nan
            | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.0)
            | _ -> scan ()
          in
          scan ())

(* --- closed-loop load ----------------------------------------------- *)

(* [conns] connections, each in its own domain, each sending its next
   request as soon as the previous one completes, until [duration_s] has
   passed. Connection [c] walks the pool from offset [c * len / conns]. *)
let closed_loop ?tracers ?(max_requests = max_int) ~port ~conns ~duration_s ~path
    (pool : string array) =
  let reqs = Array.map (request_bytes ~meth:"POST" ~path) pool in
  let n = Array.length reqs in
  let start = now_us () in
  let stop_at = start +. (duration_s *. 1e6) in
  let run c () =
    let chunk = Bytes.create 65536 in
    let trace =
      match tracers with
      | None -> fun _ -> ()
      | Some (tr : Obs.Tracer.t array) ->
          fun s ->
            let span name a b =
              Obs.Tracer.record tr.(c) ~cat:"serve" ~rank:c ~start:a ~dur:(b -. a) name
            in
            span "request" s.t0 s.finished;
            span "connect" s.t0 s.connected;
            span "ttfb" s.connected s.first_byte;
            span "read" s.first_byte s.finished
    in
    let rec go i acc =
      if i >= max_requests || now_us () >= stop_at then List.rev acc
      else
        let idx = (i + (c * n / conns)) mod n in
        let s = exchange ~port ~chunk ~idx reqs.(idx) in
        trace s;
        go (i + 1) (s :: acc)
    in
    go 0 []
  in
  let doms = List.init conns (fun c -> Domain.spawn (run c)) in
  (start, List.map Domain.join doms)
