let max_header_bytes = 16 * 1024

type request = {
  meth : string;
  path : string;
  version : string;
  headers : (string * string) list;
  body : string;
}

type read_error =
  | Bad_request of string
  | Too_large
  | Timeout
  | Closed

let header r name =
  List.assoc_opt (String.lowercase_ascii name) r.headers

type scratch = { head : Bytes.t; junk : Bytes.t }

let scratch () =
  { head = Bytes.create max_header_bytes; junk = Bytes.create 4096 }

(* Wait until [fd] is readable or the deadline passes. *)
let wait_readable fd ~deadline =
  let remaining = Deadline.remaining_s ~now:(Unix.gettimeofday ()) deadline in
  if remaining <= 0.0 then `Timeout
  else
    (* select's timeout must be finite; 1h chunks are fine for an
       effectively unbounded deadline. *)
    let tmo = Float.min remaining 3600.0 in
    match Unix.select [ fd ] [] [] tmo with
    | [], _, _ -> if remaining <= tmo then `Timeout else `Again
    | _ -> `Ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Again

(* Read up to [len] more bytes into [buf] at [pos], deadline-gated. *)
let rec read_some fd buf pos len ~deadline =
  match wait_readable fd ~deadline with
  | `Timeout -> `Timeout
  | `Again -> read_some fd buf pos len ~deadline
  | `Ready -> (
      match Unix.read fd buf pos len with
      | 0 -> `Closed
      | n -> `Read n
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          read_some fd buf pos len ~deadline
      | exception
          Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
        ->
          `Closed)

(* Accumulate until the header terminator CRLFCRLF (or bare LFLF) shows
   up, never keeping more than [max_header_bytes]. Returns the raw
   header block and any body bytes that arrived with it. Only the
   [filled] prefix of the scratch buffer is ever read, so bytes left
   over from an earlier, longer request are never seen. Each scan
   resumes three bytes before the previous fill ends (a terminator is at
   most four bytes, so one that straddles two reads starts there at the
   earliest), which keeps a header dribbled one byte per read linear,
   not quadratic, in its length. *)
let read_header_block ~scratch fd ~deadline =
  let buf = scratch.head in
  let filled = ref 0 in
  (* Search [i, filled) for \r\n\r\n or \n\n. Returns the end-of-header
     offset (index one past the terminator) or -1. *)
  let rec find_terminator i =
    let n = !filled in
    if i >= n then -1
    else if
      i + 3 < n
      && Bytes.get buf i = '\r'
      && Bytes.get buf (i + 1) = '\n'
      && Bytes.get buf (i + 2) = '\r'
      && Bytes.get buf (i + 3) = '\n'
    then i + 4
    else if i + 1 < n && Bytes.get buf i = '\n' && Bytes.get buf (i + 1) = '\n'
    then i + 2
    else find_terminator (i + 1)
  in
  let rec loop from =
    let stop = find_terminator from in
    if stop >= 0 then
      Ok
        ( Bytes.sub_string buf 0 stop,
          Bytes.sub_string buf stop (!filled - stop) )
    else if !filled >= max_header_bytes then Error Too_large
    else
      match read_some fd buf !filled (max_header_bytes - !filled) ~deadline with
      | `Timeout -> Error Timeout
      | `Closed -> Error Closed
      | `Read n ->
          let from = max 0 (!filled - 3) in
          filled := !filled + n;
          loop from
  in
  loop 0

let parse_headers lines =
  let parse acc line =
    match acc with
    | Error _ as e -> e
    | Ok hs -> (
        match String.index_opt line ':' with
        | None -> Error (Bad_request "header line without ':'")
        | Some i ->
            let name = String.lowercase_ascii (String.sub line 0 i) in
            let value =
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
            in
            if name = "" then Error (Bad_request "empty header name")
            else Ok ((name, value) :: hs))
  in
  Result.map List.rev (List.fold_left parse (Ok []) lines)

let split_lines block =
  (* Split on \n, dropping a trailing \r from each line. *)
  String.split_on_char '\n' block
  |> List.map (fun l ->
         let n = String.length l in
         if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l)
  |> List.filter (fun l -> l <> "")

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; path; version ] when meth <> "" && path <> "" ->
      if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
        Error (Bad_request ("unsupported version " ^ version))
      else Ok (String.uppercase_ascii meth, path, version)
  | _ -> Error (Bad_request "malformed request line")

let read_request ?(max_body = 1024 * 1024) ~scratch ~deadline fd =
  match read_header_block ~scratch fd ~deadline with
  | Error _ as e -> e
  | Ok (block, prefix) -> (
      match split_lines block with
      | [] -> Error (Bad_request "empty request")
      | req_line :: header_lines -> (
          match parse_request_line req_line with
          | Error _ as e -> e
          | Ok (meth, path, version) -> (
              match parse_headers header_lines with
              | Error _ as e -> e
              | Ok headers -> (
                  let content_length =
                    match List.assoc_opt "content-length" headers with
                    | None -> Ok 0
                    | Some v -> (
                        match int_of_string_opt (String.trim v) with
                        | Some n when n >= 0 -> Ok n
                        | _ -> Error (Bad_request "bad Content-Length"))
                  in
                  match content_length with
                  | Error _ as e -> e
                  | Ok len ->
                      if
                        (meth = "POST" || meth = "PUT")
                        && not (List.mem_assoc "content-length" headers)
                      then Error (Bad_request "missing Content-Length")
                      else if len > max_body then
                        (* Refuse before reading: the advertised size alone
                           condemns the request. *)
                        Error Too_large
                      else if String.length prefix > len then
                        Error (Bad_request "body longer than Content-Length")
                      else begin
                        let body = Bytes.create len in
                        Bytes.blit_string prefix 0 body 0 (String.length prefix);
                        let filled = ref (String.length prefix) in
                        let rec fill () =
                          if !filled >= len then
                            Ok
                              {
                                meth;
                                path;
                                version;
                                headers;
                                body = Bytes.to_string body;
                              }
                          else
                            match
                              read_some fd body !filled (len - !filled)
                                ~deadline
                            with
                            | `Timeout -> Error Timeout
                            | `Closed -> Error Closed
                            | `Read n ->
                                filled := !filled + n;
                                fill ()
                        in
                        fill ()
                      end))))

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

let write_response ?(headers = []) ?(body = "") fd status =
  let b = Buffer.create (256 + String.length body) in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_text status));
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\nConnection: close\r\n\r\n"
       (String.length body));
  Buffer.add_string b body;
  let s = Buffer.contents b in
  let bytes = Bytes.of_string s in
  let total = Bytes.length bytes in
  let rec write_all pos =
    if pos >= total then true
    else
      match Unix.write fd bytes pos (total - pos) with
      | n -> write_all (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all pos
      | exception Unix.Unix_error _ -> false
  in
  write_all 0

let discard_close ~scratch fd =
  (* Closing with unread bytes in the receive buffer makes the kernel
     answer with RST, which can destroy the response we just wrote
     before the client reads it (shed 429s, refused 413s). Drain
     whatever has already arrived — without waiting for more — so the
     close degrades to an ordinary FIN. *)
  (try
     Unix.set_nonblock fd;
     let junk = scratch.junk in
     let rec drain budget =
       if budget > 0 then
         match Unix.read fd junk 0 (Bytes.length junk) with
         | 0 -> ()
         | n -> drain (budget - n)
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain budget
         | exception Unix.Unix_error _ -> ()
     in
     drain (256 * 1024)
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()
