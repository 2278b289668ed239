(* Minimal HTTP/1.1 telemetry + optimization server over Unix sockets.

   Design constraints (see DESIGN.md §8 and §14):
   - no threads: the listener is non-blocking and [pump] is driven from
     the trainer tick (or the serve daemon's loop), so serving can never
     deadlock the work it observes;
   - no keep-alive: one request, one response, close — the server holds
     no per-client state between pumps;
   - never raise into the caller's loop: parse failures become 4xx
     responses, socket failures are swallowed per client. POST bodies
     are read against a declared Content-Length with a hard size bound
     (413) and a receive timeout, so a torn or lying client costs at
     most one timeout window and a 400. *)

type request = { meth : string; path : string; body : string }

type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;
  body : string;
}

type handler = request -> response

let default_max_body = 1 lsl 20 (* 1 MiB *)
let max_head = 8192

let response ?(status = 200) ?(headers = []) (body : string) : response =
  { status; content_type = "text/plain; charset=utf-8"; headers; body }

let json_response ?(status = 200) ?(headers = []) (j : Json.t) : response =
  { status;
    content_type = "application/json";
    headers;
    body = Json.to_string j ^ "\n" }

let status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Content Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let error_response ?(headers = []) status msg =
  json_response ~status ~headers (Json.Obj [ ("error", Json.Str msg) ])

(* Case-insensitive header lookup over the raw head lines. Returns the
   trimmed value of the first matching header. *)
let find_header (head : string) (name : string) : string option =
  let name = String.lowercase_ascii name in
  String.split_on_char '\n' head
  |> List.find_map (fun line ->
         let line =
           if String.length line > 0 && line.[String.length line - 1] = '\r'
           then String.sub line 0 (String.length line - 1)
           else line
         in
         match String.index_opt line ':' with
         | Some i when String.lowercase_ascii (String.sub line 0 i) = name ->
           Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

(* A Content-Length must be all digits — leading sign, spaces inside,
   or any other junk is a lying client, not a parse-to-zero. *)
let parse_content_length (v : string) : int option =
  if v = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') v) then None
  else match int_of_string_opt v with
    | Some n when n >= 0 -> Some n
    | _ -> None

(* Split raw bytes into (head, body-so-far) at the first blank line;
   [None] while the head terminator has not arrived yet. *)
let split_head (raw : string) : (string * string) option =
  let n = String.length raw in
  let rec find i =
    if i + 3 < n then
      if raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
         && raw.[i + 3] = '\n'
      then Some (i, 4)
      else if raw.[i] = '\n' && raw.[i + 1] = '\n' then Some (i, 2)
      else find (i + 1)
    else if i + 1 < n && raw.[i] = '\n' && raw.[i + 1] = '\n' then Some (i, 2)
    else None
  in
  match find 0 with
  | Some (i, sep) ->
    Some (String.sub raw 0 i, String.sub raw (i + sep) (n - i - sep))
  | None -> None

(* Declared body length of a head: [Ok None] — no body expected (GET),
   [Ok (Some n)] — n bytes follow, [Error resp] — invalid declaration. *)
let declared_body_length (meth : string) (head : string) :
    (int option, response) result =
  match find_header head "content-length" with
  | None ->
    if meth = "POST" then Error (error_response 400 "POST requires a valid Content-Length")
    else Ok None
  | Some v ->
    (match parse_content_length v with
     | Some n -> Ok (Some n)
     | None ->
       Error (error_response 400 (Printf.sprintf "invalid Content-Length %S" v)))

(* first line of the head: METHOD SP target SP version *)
let parse_request_line (head : string) : (string * string, response) result =
  let line =
    match String.index_opt head '\n' with
    | Some i ->
      let l = String.sub head 0 i in
      if String.length l > 0 && l.[String.length l - 1] = '\r' then
        String.sub l 0 (String.length l - 1)
      else l
    | None -> head
  in
  match String.split_on_char ' ' line with
  | [ meth; target; version ]
    when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
    if meth <> "GET" && meth <> "POST" then
      Error (error_response 405 (Printf.sprintf "method %s not allowed" meth))
    else
      let path =
        match String.index_opt target '?' with
        | Some i -> String.sub target 0 i
        | None -> target
      in
      Ok (meth, path)
  | _ -> Error (error_response 400 "malformed request line")

(* Parse a complete raw request (head + body). Errors come back as
   ready-to-send responses: 400 for a malformed request line, a missing
   or invalid Content-Length on a POST, or a body shorter than declared
   (torn client); 405 for unknown methods; 413 for a body larger than
   [max_body]. *)
let parse_request ?(max_body = default_max_body) (raw : string) :
    (request, response) result =
  let head, body =
    match split_head raw with Some hb -> hb | None -> (raw, "")
  in
  match parse_request_line head with
  | Error resp -> Error resp
  | Ok (meth, path) ->
    (match declared_body_length meth head with
     | Error resp -> Error resp
     | Ok None -> Ok { meth; path; body = "" }
     | Ok (Some n) ->
       if n > max_body then
         Error
           (error_response 413
              (Printf.sprintf "body of %d bytes exceeds the %d byte limit" n
                 max_body))
       else if String.length body < n then
         Error
           (error_response 400
              (Printf.sprintf "torn body: Content-Length %d but only %d bytes sent"
                 n (String.length body)))
       else Ok { meth; path; body = String.sub body 0 n })

let render_response (r : response) : string =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) r.headers)
  in
  Printf.sprintf
    "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: close\r\n\r\n%s"
    r.status (status_reason r.status) r.content_type
    (String.length r.body) extra r.body

(* --- the standard telemetry routes ---------------------------------------- *)

let run_summary (i : Run.info) : Json.t =
  Json.Obj
    [ ("id", Json.Str i.Run.run_id);
      ("dir", Json.Str i.Run.run_dir);
      ("manifest", i.Run.manifest) ]

let telemetry_handler ?(registry = Metrics.global)
    ?(runs_root = Run.default_root)
    ?(docs = [ ("alerts", fun () -> Some (Json.Arr [])) ])
    ~(health : unit -> Json.t) () : handler =
 fun (req : request) ->
  match String.split_on_char '/' req.path with
  | [ ""; "metrics" ] -> response (Expo.scrape ~r:registry ())
  | [ ""; "healthz" ] -> json_response (health ())
  | [ ""; name ] when List.mem_assoc name docs ->
    (match List.assoc name docs () with
     | Some doc -> json_response doc
     | None -> error_response 404 (Printf.sprintf "no %s table for this run" name))
  | [ ""; "runs" ] ->
    json_response (Json.Arr (List.map run_summary (Run.list_runs ~root:runs_root ())))
  | [ ""; "runs"; id; "progress" ] ->
    (* only a run that /runs lists: the id is untrusted, and [Run.find]
       would also take it as a path relative to the working directory *)
    (match
       List.find_opt
         (fun (i : Run.info) -> String.equal i.Run.run_id id)
         (Run.list_runs ~root:runs_root ())
     with
     | Some info ->
       let records, dropped = Run.read_progress info in
       json_response
         (Json.Obj
            [ ("id", Json.Str info.Run.run_id);
              ("dropped", Json.Int dropped);
              ("records", Json.Arr records) ])
     | None -> error_response 404 (Printf.sprintf "no run %s" id))
  | _ -> error_response 404 (Printf.sprintf "no route for %s" req.path)

(* --- the socket loop ------------------------------------------------------- *)

type t = {
  sock : Unix.file_descr;
  t_port : int;
  max_body : int;
  mutable closed : bool;
}

type client = { fd : Unix.file_descr; mutable open_ : bool }

let create ?(backlog = 16) ?(max_body = default_max_body) ~(port : int) () : t =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen sock backlog;
     Unix.set_nonblock sock
   with e ->
     Unix.close sock;
     raise e);
  let t_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { sock; t_port; max_body; closed = false }

let port (t : t) = t.t_port

(* Read one full request from an accepted client: loop until the head
   terminator arrives, then until the declared body is complete — both
   against the 1 s receive timeout and hard size bounds, so a silent or
   flooding client cannot stall the pump or grow the buffer without
   bound. Returns the raw bytes read (possibly torn — [parse_request]
   turns a short body into a 400). *)
let read_raw_request (t : t) (fd : Unix.file_descr) : string =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 8192 in
  (* stop reading once we know the request must already be rejected:
     head too large, or body declared larger than the bound *)
  let limit = ref (max_head + t.max_body + 4) in
  let body_target = ref None in
  let finished () =
    match split_head (Buffer.contents buf) with
    | None -> Buffer.length buf > max_head
    | Some (head, body) ->
      (match !body_target with
       | Some n -> String.length body >= n
       | None ->
         (match parse_request_line head with
          | Error _ -> true
          | Ok (meth, _) ->
            (match declared_body_length meth head with
             | Error _ -> true
             | Ok None -> true
             | Ok (Some n) ->
               if n > t.max_body then true
               else begin
                 body_target := Some n;
                 String.length body >= n
               end)))
  in
  (try
     let continue_ = ref true in
     while !continue_ do
       if finished () || Buffer.length buf >= !limit then continue_ := false
       else
         match Unix.read fd chunk 0 (Bytes.length chunk) with
         | 0 -> continue_ := false
         | n -> Buffer.add_subbytes buf chunk 0 n
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  Buffer.contents buf

(* Accept one pending connection and read its request fully; [None]
   when no connection is pending. The caller owns the client and must
   [respond] (which closes it) on every path. *)
let accept (t : t) : (client * (request, response) result) option =
  if t.closed then None
  else
    match Unix.accept t.sock with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> None
    | exception Unix.Unix_error _ -> None
    | fd, _ ->
      let client = { fd; open_ = true } in
      let parsed =
        try
          Unix.clear_nonblock fd;
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0;
          let raw = read_raw_request t fd in
          if raw = "" then Error (error_response 400 "empty request")
          else parse_request ~max_body:t.max_body raw
        with Unix.Unix_error _ | Sys_error _ ->
          Error (error_response 400 "unreadable request")
      in
      Some (client, parsed)

let respond (c : client) (resp : response) : unit =
  if c.open_ then begin
    c.open_ <- false;
    Fun.protect
      ~finally:(fun () -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      (fun () ->
        try
          let bytes = Bytes.of_string (render_response resp) in
          let len = Bytes.length bytes in
          let written = ref 0 in
          while !written < len do
            written := !written + Unix.write c.fd bytes !written (len - !written)
          done
        with Unix.Unix_error _ | Sys_error _ -> ())
  end

let pump (t : t) (handler : handler) : unit =
  let continue_ = ref true in
  while !continue_ do
    match accept t with
    | None -> continue_ := false
    | Some (client, Error resp) -> respond client resp
    | Some (client, Ok req) ->
      let resp =
        try handler req with e -> error_response 500 (Printexc.to_string e)
      in
      respond client resp
  done

let close (t : t) : unit =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end
