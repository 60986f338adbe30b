let job_id ~kind ~payload = Digest.to_hex (Digest.string (kind ^ "\x00" ^ payload))

(* ------------------------------ plumbing ------------------------------ *)

let rec write_all fd buf pos len =
  if len > 0 then begin
    match Unix.write fd buf pos len with
    | n -> write_all fd buf (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf pos len
  end

let sockaddr_of_spec spec =
  match String.index_opt spec ':' with
  | Some 3 when String.sub spec 0 3 = "tcp" -> (
      let port = String.sub spec 4 (String.length spec - 4) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          Unix.ADDR_INET (Unix.inet_addr_loopback, p)
      | _ -> invalid_arg ("Client: bad tcp socket spec " ^ spec))
  | _ -> Unix.ADDR_UNIX spec

exception Conn_lost of string

let connect ~recv_timeout spec =
  let addr = sockaddr_of_spec spec in
  let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd addr;
     (* silence bound: a wedged server becomes Conn_lost, not a hang *)
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let with_sigpipe_ignored f =
  let prev =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun b -> Sys.set_signal Sys.sigpipe b) prev)
    f

let send_frame fd ~tag payload =
  let frame = Wire.encode ~tag payload in
  try write_all fd frame 0 (Bytes.length frame)
  with Unix.Unix_error (e, _, _) -> raise (Conn_lost (Unix.error_message e))

(* Read until the decoder yields one frame.  Every way the read can go
   wrong — EOF (dropped or truncated connection), reset, timeout, a
   frame that does not decode — is one exception, [Conn_lost]: the
   caller's answer to all of them is the same (reconnect, resubmit). *)
let read_frame fd dec chunk =
  let rec go () =
    match Wire.decode dec with
    | Ok (Some frame) -> frame
    | Error e -> raise (Conn_lost (Wire.error_to_string e))
    | Ok None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> raise (Conn_lost "eof")
        | n ->
            Wire.feed dec chunk 0 n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            raise (Conn_lost "receive timeout")
        | exception Unix.Unix_error (e, _, _) ->
            raise (Conn_lost (Unix.error_message e)))
  in
  go ()

(* every server→client tag: ack, result, reject, health, stats (usage),
   error, and the depth-probe reply *)
let reply_tags = "ARXHUED"

(* ------------------------------ endpoint ------------------------------ *)

(* A connected endpoint with its own decoder and read buffer — the
   connection abstraction {!Fleet} multiplexes with [Unix.select]:
   [fd] for readiness, then [pump] to turn one readable edge into
   decoded frames. *)
module Endpoint = struct
  type t = {
    spec : string;
    fd : Unix.file_descr;
    dec : Wire.decoder;
    chunk : Bytes.t;
  }

  let spec t = t.spec
  let fd t = t.fd

  let connect ?(recv_timeout = 30.) spec =
    match connect ~recv_timeout spec with
    | fd -> { spec; fd; dec = Wire.decoder ~tags:reply_tags (); chunk = Bytes.create 4096 }
    | exception Unix.Unix_error (e, _, _) ->
        raise (Conn_lost (Unix.error_message e))

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
  let send t ~tag payload = send_frame t.fd ~tag payload

  let rec drain t acc =
    match Wire.decode t.dec with
    | Ok (Some f) -> drain t (f :: acc)
    | Ok None -> List.rev acc
    | Error e -> raise (Conn_lost (Wire.error_to_string e))

  let pump t =
    match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> raise (Conn_lost "eof")
    | n ->
        Wire.feed t.dec t.chunk 0 n;
        drain t []
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise (Conn_lost "receive timeout")
    | exception Unix.Unix_error (e, _, _) ->
        raise (Conn_lost (Unix.error_message e))
end

(* ------------------------------ one-shots ----------------------------- *)

(* Reachability failures (refused/missing socket, EOF, reset, timeout)
   are a typed [`Unreachable] — a condition callers are expected to
   branch on.  A server that answers with the wrong tag is still a
   [Failure]: that is protocol corruption, not a health state. *)
let one_shot ~recv_timeout ~socket ~request ~expect =
  with_sigpipe_ignored @@ fun () ->
  match connect ~recv_timeout socket with
  | exception Unix.Unix_error (e, _, _) ->
      Error (`Unreachable (Unix.error_message e))
  | fd -> (
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      match
        send_frame fd ~tag:request "";
        read_frame fd (Wire.decoder ~tags:reply_tags ()) (Bytes.create 4096)
      with
      | { Wire.tag; payload } when tag = expect -> Ok payload
      | { Wire.tag; payload } ->
          failwith
            (Printf.sprintf "Client: unexpected %C reply to %C: %s" tag request
               payload)
      | exception Conn_lost reason -> Error (`Unreachable reason))

let health ?(recv_timeout = 30.) ~socket () =
  one_shot ~recv_timeout ~socket ~request:'P' ~expect:'H'

let stats ?(recv_timeout = 30.) ~socket () =
  one_shot ~recv_timeout ~socket ~request:'T' ~expect:'U'
