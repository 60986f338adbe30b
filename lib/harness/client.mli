(** Client side of the {!Server} protocol: content-derived job ids, the
    connected {!Endpoint} that {!Fleet} multiplexes to run campaigns,
    and the health/stats one-shots.

    Campaign retries are safe {e because} submission is idempotent: a
    job's id is a digest of its content ({!job_id}), so resubmitting
    after a dropped connection, a truncated frame, or a typed ['X']
    rejection can never run a job twice — the server answers from its
    dedup table ([cached]/[inflight]) and the bytes of a campaign's
    results are independent of how many times the client had to ask. *)

val job_id : kind:string -> payload:string -> string
(** The content-derived id the server will assign: [Digest] (as hex) of
    [kind], a NUL byte, and [payload].  Computable offline — equal
    content, equal id, which is the whole idempotency story. *)

val health :
  ?recv_timeout:float ->
  socket:string ->
  unit ->
  (string, [ `Unreachable of string ]) result
(** One-shot ['P'] ping; [Ok json] is the server's health JSON.
    [Error (`Unreachable reason)] is every way the socket can fail to
    answer — missing, refused, reset, EOF, or [recv_timeout] seconds of
    silence — a state callers branch on (the fleet marks the endpoint
    down; [dispatch.exe --health] exits 2 naming the socket).
    @raise Failure only on protocol corruption: a reachable server that
    answers with anything but ['H']. *)

val stats :
  ?recv_timeout:float ->
  socket:string ->
  unit ->
  (string, [ `Unreachable of string ]) result
(** One-shot ['T'] request; [Ok json] is the server's stats JSON.
    Errors as {!health}. *)

exception Conn_lost of string
(** One connection attempt or established connection failed — EOF,
    reset, refused, decode error, receive timeout.  {!Endpoint} surfaces
    them to the fleet's failover logic (reconnect + resubmit). *)

(** A connected endpoint with its own frame decoder — the unit the
    {!Fleet} router multiplexes with [Unix.select].  All functions
    raise {!Conn_lost} on connection failure; none raise [Unix_error]. *)
module Endpoint : sig
  type t

  val connect : ?recv_timeout:float -> string -> t
  (** Connect to a socket spec (Unix path or [tcp:PORT]).  The receive
      timeout (default 30 s) bounds how long a wedged server can stall
      one {!pump}. *)

  val spec : t -> string
  val fd : t -> Unix.file_descr
  (** For [Unix.select] readiness polling — do not read or close it
      directly. *)

  val send : t -> tag:char -> string -> unit
  (** Send one framed request ({!Wire.encode}). *)

  val pump : t -> Wire.frame list
  (** One [Unix.read] (call only when [fd] selected readable, so it
      does not block) followed by every frame that now decodes.  [[]]
      means a frame is still incomplete — select again. *)

  val close : t -> unit
end
