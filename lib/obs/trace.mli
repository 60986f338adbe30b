(** Typed, low-overhead event tracing for the guarded game engine.

    A trace is a stream of newline-delimited JSON records written to one
    {e sink}.  Each record wraps one {!event} in an envelope:

    {v {"i":12,"w":0,"ts":0.00153,"ev":"step", ...event fields...} v}

    where [i] is a global emission index (total order over the whole
    trace — records are written to the file in [i] order), [w] is the
    id of the domain that emitted the event (so a reader can demultiplex
    per-worker streams: events with equal [w] are causally ordered), and
    [ts] is seconds since the sink was opened.

    {2 Overhead contract}

    With no sink installed, {!on} is a single atomic load and {!emit} is
    a no-op.  Instrumentation sites must guard event {e construction}
    behind {!on} — [if Trace.on () then Trace.emit (Step {...})] — so a
    disabled trace allocates nothing.

    With a sink installed, each record is written straight into a
    buffer, field by field, with no intermediate {!Json.t} tree.  The E9
    bench ([dune exec bench/main.exe -- --trace-overhead], which writes
    BENCH_trace_overhead.json) times the guarded thm1 game both ways:
    disabled ~0%, traced to [/dev/null] ~35% (2 vCPUs).

    {2 Concurrency}

    One sink serves every domain.  A domain encodes the event into its
    own buffer outside the sink's mutex; under the mutex it only takes
    [i], reads [ts] and appends the whole line.  So a trace written by a
    parallel sweep is still one valid NDJSON stream, in [i] order, with
    [ts] monotone in [i].  Event {e interleaving} across
    domains follows completion order and is not deterministic; determinism
    lives in {!Stats}, whose drained snapshot is jobs-count-invariant.

    The first record of every trace is a {!Trace_header} carrying the
    format version ({!version}) and the emitting program's name. *)

val version : int
(** Trace format version, [5] (v2 added the supervisor child-lifecycle
    events; v3 the job-server events; v4 the memo-cache [Canon_hit]
    event; v5 the fleet-dispatch events and [Journal_corrupt]).
    Readers must reject newer versions rather than misparse them;
    older traces parse fine under a newer reader. *)

type event =
  | Trace_header of { version : int; program : string }
  | Cell_start of { key : string }  (** a sweep cell began executing *)
  | Cell_finish of { key : string; status : string }
      (** [status] is ["ok"], ["error"], or ["replayed"] (resumed from a
          checkpoint without re-running) *)
  | Checkpoint_flush of { key : string; bytes : int }
      (** one record appended and flushed to the checkpoint file *)
  | Worker_start of { index : int }  (** pool worker domain spawned *)
  | Worker_stop of { index : int; tasks : int }
      (** pool worker finished, having run [tasks] tasks *)
  | Game_start of {
      adversary : string;
      algorithm : string;
      n : int;
      max_color_calls : int option;
      max_work : int option;
      deadline : float option;
    }  (** a guarded game began, with its guard limits *)
  | Game_verdict of {
      adversary : string;
      algorithm : string;
      n : int;
      outcome : string;  (** [Game.outcome_label] *)
      guaranteed : bool;
      color_calls : int;  (** guard meter at verdict *)
      work : int;  (** guard meter at verdict *)
    }
  | Step of {
      executor : string;
      step : int;
      target : int;
      revealed : int;
      max_view : int;
    }  (** one presentation step, with cumulative run counters *)
  | Reveal of { executor : string; step : int; fresh : int; revealed : int }
      (** the ball revealed at a step: [fresh] new nodes, [revealed]
          total *)
  | Color_call of { calls : int; work : int }
      (** guard-meter snapshot at a color call *)
  | Audit of { executor : string; ok : bool; detail : string }
      (** transcript audit result (end-of-run violation scan, or a
          [--validate]/[--paranoid] replay check) *)
  | Fault_injected of { tag : string; call : int }
      (** a [Harness.Faults] combinator actually fired *)
  | Misbehavior of { label : string; detail : string }
      (** a guard recorded its first misbehavior certificate *)
  | Child_spawn of { key : string; pid : int; attempt : int }
      (** the supervisor forked a worker process for a cell ([attempt]
          is 0 for the first try) *)
  | Child_heartbeat of { key : string; pid : int }
      (** a liveness byte arrived from a worker process *)
  | Child_kill of { key : string; pid : int; signal : string; elapsed : float }
      (** the watchdog sent [signal] (["sigterm"] or ["sigkill"]) after
          [elapsed] seconds of cell wall-clock *)
  | Child_exit of {
      key : string;
      pid : int;
      status : string;  (** ["exit:N"] or ["signal:NAME"] *)
      cpu_user : float;  (** child user CPU seconds, from [Unix.times] *)
      cpu_sys : float;  (** child system CPU seconds *)
    }  (** a worker process was reaped *)
  | Cell_retry of { key : string; attempt : int; delay : float }
      (** a failed cell was rescheduled: [attempt] is the upcoming try
          (1-based), [delay] the seeded backoff in seconds *)
  | Cell_quarantined of { key : string; attempts : int; reason : string }
      (** a cell exhausted its retry budget and was quarantined *)
  | Server_start of { socket : string; jobs : int; queue_limit : int }
      (** the job server opened its front door *)
  | Conn_open of { conn : int }  (** a client connection was accepted *)
  | Conn_close of { conn : int; reason : string }
      (** a client connection ended; [reason] is ["eof"], ["error"],
          ["protocol"], or a chaos-injection tag *)
  | Job_submit of { id : string; kind : string; disposition : string }
      (** a submit frame was admitted; [disposition] is ["new"] (fresh
          job), ["inflight"] (duplicate of a queued/running job — the
          connection attached as a waiter), or ["cached"] (duplicate of
          a finished job — the recorded result was replayed) *)
  | Job_reject of { id : string; queued : int; limit : int }
      (** the admission queue was full: the submit was answered with a
          typed rejection instead of unbounded memory *)
  | Job_start of { id : string; attempt : int }
      (** a job began executing ([attempt] is 0 for the first try) *)
  | Job_done of { id : string; status : string }
      (** a job reached its terminal result; [status] is ["ok"],
          ["error"], or ["quarantined"] *)
  | Server_drain of { queued : int; running : int }
      (** SIGTERM: the server stopped accepting, with this many jobs
          still queued (journaled for restart) and running (finished
          before exit) *)
  | Chaos_injected of { kind : string }
      (** the [--chaos] harness fired one injection: ["drop_conn"],
          ["partial_frame"], ["truncate_frame"], or ["kill_child"] *)
  | Canon_hit of { kind : string; key : string }
      (** the canonical-view memo cache answered from cache: [kind] is
          ["step"] (one skipped color call) or ["game"] (a whole cached
          adversary report); [key] is the cache key (an MD5 chain digest
          or resolved cell parameters) *)
  | Journal_corrupt of { path : string; line : int; reason : string }
      (** a checkpoint/journal record failed its v2 CRC/length check and
          was skipped on load ([line] is 1-based); the affected cell or
          job reruns instead of replaying corrupted bytes *)
  | Fleet_start of { endpoints : int; jobs : int; shard_seed : int }
      (** a fleet campaign opened against [endpoints] servers *)
  | Endpoint_state of { endpoint : string; state : string }
      (** an endpoint changed state: ["up"], ["unreachable"],
          ["draining"], ["breaker_open"], or ["down"] *)
  | Failover of { id : string; src : string; dst : string }
      (** job [id] was resubmitted from a failed endpoint [src] to [dst]
          under its content-derived id (the dedup layer makes the retry
          exactly-once) *)
  | Rebalance of { moved : int; src : string; dst : string }
      (** [moved] not-yet-submitted jobs migrated from a deep queue to a
          shallow one, guided by depth probes *)
  | Fleet_verdict of {
      verdict : string;
      results : int;
      failovers : int;
      duplicates : int;
    }
      (** campaign end: [verdict] is ["FULL"] (every endpoint healthy
          throughout) or ["DEGRADED reason"]; [duplicates] counts
          redundant result deliveries that were deduplicated *)

type record = { i : int; w : int; ts : float; ev : event }

(** {2 Emission} *)

val on : unit -> bool
(** Whether a sink {e or hook} is installed — the cheap gate every
    instrumentation site checks before constructing an event. *)

val emit : event -> unit
(** Append one record to the installed sink, then hand it to the
    installed hook (no-op without either).  Safe from any domain. *)

val set_hook : (event -> unit) option -> unit
(** Install a secondary in-process event consumer, called after the
    NDJSON sink.  This is how {!Flight} taps the event stream without
    the sites knowing about it; one slot, last set wins. *)

val detach_in_child : unit -> unit
(** Drop the installed sink and hook {e in this process} without
    closing anything.
    Must be the first thing a forked child calls: the child inherits the
    parent's buffered [out_channel], and any emission (or buffer flush
    at exit) would corrupt the parent's NDJSON stream.  Children must
    also terminate via [Unix._exit], which skips [at_exit] flushing of
    inherited buffers. *)

val with_sink : ?program:string -> path:string -> (unit -> 'a) -> 'a
(** Open [path], write the {!Trace_header}, install the sink for the
    duration of the callback, then flush, close and uninstall — also on
    exception.  Nesting is not supported: a sink installed while another
    is active raises [Invalid_argument]. *)

val with_sink_opt : ?program:string -> string option -> (unit -> 'a) -> 'a
(** [with_sink_opt None f] is [f ()]; [with_sink_opt (Some path) f] is
    [with_sink ~path f] — the shape every [--trace FILE] flag needs. *)

(** {2 Codec} *)

val record_to_string : record -> string
(** One canonical NDJSON line, without the trailing newline. *)

val record_of_json : Json.t -> record
(** @raise Json.Parse_error on envelopes or events this version does not
    understand (including a [Trace_header] with a newer [version]). *)

val read_file : string -> record list
(** Parse a whole trace, strictly: any malformed line, or a record
    whose [i] is not its 0-based line index (records out of [i] order,
    missing or repeated), raises [Json.Parse_error] naming the line
    number.  The header is a record like any other; {!record_of_json}
    has already rejected incompatible versions. *)
