let version = 5

type event =
  | Trace_header of { version : int; program : string }
  | Cell_start of { key : string }
  | Cell_finish of { key : string; status : string }
  | Checkpoint_flush of { key : string; bytes : int }
  | Worker_start of { index : int }
  | Worker_stop of { index : int; tasks : int }
  | Game_start of {
      adversary : string;
      algorithm : string;
      n : int;
      max_color_calls : int option;
      max_work : int option;
      deadline : float option;
    }
  | Game_verdict of {
      adversary : string;
      algorithm : string;
      n : int;
      outcome : string;
      guaranteed : bool;
      color_calls : int;
      work : int;
    }
  | Step of {
      executor : string;
      step : int;
      target : int;
      revealed : int;
      max_view : int;
    }
  | Reveal of { executor : string; step : int; fresh : int; revealed : int }
  | Color_call of { calls : int; work : int }
  | Audit of { executor : string; ok : bool; detail : string }
  | Fault_injected of { tag : string; call : int }
  | Misbehavior of { label : string; detail : string }
  | Child_spawn of { key : string; pid : int; attempt : int }
  | Child_heartbeat of { key : string; pid : int }
  | Child_kill of { key : string; pid : int; signal : string; elapsed : float }
  | Child_exit of {
      key : string;
      pid : int;
      status : string;
      cpu_user : float;
      cpu_sys : float;
    }
  | Cell_retry of { key : string; attempt : int; delay : float }
  | Cell_quarantined of { key : string; attempts : int; reason : string }
  | Server_start of { socket : string; jobs : int; queue_limit : int }
  | Conn_open of { conn : int }
  | Conn_close of { conn : int; reason : string }
  | Job_submit of { id : string; kind : string; disposition : string }
  | Job_reject of { id : string; queued : int; limit : int }
  | Job_start of { id : string; attempt : int }
  | Job_done of { id : string; status : string }
  | Server_drain of { queued : int; running : int }
  | Chaos_injected of { kind : string }
  | Canon_hit of { kind : string; key : string }
  | Journal_corrupt of { path : string; line : int; reason : string }
  | Fleet_start of { endpoints : int; jobs : int; shard_seed : int }
  | Endpoint_state of { endpoint : string; state : string }
  | Failover of { id : string; src : string; dst : string }
  | Rebalance of { moved : int; src : string; dst : string }
  | Fleet_verdict of {
      verdict : string;
      results : int;
      failovers : int;
      duplicates : int;
    }

type record = { i : int; w : int; ts : float; ev : event }

(* ------------------------------- codec ------------------------------- *)

(* The one record encoder: events are written straight into a buffer,
   field by field, with constant pre-escaped keys, in the byte layout
   [Json.to_string] would give the equivalent object. *)

let lit b s = Buffer.add_string b s

let str b k v =
  lit b k;
  Json.add_string b v

let int b k n =
  lit b k;
  Json.add_int b n

let flt b k f =
  lit b k;
  Json.add_float b f

let bool b k v =
  lit b k;
  Buffer.add_string b (if v then "true" else "false")

let null b k =
  lit b k;
  lit b "null"

let opt_int b k = function None -> null b k | Some n -> int b k n
let opt_flt b k = function None -> null b k | Some f -> flt b k f

(* [{"i":..,"w":..,"ts":..] — the envelope up to the event tag. *)
let add_envelope b ~i ~w ~ts =
  int b {|{"i":|} i;
  int b {|,"w":|} w;
  flt b {|,"ts":|} ts

(* [,"ev":"tag"], the event's fields, and the closing brace. *)
let add_event b ev =
  (match ev with
  | Trace_header { version; program } ->
      lit b {|,"ev":"trace_header"|};
      int b {|,"version":|} version;
      str b {|,"program":|} program
  | Cell_start { key = k } ->
      lit b {|,"ev":"cell_start"|};
      str b {|,"key":|} k
  | Cell_finish { key = k; status } ->
      lit b {|,"ev":"cell_finish"|};
      str b {|,"key":|} k;
      str b {|,"status":|} status
  | Checkpoint_flush { key = k; bytes } ->
      lit b {|,"ev":"checkpoint_flush"|};
      str b {|,"key":|} k;
      int b {|,"bytes":|} bytes
  | Worker_start { index } ->
      lit b {|,"ev":"worker_start"|};
      int b {|,"index":|} index
  | Worker_stop { index; tasks } ->
      lit b {|,"ev":"worker_stop"|};
      int b {|,"index":|} index;
      int b {|,"tasks":|} tasks
  | Game_start { adversary; algorithm; n; max_color_calls; max_work; deadline } ->
      lit b {|,"ev":"game_start"|};
      str b {|,"adversary":|} adversary;
      str b {|,"algorithm":|} algorithm;
      int b {|,"n":|} n;
      opt_int b {|,"max_color_calls":|} max_color_calls;
      opt_int b {|,"max_work":|} max_work;
      opt_flt b {|,"deadline":|} deadline
  | Game_verdict { adversary; algorithm; n; outcome; guaranteed; color_calls; work } ->
      lit b {|,"ev":"game_verdict"|};
      str b {|,"adversary":|} adversary;
      str b {|,"algorithm":|} algorithm;
      int b {|,"n":|} n;
      str b {|,"outcome":|} outcome;
      bool b {|,"guaranteed":|} guaranteed;
      int b {|,"color_calls":|} color_calls;
      int b {|,"work":|} work
  | Step { executor; step; target; revealed; max_view } ->
      lit b {|,"ev":"step"|};
      str b {|,"executor":|} executor;
      int b {|,"step":|} step;
      int b {|,"target":|} target;
      int b {|,"revealed":|} revealed;
      int b {|,"max_view":|} max_view
  | Reveal { executor; step; fresh; revealed } ->
      lit b {|,"ev":"reveal"|};
      str b {|,"executor":|} executor;
      int b {|,"step":|} step;
      int b {|,"fresh":|} fresh;
      int b {|,"revealed":|} revealed
  | Color_call { calls; work } ->
      lit b {|,"ev":"color_call"|};
      int b {|,"calls":|} calls;
      int b {|,"work":|} work
  | Audit { executor; ok; detail } ->
      lit b {|,"ev":"audit"|};
      str b {|,"executor":|} executor;
      bool b {|,"ok":|} ok;
      str b {|,"detail":|} detail
  | Fault_injected { tag; call } ->
      lit b {|,"ev":"fault_injected"|};
      str b {|,"tag":|} tag;
      int b {|,"call":|} call
  | Misbehavior { label; detail } ->
      lit b {|,"ev":"misbehavior"|};
      str b {|,"label":|} label;
      str b {|,"detail":|} detail
  | Child_spawn { key = k; pid; attempt } ->
      lit b {|,"ev":"child_spawn"|};
      str b {|,"key":|} k;
      int b {|,"pid":|} pid;
      int b {|,"attempt":|} attempt
  | Child_heartbeat { key = k; pid } ->
      lit b {|,"ev":"child_heartbeat"|};
      str b {|,"key":|} k;
      int b {|,"pid":|} pid
  | Child_kill { key = k; pid; signal; elapsed } ->
      lit b {|,"ev":"child_kill"|};
      str b {|,"key":|} k;
      int b {|,"pid":|} pid;
      str b {|,"signal":|} signal;
      flt b {|,"elapsed":|} elapsed
  | Child_exit { key = k; pid; status; cpu_user; cpu_sys } ->
      lit b {|,"ev":"child_exit"|};
      str b {|,"key":|} k;
      int b {|,"pid":|} pid;
      str b {|,"status":|} status;
      flt b {|,"cpu_user":|} cpu_user;
      flt b {|,"cpu_sys":|} cpu_sys
  | Cell_retry { key = k; attempt; delay } ->
      lit b {|,"ev":"cell_retry"|};
      str b {|,"key":|} k;
      int b {|,"attempt":|} attempt;
      flt b {|,"delay":|} delay
  | Cell_quarantined { key = k; attempts; reason } ->
      lit b {|,"ev":"cell_quarantined"|};
      str b {|,"key":|} k;
      int b {|,"attempts":|} attempts;
      str b {|,"reason":|} reason
  | Server_start { socket; jobs; queue_limit } ->
      lit b {|,"ev":"server_start"|};
      str b {|,"socket":|} socket;
      int b {|,"jobs":|} jobs;
      int b {|,"queue_limit":|} queue_limit
  | Conn_open { conn } ->
      lit b {|,"ev":"conn_open"|};
      int b {|,"conn":|} conn
  | Conn_close { conn; reason } ->
      lit b {|,"ev":"conn_close"|};
      int b {|,"conn":|} conn;
      str b {|,"reason":|} reason
  | Job_submit { id; kind; disposition } ->
      lit b {|,"ev":"job_submit"|};
      str b {|,"id":|} id;
      str b {|,"kind":|} kind;
      str b {|,"disposition":|} disposition
  | Job_reject { id; queued; limit } ->
      lit b {|,"ev":"job_reject"|};
      str b {|,"id":|} id;
      int b {|,"queued":|} queued;
      int b {|,"limit":|} limit
  | Job_start { id; attempt } ->
      lit b {|,"ev":"job_start"|};
      str b {|,"id":|} id;
      int b {|,"attempt":|} attempt
  | Job_done { id; status } ->
      lit b {|,"ev":"job_done"|};
      str b {|,"id":|} id;
      str b {|,"status":|} status
  | Server_drain { queued; running } ->
      lit b {|,"ev":"server_drain"|};
      int b {|,"queued":|} queued;
      int b {|,"running":|} running
  | Chaos_injected { kind } ->
      lit b {|,"ev":"chaos_injected"|};
      str b {|,"kind":|} kind
  | Canon_hit { kind; key = k } ->
      lit b {|,"ev":"canon_hit"|};
      str b {|,"kind":|} kind;
      str b {|,"key":|} k
  | Journal_corrupt { path; line; reason } ->
      lit b {|,"ev":"journal_corrupt"|};
      str b {|,"path":|} path;
      int b {|,"line":|} line;
      str b {|,"reason":|} reason
  | Fleet_start { endpoints; jobs; shard_seed } ->
      lit b {|,"ev":"fleet_start"|};
      int b {|,"endpoints":|} endpoints;
      int b {|,"jobs":|} jobs;
      int b {|,"shard_seed":|} shard_seed
  | Endpoint_state { endpoint; state } ->
      lit b {|,"ev":"endpoint_state"|};
      str b {|,"endpoint":|} endpoint;
      str b {|,"state":|} state
  | Failover { id; src; dst } ->
      lit b {|,"ev":"failover"|};
      str b {|,"id":|} id;
      str b {|,"src":|} src;
      str b {|,"dst":|} dst
  | Rebalance { moved; src; dst } ->
      lit b {|,"ev":"rebalance"|};
      int b {|,"moved":|} moved;
      str b {|,"src":|} src;
      str b {|,"dst":|} dst
  | Fleet_verdict { verdict; results; failovers; duplicates } ->
      lit b {|,"ev":"fleet_verdict"|};
      str b {|,"verdict":|} verdict;
      int b {|,"results":|} results;
      int b {|,"failovers":|} failovers;
      int b {|,"duplicates":|} duplicates);
  Buffer.add_char b '}'

let record_to_string r =
  let b = Buffer.create 128 in
  add_envelope b ~i:r.i ~w:r.w ~ts:r.ts;
  add_event b r.ev;
  Buffer.contents b

let decode_error msg = raise (Json.Parse_error msg)

let req_int j k =
  match Json.to_int_opt (Option.value (Json.member k j) ~default:Json.Null) with
  | Some n -> n
  | None -> decode_error ("trace record: missing int field " ^ k)

let req_float j k =
  match Json.to_float_opt (Option.value (Json.member k j) ~default:Json.Null) with
  | Some f -> f
  | None -> decode_error ("trace record: missing float field " ^ k)

let req_string j k =
  match Json.to_string_opt (Option.value (Json.member k j) ~default:Json.Null) with
  | Some s -> s
  | None -> decode_error ("trace record: missing string field " ^ k)

let req_bool j k =
  match Json.to_bool_opt (Option.value (Json.member k j) ~default:Json.Null) with
  | Some b -> b
  | None -> decode_error ("trace record: missing bool field " ^ k)

let opt_int_of j k =
  match Json.member k j with
  | None | Some Json.Null -> None
  | Some v -> (
      match Json.to_int_opt v with
      | Some n -> Some n
      | None -> decode_error ("trace record: field " ^ k ^ " is not an int"))

let opt_float_of j k =
  match Json.member k j with
  | None | Some Json.Null -> None
  | Some v -> (
      match Json.to_float_opt v with
      | Some f -> Some f
      | None -> decode_error ("trace record: field " ^ k ^ " is not a number"))

let event_of_json j =
  match req_string j "ev" with
  | "trace_header" ->
      let v = req_int j "version" in
      if v > version then
        decode_error
          (Printf.sprintf
             "trace format version %d is newer than this reader (max %d)" v version);
      Trace_header { version = v; program = req_string j "program" }
  | "cell_start" -> Cell_start { key = req_string j "key" }
  | "cell_finish" ->
      Cell_finish { key = req_string j "key"; status = req_string j "status" }
  | "checkpoint_flush" ->
      Checkpoint_flush { key = req_string j "key"; bytes = req_int j "bytes" }
  | "worker_start" -> Worker_start { index = req_int j "index" }
  | "worker_stop" -> Worker_stop { index = req_int j "index"; tasks = req_int j "tasks" }
  | "game_start" ->
      Game_start
        {
          adversary = req_string j "adversary";
          algorithm = req_string j "algorithm";
          n = req_int j "n";
          max_color_calls = opt_int_of j "max_color_calls";
          max_work = opt_int_of j "max_work";
          deadline = opt_float_of j "deadline";
        }
  | "game_verdict" ->
      Game_verdict
        {
          adversary = req_string j "adversary";
          algorithm = req_string j "algorithm";
          n = req_int j "n";
          outcome = req_string j "outcome";
          guaranteed = req_bool j "guaranteed";
          color_calls = req_int j "color_calls";
          work = req_int j "work";
        }
  | "step" ->
      Step
        {
          executor = req_string j "executor";
          step = req_int j "step";
          target = req_int j "target";
          revealed = req_int j "revealed";
          max_view = req_int j "max_view";
        }
  | "reveal" ->
      Reveal
        {
          executor = req_string j "executor";
          step = req_int j "step";
          fresh = req_int j "fresh";
          revealed = req_int j "revealed";
        }
  | "color_call" -> Color_call { calls = req_int j "calls"; work = req_int j "work" }
  | "audit" ->
      Audit
        {
          executor = req_string j "executor";
          ok = req_bool j "ok";
          detail = req_string j "detail";
        }
  | "fault_injected" ->
      Fault_injected { tag = req_string j "tag"; call = req_int j "call" }
  | "misbehavior" ->
      Misbehavior { label = req_string j "label"; detail = req_string j "detail" }
  | "child_spawn" ->
      Child_spawn
        { key = req_string j "key"; pid = req_int j "pid"; attempt = req_int j "attempt" }
  | "child_heartbeat" ->
      Child_heartbeat { key = req_string j "key"; pid = req_int j "pid" }
  | "child_kill" ->
      Child_kill
        {
          key = req_string j "key";
          pid = req_int j "pid";
          signal = req_string j "signal";
          elapsed = req_float j "elapsed";
        }
  | "child_exit" ->
      Child_exit
        {
          key = req_string j "key";
          pid = req_int j "pid";
          status = req_string j "status";
          cpu_user = req_float j "cpu_user";
          cpu_sys = req_float j "cpu_sys";
        }
  | "cell_retry" ->
      Cell_retry
        {
          key = req_string j "key";
          attempt = req_int j "attempt";
          delay = req_float j "delay";
        }
  | "cell_quarantined" ->
      Cell_quarantined
        {
          key = req_string j "key";
          attempts = req_int j "attempts";
          reason = req_string j "reason";
        }
  | "server_start" ->
      Server_start
        {
          socket = req_string j "socket";
          jobs = req_int j "jobs";
          queue_limit = req_int j "queue_limit";
        }
  | "conn_open" -> Conn_open { conn = req_int j "conn" }
  | "conn_close" ->
      Conn_close { conn = req_int j "conn"; reason = req_string j "reason" }
  | "job_submit" ->
      Job_submit
        {
          id = req_string j "id";
          kind = req_string j "kind";
          disposition = req_string j "disposition";
        }
  | "job_reject" ->
      Job_reject
        { id = req_string j "id"; queued = req_int j "queued"; limit = req_int j "limit" }
  | "job_start" -> Job_start { id = req_string j "id"; attempt = req_int j "attempt" }
  | "job_done" -> Job_done { id = req_string j "id"; status = req_string j "status" }
  | "server_drain" ->
      Server_drain { queued = req_int j "queued"; running = req_int j "running" }
  | "chaos_injected" -> Chaos_injected { kind = req_string j "kind" }
  | "canon_hit" -> Canon_hit { kind = req_string j "kind"; key = req_string j "key" }
  | "journal_corrupt" ->
      Journal_corrupt
        {
          path = req_string j "path";
          line = req_int j "line";
          reason = req_string j "reason";
        }
  | "fleet_start" ->
      Fleet_start
        {
          endpoints = req_int j "endpoints";
          jobs = req_int j "jobs";
          shard_seed = req_int j "shard_seed";
        }
  | "endpoint_state" ->
      Endpoint_state
        { endpoint = req_string j "endpoint"; state = req_string j "state" }
  | "failover" ->
      Failover
        { id = req_string j "id"; src = req_string j "src"; dst = req_string j "dst" }
  | "rebalance" ->
      Rebalance
        { moved = req_int j "moved"; src = req_string j "src"; dst = req_string j "dst" }
  | "fleet_verdict" ->
      Fleet_verdict
        {
          verdict = req_string j "verdict";
          results = req_int j "results";
          failovers = req_int j "failovers";
          duplicates = req_int j "duplicates";
        }
  | other -> decode_error ("trace record: unknown event " ^ other)

let record_of_json j =
  {
    i = req_int j "i";
    w = req_int j "w";
    ts = req_float j "ts";
    ev = event_of_json j;
  }

let read_file path =
  let lines =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_lines ic)
  in
  List.mapi
    (fun idx line ->
      let fail msg =
        raise (Json.Parse_error (Printf.sprintf "%s:%d: %s" path (idx + 1) msg))
      in
      match record_of_json (Json.of_string line) with
      | r when r.i = idx -> r
      | r ->
          fail
            (Printf.sprintf
               "trace record: i is %d, expected %d (records must be written in i order)"
               r.i idx)
      | exception Json.Parse_error msg -> fail msg)
    lines

(* ------------------------------- sink ------------------------------- *)

type sink = {
  oc : out_channel;
  mutex : Mutex.t;
  line : Buffer.t;  (** assembled under [mutex] *)
  mutable seq : int;
  t0 : float;
}

let sink : sink option Atomic.t = Atomic.make None

(* Secondary in-process consumer (the flight recorder): events flow to
   it after the NDJSON sink, and its presence alone turns [on] true so
   instrumentation sites construct events for it. *)
let hook : (event -> unit) option Atomic.t = Atomic.make None
let set_hook h = Atomic.set hook h

let on () = Atomic.get sink <> None || Atomic.get hook <> None

(* Each domain encodes event bodies into its own buffer, so encoding
   runs in parallel; only what must follow [i] order is under the lock. *)
let body_buffer = Domain.DLS.new_key (fun () -> Buffer.create 256)

let write s ev =
  let body = Domain.DLS.get body_buffer in
  Buffer.clear body;
  add_event body ev;
  let w = (Domain.self () :> int) in
  (* Whole lines under the mutex, with [i] and [ts] taken together:
     the file is in [i] order and [ts] is monotone in [i]. *)
  Mutex.lock s.mutex;
  match
    let line = s.line in
    Buffer.clear line;
    add_envelope line ~i:s.seq ~w ~ts:(Unix.gettimeofday () -. s.t0);
    s.seq <- s.seq + 1;
    Buffer.add_buffer line body;
    Buffer.add_char line '\n';
    Buffer.output_buffer s.oc line
  with
  | () -> Mutex.unlock s.mutex
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.unlock s.mutex;
      Printexc.raise_with_backtrace e bt

let emit ev =
  (match Atomic.get sink with None -> () | Some s -> write s ev);
  match Atomic.get hook with None -> () | Some f -> f ev

let detach_in_child () =
  Atomic.set sink None;
  Atomic.set hook None

let with_sink ?(program = Filename.basename Sys.executable_name) ~path f =
  let oc = open_out_bin path in
  let s =
    {
      oc;
      mutex = Mutex.create ();
      line = Buffer.create 512;
      seq = 0;
      t0 = Unix.gettimeofday ();
    }
  in
  if not (Atomic.compare_and_set sink None (Some s)) then begin
    close_out_noerr oc;
    invalid_arg "Trace.with_sink: a sink is already installed"
  end;
  write s (Trace_header { version; program });
  Fun.protect
    ~finally:(fun () ->
      Atomic.set sink None;
      close_out_noerr oc)
    f

let with_sink_opt ?program path f =
  match path with None -> f () | Some path -> with_sink ?program ~path f
