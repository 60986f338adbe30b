(* ------------------------- binary event codec ------------------------
   One frame per record: tag 'F', 4-byte big-endian payload length,
   payload.  The payload encodes the envelope (varint i, varint w,
   8-byte float ts) then the event: a constructor byte followed by the
   fields in declaration order — ints as zigzag LEB128, strings
   length-prefixed, floats as big-endian IEEE bits, options with a
   presence byte.  Kept in lib/obs (no Wire dependency — the framing is
   Wire-compatible by construction, and Harness depends on us). *)

let frame_tag = 'F'

let w_uint buf v =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let w_int buf v = w_uint buf ((v lsl 1) lxor (v asr 62))

let w_str buf s =
  w_uint buf (String.length s);
  Buffer.add_string buf s

let w_float buf f = Buffer.add_int64_be buf (Int64.bits_of_float f)
let w_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let w_opt w buf = function
  | None -> Buffer.add_char buf '\000'
  | Some v ->
      Buffer.add_char buf '\001';
      w buf v

let encode_event buf ev =
  let id n = Buffer.add_char buf (Char.chr n) in
  match (ev : Trace.event) with
  | Trace_header { version; program } ->
      id 0;
      w_int buf version;
      w_str buf program
  | Cell_start { key } ->
      id 1;
      w_str buf key
  | Cell_finish { key; status } ->
      id 2;
      w_str buf key;
      w_str buf status
  | Checkpoint_flush { key; bytes } ->
      id 3;
      w_str buf key;
      w_int buf bytes
  | Worker_start { index } ->
      id 4;
      w_int buf index
  | Worker_stop { index; tasks } ->
      id 5;
      w_int buf index;
      w_int buf tasks
  | Game_start { adversary; algorithm; n; max_color_calls; max_work; deadline } ->
      id 6;
      w_str buf adversary;
      w_str buf algorithm;
      w_int buf n;
      w_opt w_int buf max_color_calls;
      w_opt w_int buf max_work;
      w_opt w_float buf deadline
  | Game_verdict { adversary; algorithm; n; outcome; guaranteed; color_calls; work }
    ->
      id 7;
      w_str buf adversary;
      w_str buf algorithm;
      w_int buf n;
      w_str buf outcome;
      w_bool buf guaranteed;
      w_int buf color_calls;
      w_int buf work
  | Step { executor; step; target; revealed; max_view } ->
      id 8;
      w_str buf executor;
      w_int buf step;
      w_int buf target;
      w_int buf revealed;
      w_int buf max_view
  | Reveal { executor; step; fresh; revealed } ->
      id 9;
      w_str buf executor;
      w_int buf step;
      w_int buf fresh;
      w_int buf revealed
  | Color_call { calls; work } ->
      id 10;
      w_int buf calls;
      w_int buf work
  | Audit { executor; ok; detail } ->
      id 11;
      w_str buf executor;
      w_bool buf ok;
      w_str buf detail
  | Fault_injected { tag; call } ->
      id 12;
      w_str buf tag;
      w_int buf call
  | Misbehavior { label; detail } ->
      id 13;
      w_str buf label;
      w_str buf detail
  | Child_spawn { key; pid; attempt } ->
      id 14;
      w_str buf key;
      w_int buf pid;
      w_int buf attempt
  | Child_heartbeat { key; pid } ->
      id 15;
      w_str buf key;
      w_int buf pid
  | Child_kill { key; pid; signal; elapsed } ->
      id 16;
      w_str buf key;
      w_int buf pid;
      w_str buf signal;
      w_float buf elapsed
  | Child_exit { key; pid; status; cpu_user; cpu_sys } ->
      id 17;
      w_str buf key;
      w_int buf pid;
      w_str buf status;
      w_float buf cpu_user;
      w_float buf cpu_sys
  | Cell_retry { key; attempt; delay } ->
      id 18;
      w_str buf key;
      w_int buf attempt;
      w_float buf delay
  | Cell_quarantined { key; attempts; reason } ->
      id 19;
      w_str buf key;
      w_int buf attempts;
      w_str buf reason
  | Server_start { socket; jobs; queue_limit } ->
      id 20;
      w_str buf socket;
      w_int buf jobs;
      w_int buf queue_limit
  | Conn_open { conn } ->
      id 21;
      w_int buf conn
  | Conn_close { conn; reason } ->
      id 22;
      w_int buf conn;
      w_str buf reason
  | Job_submit { id = jid; kind; disposition } ->
      id 23;
      w_str buf jid;
      w_str buf kind;
      w_str buf disposition
  | Job_reject { id = jid; queued; limit } ->
      id 24;
      w_str buf jid;
      w_int buf queued;
      w_int buf limit
  | Job_start { id = jid; attempt } ->
      id 25;
      w_str buf jid;
      w_int buf attempt
  | Job_done { id = jid; status } ->
      id 26;
      w_str buf jid;
      w_str buf status
  | Server_drain { queued; running } ->
      id 27;
      w_int buf queued;
      w_int buf running
  | Chaos_injected { kind } ->
      id 28;
      w_str buf kind
  | Canon_hit { kind; key } ->
      id 29;
      w_str buf kind;
      w_str buf key
  | Journal_corrupt { path; line; reason } ->
      id 30;
      w_str buf path;
      w_int buf line;
      w_str buf reason
  | Fleet_start { endpoints; jobs; shard_seed } ->
      id 31;
      w_int buf endpoints;
      w_int buf jobs;
      w_int buf shard_seed
  | Endpoint_state { endpoint; state } ->
      id 32;
      w_str buf endpoint;
      w_str buf state
  | Failover { id = jid; src; dst } ->
      id 33;
      w_str buf jid;
      w_str buf src;
      w_str buf dst
  | Rebalance { moved; src; dst } ->
      id 34;
      w_int buf moved;
      w_str buf src;
      w_str buf dst
  | Fleet_verdict { verdict; results; failovers; duplicates } ->
      id 35;
      w_str buf verdict;
      w_int buf results;
      w_int buf failovers;
      w_int buf duplicates

let encode_record buf (r : Trace.record) =
  Buffer.clear buf;
  w_uint buf r.i;
  w_uint buf r.w;
  w_float buf r.ts;
  encode_event buf r.ev;
  let len = Buffer.length buf in
  let frame = Bytes.create (5 + len) in
  Bytes.set frame 0 frame_tag;
  Bytes.set_int32_be frame 1 (Int32.of_int len);
  Buffer.blit buf 0 frame 5 len;
  Bytes.unsafe_to_string frame

(* ------------------------------ decoder ------------------------------ *)

type cursor = { data : string; mutable pos : int; path : string }

let fail cur msg =
  raise
    (Json.Parse_error (Printf.sprintf "%s: byte %d: %s" cur.path cur.pos msg))

let r_byte cur =
  if cur.pos >= String.length cur.data then fail cur "truncated frame payload";
  let c = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let r_uint cur =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let b = r_byte cur in
    if !shift > 56 then fail cur "varint too long";
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !v

let r_int cur =
  let u = r_uint cur in
  (u lsr 1) lxor (-(u land 1))

let r_str cur =
  let len = r_uint cur in
  if len < 0 || cur.pos + len > String.length cur.data then
    fail cur "truncated string";
  let s = String.sub cur.data cur.pos len in
  cur.pos <- cur.pos + len;
  s

let r_float cur =
  if cur.pos + 8 > String.length cur.data then fail cur "truncated float";
  let bits = String.get_int64_be cur.data cur.pos in
  cur.pos <- cur.pos + 8;
  Int64.float_of_bits bits

let r_bool cur = r_byte cur <> 0

let r_opt r cur = if r_byte cur = 0 then None else Some (r cur)

let decode_event cur : Trace.event =
  match r_byte cur with
  | 0 ->
      let v = r_int cur in
      if v > Trace.version then
        fail cur
          (Printf.sprintf "flight format version %d is newer than this reader (max %d)"
             v Trace.version);
      let program = r_str cur in
      Trace_header { version = v; program }
  | 1 -> Cell_start { key = r_str cur }
  | 2 ->
      let key = r_str cur in
      Cell_finish { key; status = r_str cur }
  | 3 ->
      let key = r_str cur in
      Checkpoint_flush { key; bytes = r_int cur }
  | 4 -> Worker_start { index = r_int cur }
  | 5 ->
      let index = r_int cur in
      Worker_stop { index; tasks = r_int cur }
  | 6 ->
      let adversary = r_str cur in
      let algorithm = r_str cur in
      let n = r_int cur in
      let max_color_calls = r_opt r_int cur in
      let max_work = r_opt r_int cur in
      let deadline = r_opt r_float cur in
      Game_start { adversary; algorithm; n; max_color_calls; max_work; deadline }
  | 7 ->
      let adversary = r_str cur in
      let algorithm = r_str cur in
      let n = r_int cur in
      let outcome = r_str cur in
      let guaranteed = r_bool cur in
      let color_calls = r_int cur in
      let work = r_int cur in
      Game_verdict { adversary; algorithm; n; outcome; guaranteed; color_calls; work }
  | 8 ->
      let executor = r_str cur in
      let step = r_int cur in
      let target = r_int cur in
      let revealed = r_int cur in
      let max_view = r_int cur in
      Step { executor; step; target; revealed; max_view }
  | 9 ->
      let executor = r_str cur in
      let step = r_int cur in
      let fresh = r_int cur in
      let revealed = r_int cur in
      Reveal { executor; step; fresh; revealed }
  | 10 ->
      let calls = r_int cur in
      Color_call { calls; work = r_int cur }
  | 11 ->
      let executor = r_str cur in
      let ok = r_bool cur in
      Audit { executor; ok; detail = r_str cur }
  | 12 ->
      let tag = r_str cur in
      Fault_injected { tag; call = r_int cur }
  | 13 ->
      let label = r_str cur in
      Misbehavior { label; detail = r_str cur }
  | 14 ->
      let key = r_str cur in
      let pid = r_int cur in
      Child_spawn { key; pid; attempt = r_int cur }
  | 15 ->
      let key = r_str cur in
      Child_heartbeat { key; pid = r_int cur }
  | 16 ->
      let key = r_str cur in
      let pid = r_int cur in
      let signal = r_str cur in
      Child_kill { key; pid; signal; elapsed = r_float cur }
  | 17 ->
      let key = r_str cur in
      let pid = r_int cur in
      let status = r_str cur in
      let cpu_user = r_float cur in
      Child_exit { key; pid; status; cpu_user; cpu_sys = r_float cur }
  | 18 ->
      let key = r_str cur in
      let attempt = r_int cur in
      Cell_retry { key; attempt; delay = r_float cur }
  | 19 ->
      let key = r_str cur in
      let attempts = r_int cur in
      Cell_quarantined { key; attempts; reason = r_str cur }
  | 20 ->
      let socket = r_str cur in
      let jobs = r_int cur in
      Server_start { socket; jobs; queue_limit = r_int cur }
  | 21 -> Conn_open { conn = r_int cur }
  | 22 ->
      let conn = r_int cur in
      Conn_close { conn; reason = r_str cur }
  | 23 ->
      let id = r_str cur in
      let kind = r_str cur in
      Job_submit { id; kind; disposition = r_str cur }
  | 24 ->
      let id = r_str cur in
      let queued = r_int cur in
      Job_reject { id; queued; limit = r_int cur }
  | 25 ->
      let id = r_str cur in
      Job_start { id; attempt = r_int cur }
  | 26 ->
      let id = r_str cur in
      Job_done { id; status = r_str cur }
  | 27 ->
      let queued = r_int cur in
      Server_drain { queued; running = r_int cur }
  | 28 -> Chaos_injected { kind = r_str cur }
  | 29 ->
      let kind = r_str cur in
      Canon_hit { kind; key = r_str cur }
  | 30 ->
      let path = r_str cur in
      let line = r_int cur in
      Journal_corrupt { path; line; reason = r_str cur }
  | 31 ->
      let endpoints = r_int cur in
      let jobs = r_int cur in
      Fleet_start { endpoints; jobs; shard_seed = r_int cur }
  | 32 ->
      let endpoint = r_str cur in
      Endpoint_state { endpoint; state = r_str cur }
  | 33 ->
      let id = r_str cur in
      let src = r_str cur in
      Failover { id; src; dst = r_str cur }
  | 34 ->
      let moved = r_int cur in
      let src = r_str cur in
      Rebalance { moved; src; dst = r_str cur }
  | 35 ->
      let verdict = r_str cur in
      let results = r_int cur in
      let failovers = r_int cur in
      Fleet_verdict { verdict; results; failovers; duplicates = r_int cur }
  | n -> fail cur (Printf.sprintf "unknown flight event id %d" n)

let decode_record cur : Trace.record =
  let i = r_uint cur in
  let w = r_uint cur in
  let ts = r_float cur in
  { i; w; ts; ev = decode_event cur }

(* ------------------------------- sink ------------------------------- *)

let default_cap = 4096

type sink = { path : string; cap : int; t0 : float }

let sink : sink option Atomic.t = Atomic.make None
let on () = Atomic.get sink <> None

(* Bumped on every install: rings cached by live domains for a previous
   sink are invalidated, not inherited. *)
let ring_epoch = Atomic.make 0

(* The hot path must neither encode nor retain fresh heap values: eager
   encoding costs ~8 points of E14 overhead, and parking freshly
   allocated records in the ring costs ~11 more — every young record the
   ring keeps alive is promoted at the next minor collection, and a hot
   game emits ~1000 events per millisecond.  So the per-step events
   ([Step], [Reveal], [Color_call] — all-int payloads plus a literal
   executor name) are flattened into preallocated unboxed arrays: an
   append is a handful of plain stores, no allocation, no write-barrier
   traffic to young blocks.  Everything else (per-game, per-cell and
   lifecycle events — rare by construction) is parked as an ordinary
   boxed record.  The binary encoding runs only at flush time. *)
type ring = {
  kinds : Bytes.t;  (** slot discriminator: 'b'oxed, 's'tep, 'r'eveal, 'c'olor *)
  flat : int array;  (** [flat_width] ints per slot for the flat kinds *)
  strs : string array;  (** executor per flat slot (a literal, never young) *)
  tss : float array;  (** unboxed timestamp per slot *)
  entries : Trace.record array;  (** boxed slots ('b' kind only) *)
  w : int;  (** domain id — rings are domain-private, so it is constant *)
  mutable now : float;  (** cached clock, refreshed every 32 flat appends *)
  mutable next : int;  (** total records appended *)
  mutable flushed : int;  (** records already written to disk *)
  buf : Buffer.t;  (** scratch for encoding at flush, domain-private *)
  r_epoch : int;
}

let flat_width = 4

let dummy_record =
  { Trace.i = -1; w = 0; ts = 0.0;
    ev = Trace.Trace_header { version = Trace.version; program = "" } }

(* Rebuild the record parked in slot [k] (an absolute index). *)
let slot_record s r k =
  let idx = k mod s.cap in
  match Bytes.get r.kinds idx with
  | 'b' -> r.entries.(idx)
  | kind ->
      let a = r.flat and o = idx * flat_width in
      let ev : Trace.event =
        match kind with
        | 's' ->
            Step
              { executor = r.strs.(idx); step = a.(o); target = a.(o + 1);
                revealed = a.(o + 2); max_view = a.(o + 3) }
        | 'r' ->
            Reveal
              { executor = r.strs.(idx); step = a.(o); fresh = a.(o + 1);
                revealed = a.(o + 2) }
        | 'c' -> Color_call { calls = a.(o); work = a.(o + 1) }
        | _ -> assert false
      in
      { Trace.i = k; w = r.w; ts = r.tss.(idx); ev }

let ring_key : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let ring_for s =
  let cell = Domain.DLS.get ring_key in
  match !cell with
  | Some r when r.r_epoch = Atomic.get ring_epoch -> r
  | _ ->
      let r =
        {
          kinds = Bytes.make s.cap 'b';
          flat = Array.make (s.cap * flat_width) 0;
          strs = Array.make s.cap "";
          tss = Array.make s.cap 0.0;
          entries = Array.make s.cap dummy_record;
          w = (Domain.self () :> int);
          now = Unix.gettimeofday ();
          next = 0;
          flushed = 0;
          buf = Buffer.create 256;
          r_epoch = Atomic.get ring_epoch;
        }
      in
      cell := Some r;
      r

(* One writer at a time, one [output] per flush: concurrent anomalies on
   different domains interleave at flush granularity, never inside a
   frame. *)
let flush_mutex = Mutex.create ()

let flush_ring s r =
  Mutex.protect flush_mutex (fun () ->
      let first = max r.flushed (r.next - s.cap) in
      if first < r.next then begin
        let out = Buffer.create 4096 in
        for k = first to r.next - 1 do
          Buffer.add_string out (encode_record r.buf (slot_record s r k))
        done;
        let oc =
          open_out_gen
            [ Open_wronly; Open_append; Open_creat; Open_binary ]
            0o644 s.path
        in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> Buffer.output_buffer oc out);
        r.flushed <- r.next
      end)

let anomalous (ev : Trace.event) =
  match ev with
  | Misbehavior _ | Cell_quarantined _ | Child_kill _ | Fault_injected _ -> true
  | Audit { ok; _ } -> not ok
  | _ -> false

(* Anomaly flushes under the current sink: a nonzero count makes the
   teardown flush the tail, so an anomalous run's file also carries the
   events {e after} the last anomaly (the verdict, the audit). *)
let anomaly_flushes = Atomic.make 0

let record ev =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      let r = ring_for s in
      let k = r.next mod s.cap in
      (* Hot (flat) events share a clock sample refreshed every 32
         appends — ~30ns/event of [gettimeofday] is the next-largest
         cost after allocation.  Boxed events (every anomaly is one)
         always take a fresh sample. *)
      if r.next land 31 = 0 then r.now <- Unix.gettimeofday ();
      r.tss.(k) <- r.now -. s.t0;
      (match (ev : Trace.event) with
      | Step { executor; step; target; revealed; max_view } ->
          Bytes.set r.kinds k 's';
          r.strs.(k) <- executor;
          let a = r.flat and o = k * flat_width in
          a.(o) <- step;
          a.(o + 1) <- target;
          a.(o + 2) <- revealed;
          a.(o + 3) <- max_view
      | Reveal { executor; step; fresh; revealed } ->
          Bytes.set r.kinds k 'r';
          r.strs.(k) <- executor;
          let a = r.flat and o = k * flat_width in
          a.(o) <- step;
          a.(o + 1) <- fresh;
          a.(o + 2) <- revealed
      | Color_call { calls; work } ->
          Bytes.set r.kinds k 'c';
          let a = r.flat and o = k * flat_width in
          a.(o) <- calls;
          a.(o + 1) <- work
      | _ ->
          Bytes.set r.kinds k 'b';
          r.now <- Unix.gettimeofday ();
          r.entries.(k) <- { Trace.i = r.next; w = r.w; ts = r.now -. s.t0; ev });
      r.next <- r.next + 1;
      if anomalous ev then begin
        Atomic.incr anomaly_flushes;
        flush_ring s r
      end

let flush () =
  match Atomic.get sink with
  | None -> ()
  | Some s -> flush_ring s (ring_for s)

let with_sink ?(program = Filename.basename Sys.executable_name)
    ?(cap = default_cap) ~path f =
  let s = { path; cap; t0 = Unix.gettimeofday () } in
  if not (Atomic.compare_and_set sink None (Some s)) then
    invalid_arg "Flight.with_sink: a flight sink is already installed";
  Atomic.incr ring_epoch;
  (* Header frame, written through the normal encoder so the file is
     self-describing whether or not an anomaly ever flushes. *)
  let buf = Buffer.create 64 in
  let header =
    encode_record buf
      { Trace.i = 0; w = (Domain.self () :> int); ts = 0.0;
        ev = Trace_header { version = Trace.version; program } }
  in
  let oc = open_out_bin path in
  output_string oc header;
  close_out oc;
  Atomic.set anomaly_flushes 0;
  Trace.set_hook (Some record);
  Fun.protect
    ~finally:(fun () ->
      (* An anomalous run flushes its tail on the way out — a clean run
         leaves only the header on disk. *)
      if Atomic.get anomaly_flushes > 0 then flush ();
      Trace.set_hook None;
      Atomic.set sink None)
    f

let with_sink_opt ?program ?cap path f =
  match path with
  | None -> f ()
  | Some path -> with_sink ?program ?cap ~path f

let is_flight_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> match input_char ic with
          | c -> c = frame_tag
          | exception End_of_file -> false)

let read_file path =
  let data =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  in
  let cur = { data; pos = 0; path } in
  let records = ref [] in
  while cur.pos < String.length data do
    if data.[cur.pos] <> frame_tag then
      fail cur (Printf.sprintf "expected frame tag %C" frame_tag);
    if cur.pos + 5 > String.length data then fail cur "truncated frame header";
    let len = Int32.to_int (String.get_int32_be data (cur.pos + 1)) in
    if len < 0 then fail cur "negative frame length";
    let payload_end = cur.pos + 5 + len in
    if payload_end > String.length data then fail cur "truncated frame payload";
    cur.pos <- cur.pos + 5;
    let sub = { data = String.sub data cur.pos len; pos = 0; path } in
    let r = decode_record sub in
    if sub.pos <> len then fail sub "trailing bytes in frame payload";
    records := r :: !records;
    cur.pos <- payload_end
  done;
  List.rev !records
