(* The flight recorder: binary codec roundtrip over the whole event
   vocabulary, anomaly-triggered flushing, the teardown tail flush, ring
   capacity, and the format sniff trace_report uses. *)

module T = Obs.Trace
module F = Obs.Flight

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_temp_file suffix f =
  let path = Filename.temp_file "flight_test" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* One event per constructor, with field values exercising negatives,
   zeros, options, floats and embedded newlines/NULs in strings. *)
let all_events : T.event list =
  [
    T.Trace_header { version = T.version; program = "test" };
    T.Cell_start { key = "k space\ttab" };
    T.Cell_finish { key = "k"; status = "ok" };
    T.Checkpoint_flush { key = "k"; bytes = 0 };
    T.Worker_start { index = 3 };
    T.Worker_stop { index = 3; tasks = 17 };
    T.Game_start
      {
        adversary = "thm1-grid";
        algorithm = "greedy";
        n = 400;
        max_color_calls = Some 12;
        max_work = None;
        deadline = Some 1.5;
      };
    T.Game_verdict
      {
        adversary = "thm1-grid";
        algorithm = "greedy";
        n = 400;
        outcome = "DEFEATED";
        guaranteed = true;
        color_calls = 41;
        work = 1234;
      };
    T.Step
      { executor = "virtual_grid"; step = 7; target = -1; revealed = 99;
        max_view = 99 };
    T.Reveal { executor = "virtual_grid"; step = 7; fresh = 4; revealed = 99 };
    T.Color_call { calls = 1; work = 0 };
    T.Audit { executor = "fixed_host"; ok = true; detail = "fine" };
    T.Fault_injected { tag = "flip"; call = 9 };
    T.Misbehavior { label = "budget"; detail = "line1\nline2\x00nul" };
    T.Child_spawn { key = "cell"; pid = 4242; attempt = 2 };
    T.Child_heartbeat { key = "cell"; pid = 4242 };
    T.Child_kill { key = "cell"; pid = 4242; signal = "KILL"; elapsed = 0.25 };
    T.Child_exit
      { key = "cell"; pid = 4242; status = "signaled 9"; cpu_user = 0.5;
        cpu_sys = 0.125 };
    T.Cell_retry { key = "cell"; attempt = 1; delay = 0.0625 };
    T.Cell_quarantined { key = "cell"; attempts = 3; reason = "kept dying" };
    T.Server_start { socket = "/tmp/x.sock"; jobs = 2; queue_limit = 64 };
    T.Conn_open { conn = 11 };
    T.Conn_close { conn = 11; reason = "eof" };
    T.Job_submit { id = "abc123"; kind = "thm1"; disposition = "queued" };
    T.Job_reject { id = "abc123"; queued = 64; limit = 64 };
    T.Job_start { id = "abc123"; attempt = 0 };
    T.Job_done { id = "abc123"; status = "done" };
    T.Server_drain { queued = 0; running = 2 };
    T.Chaos_injected { kind = "close" };
    T.Canon_hit { kind = "color"; key = "h\x00ash" };
    T.Journal_corrupt { path = "/tmp/j.journal"; line = 3; reason = "crc 0 != 1" };
    T.Fleet_start { endpoints = 3; jobs = 16; shard_seed = 42 };
    T.Endpoint_state { endpoint = "tcp:7001"; state = "breaker_open" };
    T.Failover { id = "abc123"; src = "/tmp/a.sock"; dst = "tcp:7001" };
    T.Rebalance { moved = 5; src = "tcp:7001"; dst = "/tmp/a.sock" };
    T.Fleet_verdict
      { verdict = "DEGRADED (endpoint tcp:7001 unreachable)"; results = 12;
        failovers = 2; duplicates = 1 };
  ]

(* Decoded records minus the leading file-header frame. *)
let recorded path =
  match F.read_file path with
  | { T.ev = T.Trace_header _; _ } :: rest -> rest
  | _ -> Alcotest.fail "missing header frame"

let recorded_events path = List.map (fun (r : T.record) -> r.T.ev) (recorded path)

let test_roundtrip_all_constructors () =
  with_temp_file ".flight" @@ fun path ->
  F.with_sink ~program:"test" ~path (fun () ->
      List.iter T.emit all_events;
      F.flush ());
  let back = recorded path in
  check_int "count" (List.length all_events) (List.length back);
  List.iter2
    (fun sent (r : T.record) ->
      check_bool "event survives the codec" true (sent = r.T.ev))
    all_events back;
  (* Envelopes: per-domain sequence numbers ascending from 0, and
     nonnegative timestamps. *)
  List.iteri
    (fun i (r : T.record) ->
      check_int "sequence" i r.i;
      check_bool "timestamp" true (r.ts >= 0.))
    back

let test_clean_run_leaves_header_only () =
  with_temp_file ".flight" @@ fun path ->
  F.with_sink ~program:"test" ~path (fun () ->
      for i = 1 to 100 do
        T.emit (T.Color_call { calls = i; work = i })
      done);
  match F.read_file path with
  | [ { T.ev = T.Trace_header { program = "test"; _ }; _ } ] -> ()
  | records -> Alcotest.failf "expected header only, got %d records"
                 (List.length records)

let test_anomaly_flush_and_tail () =
  with_temp_file ".flight" @@ fun path ->
  F.with_sink ~program:"test" ~path (fun () ->
      T.emit (T.Color_call { calls = 1; work = 1 });
      check_bool "anomalous" true
        (F.anomalous (T.Misbehavior { label = "l"; detail = "d" }));
      check_bool "audit ok not anomalous" false
        (F.anomalous (T.Audit { executor = "x"; ok = true; detail = "" }));
      check_bool "audit failure anomalous" true
        (F.anomalous (T.Audit { executor = "x"; ok = false; detail = "" }));
      T.emit (T.Misbehavior { label = "l"; detail = "d" });
      (* Everything up to the anomaly is on disk before the sink ends. *)
      check_int "flushed through the anomaly" 2
        (List.length (recorded_events path));
      (* Events after the last anomaly ride out on the teardown flush. *)
      T.emit (T.Job_done { id = "post"; status = "done" }));
  match recorded_events path with
  | [ T.Color_call _; T.Misbehavior _; T.Job_done { id = "post"; _ } ] -> ()
  | evs -> Alcotest.failf "unexpected records after teardown: %d" (List.length evs)

let test_ring_capacity () =
  with_temp_file ".flight" @@ fun path ->
  F.with_sink ~program:"test" ~cap:4 ~path (fun () ->
      for i = 1 to 10 do
        T.emit (T.Color_call { calls = i; work = 0 })
      done;
      F.flush ());
  match recorded_events path with
  | [ T.Color_call { calls = 7; _ }; T.Color_call { calls = 8; _ };
      T.Color_call { calls = 9; _ }; T.Color_call { calls = 10; _ } ] ->
      ()
  | evs -> Alcotest.failf "expected the last 4 events, got %d" (List.length evs)

let test_flush_is_incremental () =
  (* A second flush only appends what arrived since the first. *)
  with_temp_file ".flight" @@ fun path ->
  F.with_sink ~program:"test" ~path (fun () ->
      T.emit (T.Conn_open { conn = 1 });
      F.flush ();
      T.emit (T.Conn_close { conn = 1; reason = "eof" });
      F.flush ();
      F.flush ());
  match recorded_events path with
  | [ T.Conn_open _; T.Conn_close _ ] -> ()
  | evs -> Alcotest.failf "duplicated or lost frames: %d" (List.length evs)

let test_is_flight_file () =
  with_temp_file ".flight" @@ fun flight ->
  with_temp_file ".ndjson" @@ fun ndjson ->
  F.with_sink ~program:"test" ~path:flight (fun () -> ());
  T.with_sink ~program:"test" ~path:ndjson (fun () ->
      T.emit (T.Conn_open { conn = 1 }));
  check_bool "flight file" true (F.is_flight_file flight);
  check_bool "ndjson file" false (F.is_flight_file ndjson);
  check_bool "missing file" false (F.is_flight_file "/nonexistent/x.flight")

let test_read_rejects_corruption () =
  with_temp_file ".flight" @@ fun path ->
  F.with_sink ~program:"test" ~path (fun () ->
      T.emit (T.Misbehavior { label = "l"; detail = "d" }));
  let data =
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
  in
  let rejects what bytes =
    with_temp_file ".bad" @@ fun bad ->
    Out_channel.with_open_bin bad (fun oc -> Out_channel.output_string oc bytes);
    match F.read_file bad with
    | exception Obs.Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects "truncated frame" (String.sub data 0 (String.length data - 1));
  rejects "bad tag" ("X" ^ String.sub data 1 (String.length data - 1));
  (* A header claiming a newer format version is refused like the NDJSON
     reader does: hand-craft the frame byte by byte. *)
  let newer =
    let b = Buffer.create 32 in
    Buffer.add_char b 'F';
    Buffer.add_int32_be b 13l;
    Buffer.add_char b '\000' (* i *);
    Buffer.add_char b '\000' (* w *);
    Buffer.add_string b (String.make 8 '\000') (* ts *);
    Buffer.add_char b '\000' (* Trace_header *);
    Buffer.add_char b (Char.chr ((T.version + 1) lsl 1)) (* zigzag version *);
    Buffer.add_char b '\000' (* program "" *);
    Buffer.contents b
  in
  rejects "newer format version" newer;
  check_string "good file still reads" "test"
    (match F.read_file path with
    | { T.ev = T.Trace_header { program; _ }; _ } :: _ -> program
    | _ -> "?")

(* The cost of an armed recorder on its campaign subject, the guarded
   thm1 game (k=6, side 400, greedy).  Two gates: minor words per game
   with the ring armed, pinned exactly (OCaml 5.1.1, no flambda; the
   bare game allocates 91,784 words, so the ring's pin allows +4,654),
   and a round-robin, best-of-passes wall-clock ratio of armed over bare
   within one run.  The ratio bound is loose because the recorder
   itself costs 3-15% in time on a shared 2-core box; the word pin is
   the sharp gate. *)
let guarded_thm1 () =
  let guard = Harness.Guard.create ~limits:Harness.Guard.default_limits () in
  let algorithm = Harness.Guard.algorithm guard (Online_local.Portfolio.greedy ()) in
  ignore (Online_local.Thm1_adversary.run ~n_side:400 ~k:6 ~algorithm ())

let armed f = F.with_sink ~program:"test" ~path:"/dev/null" f

let flight_words_pin = 96_438
let flight_time_bound = 1.35

let test_overhead_gates () =
  let words f =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let bare = words guarded_thm1 in
  let flight = armed (fun () -> words guarded_thm1) in
  Printf.printf "minor words per game: bare %.0f, flight %.0f (%+.1f%%)\n" bare
    flight (100. *. (flight -. bare) /. bare);
  if flight > float_of_int flight_words_pin then
    Alcotest.failf "flight-armed game allocates %.0f minor words, pinned <= %d"
      flight flight_words_pin;
  let inner = 20 and passes = 8 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to inner do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int inner
  in
  let best_bare = ref infinity and best_flight = ref infinity in
  for _ = 1 to passes do
    best_bare := Float.min !best_bare (timed guarded_thm1);
    best_flight := Float.min !best_flight (armed (fun () -> timed guarded_thm1))
  done;
  let ratio = !best_flight /. !best_bare in
  Printf.printf "best of %d x %d games: bare %.6f s, flight %.6f s (%.3fx)\n"
    passes inner !best_bare !best_flight ratio;
  if ratio > flight_time_bound then
    Alcotest.failf "flight recorder costs %.3fx the bare game (bound %.2fx)"
      ratio flight_time_bound

let () =
  Alcotest.run "flight"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip all constructors" `Quick
            test_roundtrip_all_constructors;
          Alcotest.test_case "rejects corruption" `Quick
            test_read_rejects_corruption;
        ] );
      ( "flush",
        [
          Alcotest.test_case "clean run leaves header only" `Quick
            test_clean_run_leaves_header_only;
          Alcotest.test_case "anomaly flush and teardown tail" `Quick
            test_anomaly_flush_and_tail;
          Alcotest.test_case "ring capacity" `Quick test_ring_capacity;
          Alcotest.test_case "incremental flush" `Quick test_flush_is_incremental;
        ] );
      ( "sniff",
        [ Alcotest.test_case "is_flight_file" `Quick test_is_flight_file ] );
      ( "overhead",
        [
          Alcotest.test_case "armed words pinned, time ratio" `Quick
            test_overhead_gates;
        ] );
    ]
