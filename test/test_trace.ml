(* The observability layer: canonical JSON, the NDJSON trace codec and
   sink, the sharded metrics registry, and the versioned sweep
   checkpoint header. *)

open Online_local
module J = Obs.Json
module T = Harness.Trace
module Mx = Harness.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_temp_file suffix f =
  let path = Filename.temp_file "trace_test" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------ json ------------------------------- *)

let test_json_canonical_printing () =
  check_string "object"
    {|{"a":1,"b":[true,false,null],"c":"x\n\"y\""}|}
    (J.to_string
       (J.Obj
          [
            ("a", J.Int 1);
            ("b", J.List [ J.Bool true; J.Bool false; J.Null ]);
            ("c", J.String "x\n\"y\"");
          ]));
  (* Floats: fixed-point, up to six decimals, trailing zeros trimmed,
     one decimal always kept. *)
  check_string "float trims zeros" "0.25" (J.to_string (J.Float 0.25));
  check_string "float keeps one decimal" "3.0" (J.to_string (J.Float 3.));
  check_string "float six decimals" "0.000001" (J.to_string (J.Float 1e-6));
  check_string "non-finite is null" "null" (J.to_string (J.Float Float.nan))

(* The float writer's fast path must agree with the "%.6f" rendering it
   short-cuts, trimmed as the printer trims it. *)
let printf_reference f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.6f" f in
    let stop = ref (String.length s) in
    while !stop > 1 && s.[!stop - 1] = '0' && s.[!stop - 2] <> '.' do
      decr stop
    done;
    String.sub s 0 !stop

let test_json_float_matches_printf () =
  let check f =
    let got = J.to_string (J.Float f) in
    if got <> printf_reference f then
      Alcotest.failf "float %h (%.17g): got %s, want %s" f f got (printf_reference f)
  in
  List.iter check
    [
      0.0; -0.0; 5e-7; -5e-7; 1.5e-6; 2.5e-6; 1e-7; 4.9999999e-7; 0.000183; 0.25;
      1.5; 12345.678901; 999999.9999995; Float.pred 1e6; 1e6; Float.succ 1e6; 1e15;
      -1.5; -1e6; Float.min_float; Float.max_float; Float.epsilon; Float.nan;
      Float.infinity; Float.neg_infinity;
    ];
  (* Uniform values, small timestamps, six-decimal grid points and the
     ties halfway between them. *)
  let st = Random.State.make [| 2026 |] in
  for k = 1 to 1_000_000 do
    check
      (match k mod 4 with
      | 0 -> Random.State.float st 1e6
      | 1 -> Random.State.float st 1. *. (10. ** -.float_of_int (Random.State.int st 8))
      | 2 -> float_of_int (Random.State.int st 1_000_000_000) /. 1e6
      | _ -> (float_of_int (Random.State.int st 1_000_000_000) +. 0.5) /. 1e6)
  done

let test_json_roundtrip_byte_identical () =
  (* Canonical printing makes print/parse/print the identity on
     anything the library itself produced. *)
  List.iter
    (fun v ->
      let s = J.to_string v in
      check_string s s (J.to_string (J.of_string s)))
    [
      J.Null;
      J.Bool true;
      J.Int (-42);
      J.Float 1.5;
      J.Float (-0.000125);
      J.String "tabs\tand\nnewlines and \x01 control";
      J.List [ J.Int 1; J.List []; J.Obj [] ];
      J.Obj [ ("k", J.String "v"); ("nested", J.Obj [ ("x", J.Float 2.5) ]) ];
    ]

let test_json_parse_errors () =
  let rejects s =
    match J.of_string s with
    | exception J.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted malformed %S" s
  in
  rejects "";
  rejects "{";
  rejects "[1,]";
  rejects "{\"a\":}";
  rejects "\"unterminated";
  rejects "1 2";
  rejects "tru"

let test_json_accessors () =
  let j = J.of_string {|{"i":3,"f":1.5,"s":"x","b":true}|} in
  check_bool "member+int" true (J.member "i" j |> Option.get |> J.to_int_opt = Some 3);
  check_bool "int reads as float" true
    (J.member "i" j |> Option.get |> J.to_float_opt = Some 3.);
  check_bool "missing member" true (J.member "zzz" j = None);
  check_bool "string" true (J.member "s" j |> Option.get |> J.to_string_opt = Some "x");
  check_bool "bool" true (J.member "b" j |> Option.get |> J.to_bool_opt = Some true)

(* --------------------------- trace codec --------------------------- *)

(* One of each event variant: the codec round-trip must cover the whole
   type, so adding an event without a decoder breaks this test.  A few
   fields carry edge values for the writer: extreme ints, a float past
   1e6, strings that need escaping and raw UTF-8 bytes. *)
let all_events =
  [
    T.Trace_header { version = T.version; program = "test" };
    T.Cell_start { key = "t=1 k=6" };
    T.Cell_finish { key = "t=1 k=6"; status = "ok" };
    T.Checkpoint_flush { key = "t=1 k=6"; bytes = max_int };
    T.Worker_start { index = 2 };
    T.Worker_stop { index = 2; tasks = 7 };
    T.Child_spawn { key = "t=1 k=6"; pid = 4242; attempt = 0 };
    T.Child_heartbeat { key = "t=1 k=6"; pid = 4242 };
    T.Child_kill { key = "t=1 k=6"; pid = 4242; signal = "sigkill"; elapsed = 2.25 };
    T.Child_exit
      { key = "t=1 k=6"; pid = 4242; status = "signal:KILL"; cpu_user = 0.125; cpu_sys = 1.5e7 };
    T.Cell_retry { key = "t=1 k=6"; attempt = 1; delay = 0.05 };
    T.Cell_quarantined { key = "t=1 k=6"; attempts = 3; reason = "signal:\"SEGV\"\n" };
    T.Server_start { socket = "/tmp/serve.sock"; jobs = 2; queue_limit = 64 };
    T.Conn_open { conn = min_int };
    T.Conn_close { conn = 9; reason = "drop_conn" };
    T.Job_submit { id = "c0ffee"; kind = "thm1"; disposition = "new" };
    T.Job_reject { id = "c0ffee"; queued = 64; limit = 64 };
    T.Job_start { id = "c0ffee"; attempt = 0 };
    T.Job_done { id = "c0ffee"; status = "quarantined" };
    T.Server_drain { queued = 3; running = -1 };
    T.Chaos_injected { kind = "partial_frame" };
    T.Canon_hit { kind = "step"; key = "d41d8cd98f00b204e9800998ecf8427e" };
    T.Game_start
      {
        adversary = "thm1-grid";
        algorithm = "greedy";
        n = 40;
        max_color_calls = Some 100;
        max_work = None;
        deadline = Some 1.5;
      };
    T.Game_verdict
      {
        adversary = "thm1-grid";
        algorithm = "greedy";
        n = 40;
        outcome = "DEFEATED";
        guaranteed = true;
        color_calls = 17;
        work = 990;
      };
    T.Step { executor = "virtual_grid"; step = 3; target = 12; revealed = 30; max_view = 30 };
    T.Reveal { executor = "virtual_grid"; step = 3; fresh = 5; revealed = 30 };
    T.Color_call { calls = 17; work = 990 };
    T.Audit { executor = "fixed_host"; ok = false; detail = "monochromatic edge 0 -- 1" };
    T.Fault_injected { tag = "wrong-color"; call = 4 };
    T.Misbehavior { label = "raised"; detail = "raised: Failure(\"a\\b\")\t\x01\x1f" };
    T.Journal_corrupt { path = "j.journal"; line = 7; reason = "torn record" };
    T.Fleet_start { endpoints = 2; jobs = 8; shard_seed = 0 };
    T.Endpoint_state { endpoint = "/tmp/\xc3\xa9t\xc3\xa9.sock"; state = "up" };
    T.Failover { id = "deadbeef"; src = "/tmp/a.sock"; dst = "tcp:7002" };
    T.Rebalance { moved = 3; src = "/tmp/a.sock"; dst = "tcp:7002" };
    T.Fleet_verdict { verdict = "FULL"; results = 5; failovers = 0; duplicates = 0 };
  ]

let test_event_codec_roundtrip () =
  List.iteri
    (fun idx ev ->
      (* ts chosen dyadic so the decimal rendering is exact *)
      let r = { T.i = idx; w = 1; ts = 0.5 +. float_of_int idx; ev } in
      let line = T.record_to_string r in
      let r' = T.record_of_json (J.of_string line) in
      check_string "re-emit is byte-identical" line (T.record_to_string r');
      check_bool "structurally equal" true (r = r'))
    all_events

(* Lines written by the encoder this writer replaced (which built a
   [Json.t] tree and printed it), for every event in [all_events] at
   each of these timestamps: the writer must reproduce them byte for
   byte. *)
let golden_ts = [ 0.0; 5e-7; 0.000183; 1.5; 12345.678901 ]

let golden_lines =
  [
    {|{"i":0,"w":3,"ts":0.0,"ev":"trace_header","version":5,"program":"test"}|};
    {|{"i":1,"w":3,"ts":0.0,"ev":"cell_start","key":"t=1 k=6"}|};
    {|{"i":2,"w":3,"ts":0.0,"ev":"cell_finish","key":"t=1 k=6","status":"ok"}|};
    {|{"i":3,"w":3,"ts":0.0,"ev":"checkpoint_flush","key":"t=1 k=6","bytes":4611686018427387903}|};
    {|{"i":4,"w":3,"ts":0.0,"ev":"worker_start","index":2}|};
    {|{"i":5,"w":3,"ts":0.0,"ev":"worker_stop","index":2,"tasks":7}|};
    {|{"i":6,"w":3,"ts":0.0,"ev":"child_spawn","key":"t=1 k=6","pid":4242,"attempt":0}|};
    {|{"i":7,"w":3,"ts":0.0,"ev":"child_heartbeat","key":"t=1 k=6","pid":4242}|};
    {|{"i":8,"w":3,"ts":0.0,"ev":"child_kill","key":"t=1 k=6","pid":4242,"signal":"sigkill","elapsed":2.25}|};
    {|{"i":9,"w":3,"ts":0.0,"ev":"child_exit","key":"t=1 k=6","pid":4242,"status":"signal:KILL","cpu_user":0.125,"cpu_sys":15000000.0}|};
    {|{"i":10,"w":3,"ts":0.0,"ev":"cell_retry","key":"t=1 k=6","attempt":1,"delay":0.05}|};
    {|{"i":11,"w":3,"ts":0.0,"ev":"cell_quarantined","key":"t=1 k=6","attempts":3,"reason":"signal:\"SEGV\"\n"}|};
    {|{"i":12,"w":3,"ts":0.0,"ev":"server_start","socket":"/tmp/serve.sock","jobs":2,"queue_limit":64}|};
    {|{"i":13,"w":3,"ts":0.0,"ev":"conn_open","conn":-4611686018427387904}|};
    {|{"i":14,"w":3,"ts":0.0,"ev":"conn_close","conn":9,"reason":"drop_conn"}|};
    {|{"i":15,"w":3,"ts":0.0,"ev":"job_submit","id":"c0ffee","kind":"thm1","disposition":"new"}|};
    {|{"i":16,"w":3,"ts":0.0,"ev":"job_reject","id":"c0ffee","queued":64,"limit":64}|};
    {|{"i":17,"w":3,"ts":0.0,"ev":"job_start","id":"c0ffee","attempt":0}|};
    {|{"i":18,"w":3,"ts":0.0,"ev":"job_done","id":"c0ffee","status":"quarantined"}|};
    {|{"i":19,"w":3,"ts":0.0,"ev":"server_drain","queued":3,"running":-1}|};
    {|{"i":20,"w":3,"ts":0.0,"ev":"chaos_injected","kind":"partial_frame"}|};
    {|{"i":21,"w":3,"ts":0.0,"ev":"canon_hit","kind":"step","key":"d41d8cd98f00b204e9800998ecf8427e"}|};
    {|{"i":22,"w":3,"ts":0.0,"ev":"game_start","adversary":"thm1-grid","algorithm":"greedy","n":40,"max_color_calls":100,"max_work":null,"deadline":1.5}|};
    {|{"i":23,"w":3,"ts":0.0,"ev":"game_verdict","adversary":"thm1-grid","algorithm":"greedy","n":40,"outcome":"DEFEATED","guaranteed":true,"color_calls":17,"work":990}|};
    {|{"i":24,"w":3,"ts":0.0,"ev":"step","executor":"virtual_grid","step":3,"target":12,"revealed":30,"max_view":30}|};
    {|{"i":25,"w":3,"ts":0.0,"ev":"reveal","executor":"virtual_grid","step":3,"fresh":5,"revealed":30}|};
    {|{"i":26,"w":3,"ts":0.0,"ev":"color_call","calls":17,"work":990}|};
    {|{"i":27,"w":3,"ts":0.0,"ev":"audit","executor":"fixed_host","ok":false,"detail":"monochromatic edge 0 -- 1"}|};
    {|{"i":28,"w":3,"ts":0.0,"ev":"fault_injected","tag":"wrong-color","call":4}|};
    {|{"i":29,"w":3,"ts":0.0,"ev":"misbehavior","label":"raised","detail":"raised: Failure(\"a\\b\")\t\u0001\u001f"}|};
    {|{"i":30,"w":3,"ts":0.0,"ev":"journal_corrupt","path":"j.journal","line":7,"reason":"torn record"}|};
    {|{"i":31,"w":3,"ts":0.0,"ev":"fleet_start","endpoints":2,"jobs":8,"shard_seed":0}|};
    {|{"i":32,"w":3,"ts":0.0,"ev":"endpoint_state","endpoint":"/tmp/été.sock","state":"up"}|};
    {|{"i":33,"w":3,"ts":0.0,"ev":"failover","id":"deadbeef","src":"/tmp/a.sock","dst":"tcp:7002"}|};
    {|{"i":34,"w":3,"ts":0.0,"ev":"rebalance","moved":3,"src":"/tmp/a.sock","dst":"tcp:7002"}|};
    {|{"i":35,"w":3,"ts":0.0,"ev":"fleet_verdict","verdict":"FULL","results":5,"failovers":0,"duplicates":0}|};
    {|{"i":0,"w":3,"ts":0.0,"ev":"trace_header","version":5,"program":"test"}|};
    {|{"i":1,"w":3,"ts":0.0,"ev":"cell_start","key":"t=1 k=6"}|};
    {|{"i":2,"w":3,"ts":0.0,"ev":"cell_finish","key":"t=1 k=6","status":"ok"}|};
    {|{"i":3,"w":3,"ts":0.0,"ev":"checkpoint_flush","key":"t=1 k=6","bytes":4611686018427387903}|};
    {|{"i":4,"w":3,"ts":0.0,"ev":"worker_start","index":2}|};
    {|{"i":5,"w":3,"ts":0.0,"ev":"worker_stop","index":2,"tasks":7}|};
    {|{"i":6,"w":3,"ts":0.0,"ev":"child_spawn","key":"t=1 k=6","pid":4242,"attempt":0}|};
    {|{"i":7,"w":3,"ts":0.0,"ev":"child_heartbeat","key":"t=1 k=6","pid":4242}|};
    {|{"i":8,"w":3,"ts":0.0,"ev":"child_kill","key":"t=1 k=6","pid":4242,"signal":"sigkill","elapsed":2.25}|};
    {|{"i":9,"w":3,"ts":0.0,"ev":"child_exit","key":"t=1 k=6","pid":4242,"status":"signal:KILL","cpu_user":0.125,"cpu_sys":15000000.0}|};
    {|{"i":10,"w":3,"ts":0.0,"ev":"cell_retry","key":"t=1 k=6","attempt":1,"delay":0.05}|};
    {|{"i":11,"w":3,"ts":0.0,"ev":"cell_quarantined","key":"t=1 k=6","attempts":3,"reason":"signal:\"SEGV\"\n"}|};
    {|{"i":12,"w":3,"ts":0.0,"ev":"server_start","socket":"/tmp/serve.sock","jobs":2,"queue_limit":64}|};
    {|{"i":13,"w":3,"ts":0.0,"ev":"conn_open","conn":-4611686018427387904}|};
    {|{"i":14,"w":3,"ts":0.0,"ev":"conn_close","conn":9,"reason":"drop_conn"}|};
    {|{"i":15,"w":3,"ts":0.0,"ev":"job_submit","id":"c0ffee","kind":"thm1","disposition":"new"}|};
    {|{"i":16,"w":3,"ts":0.0,"ev":"job_reject","id":"c0ffee","queued":64,"limit":64}|};
    {|{"i":17,"w":3,"ts":0.0,"ev":"job_start","id":"c0ffee","attempt":0}|};
    {|{"i":18,"w":3,"ts":0.0,"ev":"job_done","id":"c0ffee","status":"quarantined"}|};
    {|{"i":19,"w":3,"ts":0.0,"ev":"server_drain","queued":3,"running":-1}|};
    {|{"i":20,"w":3,"ts":0.0,"ev":"chaos_injected","kind":"partial_frame"}|};
    {|{"i":21,"w":3,"ts":0.0,"ev":"canon_hit","kind":"step","key":"d41d8cd98f00b204e9800998ecf8427e"}|};
    {|{"i":22,"w":3,"ts":0.0,"ev":"game_start","adversary":"thm1-grid","algorithm":"greedy","n":40,"max_color_calls":100,"max_work":null,"deadline":1.5}|};
    {|{"i":23,"w":3,"ts":0.0,"ev":"game_verdict","adversary":"thm1-grid","algorithm":"greedy","n":40,"outcome":"DEFEATED","guaranteed":true,"color_calls":17,"work":990}|};
    {|{"i":24,"w":3,"ts":0.0,"ev":"step","executor":"virtual_grid","step":3,"target":12,"revealed":30,"max_view":30}|};
    {|{"i":25,"w":3,"ts":0.0,"ev":"reveal","executor":"virtual_grid","step":3,"fresh":5,"revealed":30}|};
    {|{"i":26,"w":3,"ts":0.0,"ev":"color_call","calls":17,"work":990}|};
    {|{"i":27,"w":3,"ts":0.0,"ev":"audit","executor":"fixed_host","ok":false,"detail":"monochromatic edge 0 -- 1"}|};
    {|{"i":28,"w":3,"ts":0.0,"ev":"fault_injected","tag":"wrong-color","call":4}|};
    {|{"i":29,"w":3,"ts":0.0,"ev":"misbehavior","label":"raised","detail":"raised: Failure(\"a\\b\")\t\u0001\u001f"}|};
    {|{"i":30,"w":3,"ts":0.0,"ev":"journal_corrupt","path":"j.journal","line":7,"reason":"torn record"}|};
    {|{"i":31,"w":3,"ts":0.0,"ev":"fleet_start","endpoints":2,"jobs":8,"shard_seed":0}|};
    {|{"i":32,"w":3,"ts":0.0,"ev":"endpoint_state","endpoint":"/tmp/été.sock","state":"up"}|};
    {|{"i":33,"w":3,"ts":0.0,"ev":"failover","id":"deadbeef","src":"/tmp/a.sock","dst":"tcp:7002"}|};
    {|{"i":34,"w":3,"ts":0.0,"ev":"rebalance","moved":3,"src":"/tmp/a.sock","dst":"tcp:7002"}|};
    {|{"i":35,"w":3,"ts":0.0,"ev":"fleet_verdict","verdict":"FULL","results":5,"failovers":0,"duplicates":0}|};
    {|{"i":0,"w":3,"ts":0.000183,"ev":"trace_header","version":5,"program":"test"}|};
    {|{"i":1,"w":3,"ts":0.000183,"ev":"cell_start","key":"t=1 k=6"}|};
    {|{"i":2,"w":3,"ts":0.000183,"ev":"cell_finish","key":"t=1 k=6","status":"ok"}|};
    {|{"i":3,"w":3,"ts":0.000183,"ev":"checkpoint_flush","key":"t=1 k=6","bytes":4611686018427387903}|};
    {|{"i":4,"w":3,"ts":0.000183,"ev":"worker_start","index":2}|};
    {|{"i":5,"w":3,"ts":0.000183,"ev":"worker_stop","index":2,"tasks":7}|};
    {|{"i":6,"w":3,"ts":0.000183,"ev":"child_spawn","key":"t=1 k=6","pid":4242,"attempt":0}|};
    {|{"i":7,"w":3,"ts":0.000183,"ev":"child_heartbeat","key":"t=1 k=6","pid":4242}|};
    {|{"i":8,"w":3,"ts":0.000183,"ev":"child_kill","key":"t=1 k=6","pid":4242,"signal":"sigkill","elapsed":2.25}|};
    {|{"i":9,"w":3,"ts":0.000183,"ev":"child_exit","key":"t=1 k=6","pid":4242,"status":"signal:KILL","cpu_user":0.125,"cpu_sys":15000000.0}|};
    {|{"i":10,"w":3,"ts":0.000183,"ev":"cell_retry","key":"t=1 k=6","attempt":1,"delay":0.05}|};
    {|{"i":11,"w":3,"ts":0.000183,"ev":"cell_quarantined","key":"t=1 k=6","attempts":3,"reason":"signal:\"SEGV\"\n"}|};
    {|{"i":12,"w":3,"ts":0.000183,"ev":"server_start","socket":"/tmp/serve.sock","jobs":2,"queue_limit":64}|};
    {|{"i":13,"w":3,"ts":0.000183,"ev":"conn_open","conn":-4611686018427387904}|};
    {|{"i":14,"w":3,"ts":0.000183,"ev":"conn_close","conn":9,"reason":"drop_conn"}|};
    {|{"i":15,"w":3,"ts":0.000183,"ev":"job_submit","id":"c0ffee","kind":"thm1","disposition":"new"}|};
    {|{"i":16,"w":3,"ts":0.000183,"ev":"job_reject","id":"c0ffee","queued":64,"limit":64}|};
    {|{"i":17,"w":3,"ts":0.000183,"ev":"job_start","id":"c0ffee","attempt":0}|};
    {|{"i":18,"w":3,"ts":0.000183,"ev":"job_done","id":"c0ffee","status":"quarantined"}|};
    {|{"i":19,"w":3,"ts":0.000183,"ev":"server_drain","queued":3,"running":-1}|};
    {|{"i":20,"w":3,"ts":0.000183,"ev":"chaos_injected","kind":"partial_frame"}|};
    {|{"i":21,"w":3,"ts":0.000183,"ev":"canon_hit","kind":"step","key":"d41d8cd98f00b204e9800998ecf8427e"}|};
    {|{"i":22,"w":3,"ts":0.000183,"ev":"game_start","adversary":"thm1-grid","algorithm":"greedy","n":40,"max_color_calls":100,"max_work":null,"deadline":1.5}|};
    {|{"i":23,"w":3,"ts":0.000183,"ev":"game_verdict","adversary":"thm1-grid","algorithm":"greedy","n":40,"outcome":"DEFEATED","guaranteed":true,"color_calls":17,"work":990}|};
    {|{"i":24,"w":3,"ts":0.000183,"ev":"step","executor":"virtual_grid","step":3,"target":12,"revealed":30,"max_view":30}|};
    {|{"i":25,"w":3,"ts":0.000183,"ev":"reveal","executor":"virtual_grid","step":3,"fresh":5,"revealed":30}|};
    {|{"i":26,"w":3,"ts":0.000183,"ev":"color_call","calls":17,"work":990}|};
    {|{"i":27,"w":3,"ts":0.000183,"ev":"audit","executor":"fixed_host","ok":false,"detail":"monochromatic edge 0 -- 1"}|};
    {|{"i":28,"w":3,"ts":0.000183,"ev":"fault_injected","tag":"wrong-color","call":4}|};
    {|{"i":29,"w":3,"ts":0.000183,"ev":"misbehavior","label":"raised","detail":"raised: Failure(\"a\\b\")\t\u0001\u001f"}|};
    {|{"i":30,"w":3,"ts":0.000183,"ev":"journal_corrupt","path":"j.journal","line":7,"reason":"torn record"}|};
    {|{"i":31,"w":3,"ts":0.000183,"ev":"fleet_start","endpoints":2,"jobs":8,"shard_seed":0}|};
    {|{"i":32,"w":3,"ts":0.000183,"ev":"endpoint_state","endpoint":"/tmp/été.sock","state":"up"}|};
    {|{"i":33,"w":3,"ts":0.000183,"ev":"failover","id":"deadbeef","src":"/tmp/a.sock","dst":"tcp:7002"}|};
    {|{"i":34,"w":3,"ts":0.000183,"ev":"rebalance","moved":3,"src":"/tmp/a.sock","dst":"tcp:7002"}|};
    {|{"i":35,"w":3,"ts":0.000183,"ev":"fleet_verdict","verdict":"FULL","results":5,"failovers":0,"duplicates":0}|};
    {|{"i":0,"w":3,"ts":1.5,"ev":"trace_header","version":5,"program":"test"}|};
    {|{"i":1,"w":3,"ts":1.5,"ev":"cell_start","key":"t=1 k=6"}|};
    {|{"i":2,"w":3,"ts":1.5,"ev":"cell_finish","key":"t=1 k=6","status":"ok"}|};
    {|{"i":3,"w":3,"ts":1.5,"ev":"checkpoint_flush","key":"t=1 k=6","bytes":4611686018427387903}|};
    {|{"i":4,"w":3,"ts":1.5,"ev":"worker_start","index":2}|};
    {|{"i":5,"w":3,"ts":1.5,"ev":"worker_stop","index":2,"tasks":7}|};
    {|{"i":6,"w":3,"ts":1.5,"ev":"child_spawn","key":"t=1 k=6","pid":4242,"attempt":0}|};
    {|{"i":7,"w":3,"ts":1.5,"ev":"child_heartbeat","key":"t=1 k=6","pid":4242}|};
    {|{"i":8,"w":3,"ts":1.5,"ev":"child_kill","key":"t=1 k=6","pid":4242,"signal":"sigkill","elapsed":2.25}|};
    {|{"i":9,"w":3,"ts":1.5,"ev":"child_exit","key":"t=1 k=6","pid":4242,"status":"signal:KILL","cpu_user":0.125,"cpu_sys":15000000.0}|};
    {|{"i":10,"w":3,"ts":1.5,"ev":"cell_retry","key":"t=1 k=6","attempt":1,"delay":0.05}|};
    {|{"i":11,"w":3,"ts":1.5,"ev":"cell_quarantined","key":"t=1 k=6","attempts":3,"reason":"signal:\"SEGV\"\n"}|};
    {|{"i":12,"w":3,"ts":1.5,"ev":"server_start","socket":"/tmp/serve.sock","jobs":2,"queue_limit":64}|};
    {|{"i":13,"w":3,"ts":1.5,"ev":"conn_open","conn":-4611686018427387904}|};
    {|{"i":14,"w":3,"ts":1.5,"ev":"conn_close","conn":9,"reason":"drop_conn"}|};
    {|{"i":15,"w":3,"ts":1.5,"ev":"job_submit","id":"c0ffee","kind":"thm1","disposition":"new"}|};
    {|{"i":16,"w":3,"ts":1.5,"ev":"job_reject","id":"c0ffee","queued":64,"limit":64}|};
    {|{"i":17,"w":3,"ts":1.5,"ev":"job_start","id":"c0ffee","attempt":0}|};
    {|{"i":18,"w":3,"ts":1.5,"ev":"job_done","id":"c0ffee","status":"quarantined"}|};
    {|{"i":19,"w":3,"ts":1.5,"ev":"server_drain","queued":3,"running":-1}|};
    {|{"i":20,"w":3,"ts":1.5,"ev":"chaos_injected","kind":"partial_frame"}|};
    {|{"i":21,"w":3,"ts":1.5,"ev":"canon_hit","kind":"step","key":"d41d8cd98f00b204e9800998ecf8427e"}|};
    {|{"i":22,"w":3,"ts":1.5,"ev":"game_start","adversary":"thm1-grid","algorithm":"greedy","n":40,"max_color_calls":100,"max_work":null,"deadline":1.5}|};
    {|{"i":23,"w":3,"ts":1.5,"ev":"game_verdict","adversary":"thm1-grid","algorithm":"greedy","n":40,"outcome":"DEFEATED","guaranteed":true,"color_calls":17,"work":990}|};
    {|{"i":24,"w":3,"ts":1.5,"ev":"step","executor":"virtual_grid","step":3,"target":12,"revealed":30,"max_view":30}|};
    {|{"i":25,"w":3,"ts":1.5,"ev":"reveal","executor":"virtual_grid","step":3,"fresh":5,"revealed":30}|};
    {|{"i":26,"w":3,"ts":1.5,"ev":"color_call","calls":17,"work":990}|};
    {|{"i":27,"w":3,"ts":1.5,"ev":"audit","executor":"fixed_host","ok":false,"detail":"monochromatic edge 0 -- 1"}|};
    {|{"i":28,"w":3,"ts":1.5,"ev":"fault_injected","tag":"wrong-color","call":4}|};
    {|{"i":29,"w":3,"ts":1.5,"ev":"misbehavior","label":"raised","detail":"raised: Failure(\"a\\b\")\t\u0001\u001f"}|};
    {|{"i":30,"w":3,"ts":1.5,"ev":"journal_corrupt","path":"j.journal","line":7,"reason":"torn record"}|};
    {|{"i":31,"w":3,"ts":1.5,"ev":"fleet_start","endpoints":2,"jobs":8,"shard_seed":0}|};
    {|{"i":32,"w":3,"ts":1.5,"ev":"endpoint_state","endpoint":"/tmp/été.sock","state":"up"}|};
    {|{"i":33,"w":3,"ts":1.5,"ev":"failover","id":"deadbeef","src":"/tmp/a.sock","dst":"tcp:7002"}|};
    {|{"i":34,"w":3,"ts":1.5,"ev":"rebalance","moved":3,"src":"/tmp/a.sock","dst":"tcp:7002"}|};
    {|{"i":35,"w":3,"ts":1.5,"ev":"fleet_verdict","verdict":"FULL","results":5,"failovers":0,"duplicates":0}|};
    {|{"i":0,"w":3,"ts":12345.678901,"ev":"trace_header","version":5,"program":"test"}|};
    {|{"i":1,"w":3,"ts":12345.678901,"ev":"cell_start","key":"t=1 k=6"}|};
    {|{"i":2,"w":3,"ts":12345.678901,"ev":"cell_finish","key":"t=1 k=6","status":"ok"}|};
    {|{"i":3,"w":3,"ts":12345.678901,"ev":"checkpoint_flush","key":"t=1 k=6","bytes":4611686018427387903}|};
    {|{"i":4,"w":3,"ts":12345.678901,"ev":"worker_start","index":2}|};
    {|{"i":5,"w":3,"ts":12345.678901,"ev":"worker_stop","index":2,"tasks":7}|};
    {|{"i":6,"w":3,"ts":12345.678901,"ev":"child_spawn","key":"t=1 k=6","pid":4242,"attempt":0}|};
    {|{"i":7,"w":3,"ts":12345.678901,"ev":"child_heartbeat","key":"t=1 k=6","pid":4242}|};
    {|{"i":8,"w":3,"ts":12345.678901,"ev":"child_kill","key":"t=1 k=6","pid":4242,"signal":"sigkill","elapsed":2.25}|};
    {|{"i":9,"w":3,"ts":12345.678901,"ev":"child_exit","key":"t=1 k=6","pid":4242,"status":"signal:KILL","cpu_user":0.125,"cpu_sys":15000000.0}|};
    {|{"i":10,"w":3,"ts":12345.678901,"ev":"cell_retry","key":"t=1 k=6","attempt":1,"delay":0.05}|};
    {|{"i":11,"w":3,"ts":12345.678901,"ev":"cell_quarantined","key":"t=1 k=6","attempts":3,"reason":"signal:\"SEGV\"\n"}|};
    {|{"i":12,"w":3,"ts":12345.678901,"ev":"server_start","socket":"/tmp/serve.sock","jobs":2,"queue_limit":64}|};
    {|{"i":13,"w":3,"ts":12345.678901,"ev":"conn_open","conn":-4611686018427387904}|};
    {|{"i":14,"w":3,"ts":12345.678901,"ev":"conn_close","conn":9,"reason":"drop_conn"}|};
    {|{"i":15,"w":3,"ts":12345.678901,"ev":"job_submit","id":"c0ffee","kind":"thm1","disposition":"new"}|};
    {|{"i":16,"w":3,"ts":12345.678901,"ev":"job_reject","id":"c0ffee","queued":64,"limit":64}|};
    {|{"i":17,"w":3,"ts":12345.678901,"ev":"job_start","id":"c0ffee","attempt":0}|};
    {|{"i":18,"w":3,"ts":12345.678901,"ev":"job_done","id":"c0ffee","status":"quarantined"}|};
    {|{"i":19,"w":3,"ts":12345.678901,"ev":"server_drain","queued":3,"running":-1}|};
    {|{"i":20,"w":3,"ts":12345.678901,"ev":"chaos_injected","kind":"partial_frame"}|};
    {|{"i":21,"w":3,"ts":12345.678901,"ev":"canon_hit","kind":"step","key":"d41d8cd98f00b204e9800998ecf8427e"}|};
    {|{"i":22,"w":3,"ts":12345.678901,"ev":"game_start","adversary":"thm1-grid","algorithm":"greedy","n":40,"max_color_calls":100,"max_work":null,"deadline":1.5}|};
    {|{"i":23,"w":3,"ts":12345.678901,"ev":"game_verdict","adversary":"thm1-grid","algorithm":"greedy","n":40,"outcome":"DEFEATED","guaranteed":true,"color_calls":17,"work":990}|};
    {|{"i":24,"w":3,"ts":12345.678901,"ev":"step","executor":"virtual_grid","step":3,"target":12,"revealed":30,"max_view":30}|};
    {|{"i":25,"w":3,"ts":12345.678901,"ev":"reveal","executor":"virtual_grid","step":3,"fresh":5,"revealed":30}|};
    {|{"i":26,"w":3,"ts":12345.678901,"ev":"color_call","calls":17,"work":990}|};
    {|{"i":27,"w":3,"ts":12345.678901,"ev":"audit","executor":"fixed_host","ok":false,"detail":"monochromatic edge 0 -- 1"}|};
    {|{"i":28,"w":3,"ts":12345.678901,"ev":"fault_injected","tag":"wrong-color","call":4}|};
    {|{"i":29,"w":3,"ts":12345.678901,"ev":"misbehavior","label":"raised","detail":"raised: Failure(\"a\\b\")\t\u0001\u001f"}|};
    {|{"i":30,"w":3,"ts":12345.678901,"ev":"journal_corrupt","path":"j.journal","line":7,"reason":"torn record"}|};
    {|{"i":31,"w":3,"ts":12345.678901,"ev":"fleet_start","endpoints":2,"jobs":8,"shard_seed":0}|};
    {|{"i":32,"w":3,"ts":12345.678901,"ev":"endpoint_state","endpoint":"/tmp/été.sock","state":"up"}|};
    {|{"i":33,"w":3,"ts":12345.678901,"ev":"failover","id":"deadbeef","src":"/tmp/a.sock","dst":"tcp:7002"}|};
    {|{"i":34,"w":3,"ts":12345.678901,"ev":"rebalance","moved":3,"src":"/tmp/a.sock","dst":"tcp:7002"}|};
    {|{"i":35,"w":3,"ts":12345.678901,"ev":"fleet_verdict","verdict":"FULL","results":5,"failovers":0,"duplicates":0}|}
  ]

let test_codec_golden_lines () =
  let lines =
    List.concat_map
      (fun ts ->
        List.mapi (fun idx ev -> T.record_to_string { T.i = idx; w = 3; ts; ev }) all_events)
      golden_ts
  in
  Alcotest.(check (list string)) "byte-identical to the golden lines" golden_lines lines

let test_codec_rejects_newer_version () =
  let line =
    {|{"i":0,"w":0,"ts":0.0,"ev":"trace_header","version":99,"program":"x"}|}
  in
  match T.record_of_json (J.of_string line) with
  | exception J.Parse_error _ -> ()
  | _ -> Alcotest.fail "accepted a newer trace format version"

let test_codec_rejects_unknown_event () =
  let line = {|{"i":0,"w":0,"ts":0.0,"ev":"time_travel"}|} in
  match T.record_of_json (J.of_string line) with
  | exception J.Parse_error _ -> ()
  | _ -> Alcotest.fail "accepted an unknown event"

(* ---------------------------- trace sink --------------------------- *)

let test_sink_ndjson_roundtrip () =
  (* Emit through a real sink, parse the file back, re-emit every
     record: the NDJSON stream must survive a full round-trip
     byte-identically. *)
  with_temp_file ".trace" (fun path ->
      check_bool "off outside sink" false (T.on ());
      T.with_sink ~program:"test" ~path (fun () ->
          check_bool "on inside sink" true (T.on ());
          List.iter T.emit (List.tl all_events));
      check_bool "off after sink" false (T.on ());
      let records = T.read_file path in
      check_int "header + events" (List.length all_events) (List.length records);
      (match records with
      | { T.ev = T.Trace_header { version; program }; i = 0; _ } :: _ ->
          check_int "header version" T.version version;
          check_string "header program" "test" program
      | _ -> Alcotest.fail "first record is not the header");
      List.iteri (fun idx r -> check_int "i is dense" idx r.T.i) records;
      let original = In_channel.with_open_text path In_channel.input_lines in
      let reemitted = List.map T.record_to_string records in
      Alcotest.(check (list string)) "re-emitted file is byte-identical" original
        reemitted)

let test_sink_rejects_nesting () =
  with_temp_file ".trace" (fun p1 ->
      with_temp_file ".trace" (fun p2 ->
          T.with_sink ~program:"outer" ~path:p1 (fun () ->
              match T.with_sink ~program:"inner" ~path:p2 (fun () -> ()) with
              | exception Invalid_argument _ -> ()
              | () -> Alcotest.fail "nested sink accepted")))

let test_read_file_strict () =
  with_temp_file ".trace" (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "{\"i\":0,\"w\":0,\"ts\":0.0,\"ev\":\"cell_start\",\"key\":\"a\"}\nnot json\n");
      match T.read_file path with
      | exception J.Parse_error msg ->
          check_bool "error names the line" true
            (String.length msg > 0
            && Option.is_some (String.index_opt msg ':'))
      | _ -> Alcotest.fail "malformed line accepted")

let test_read_file_rejects_out_of_order () =
  let line i = Printf.sprintf {|{"i":%d,"w":0,"ts":0.0,"ev":"cell_start","key":"a"}|} i in
  List.iter
    (fun (order, bad_line) ->
      with_temp_file ".trace" (fun path ->
          Out_channel.with_open_text path (fun oc ->
              List.iter (fun i -> Out_channel.output_string oc (line i ^ "\n")) order);
          match T.read_file path with
          | exception J.Parse_error msg ->
              let at = Printf.sprintf "%s:%d:" path bad_line in
              check_bool ("error names line " ^ string_of_int bad_line) true
                (String.starts_with ~prefix:at msg)
          | _ -> Alcotest.fail "out-of-order trace accepted"))
    [ ([ 0; 1; 3 ], 3); ([ 0; 2; 1 ], 2); ([ 1; 2 ], 1); ([ 0; 0 ], 2) ]

let test_sink_concurrent_domains () =
  (* Two domains emit through one sink: the file must still parse, with
     [i] dense in file order, [ts] monotone, each domain's records in
     its own emission order, and every line exactly [record_to_string]
     of its parsed record. *)
  let n = 20_000 in
  with_temp_file ".trace" (fun path ->
      let emitter executor () =
        for k = 0 to n - 1 do
          T.emit (T.Step { executor; step = k; target = k; revealed = k; max_view = k })
        done;
        (Domain.self () :> int)
      in
      let wa, wb =
        T.with_sink ~program:"test" ~path (fun () ->
            let a = Domain.spawn (emitter "a") in
            let b = Domain.spawn (emitter "b") in
            (Domain.join a, Domain.join b))
      in
      let records = T.read_file path in
      check_int "header + 2n records" (1 + (2 * n)) (List.length records);
      check_bool "i dense in file order" true
        (List.for_all2 (fun idx r -> r.T.i = idx) (List.init (1 + (2 * n)) Fun.id) records);
      let ts = List.map (fun r -> r.T.ts) records in
      check_bool "ts monotone in i" true
        (List.for_all2 ( <= ) (List.rev (List.tl (List.rev ts))) (List.tl ts));
      List.iter
        (fun (w, name) ->
          let steps =
            List.filter_map
              (fun r ->
                match r.T.ev with
                | T.Step { executor; step; _ } when r.T.w = w ->
                    check_string "one executor per domain" name executor;
                    Some step
                | _ -> None)
              records
          in
          Alcotest.(check (list int)) ("emission order of domain " ^ name)
            (List.init n Fun.id) steps)
        [ (wa, "a"); (wb, "b") ];
      let original = In_channel.with_open_bin path In_channel.input_all in
      let reemitted =
        String.concat "" (List.map (fun r -> T.record_to_string r ^ "\n") records)
      in
      check_bool "re-emitted file is byte-identical" true (original = reemitted))

(* ----------------------------- metrics ----------------------------- *)

let test_metrics_disabled_records_nothing () =
  Mx.reset ();
  Mx.disable ();
  Mx.incr "nope";
  Mx.observe "nope.hist" 3;
  let s = Mx.drain () in
  check_int "no counters" 0 (List.length s.Mx.counters);
  check_int "no hists" 0 (List.length s.Mx.hists)

let test_metrics_merge_and_pp () =
  Mx.reset ();
  Mx.enable ();
  Fun.protect
    ~finally:(fun () ->
      Mx.disable ();
      Mx.reset ())
    (fun () ->
      Mx.incr "c.one";
      Mx.add "c.one" 4;
      Mx.gauge_max "g.peak" 10;
      Mx.gauge_max "g.peak" 7;
      Mx.observe "h.sizes" 1;
      Mx.observe "h.sizes" 6;
      let s = Mx.drain () in
      check_bool "counter summed" true (List.assoc "c.one" s.Mx.counters = 5);
      check_bool "gauge maxed" true (List.assoc "g.peak" s.Mx.gauges = 10);
      let h = List.assoc "h.sizes" s.Mx.hists in
      check_int "hist count" 2 h.Mx.count;
      check_int "hist sum" 7 h.Mx.sum;
      check_int "hist max" 6 h.Mx.max_value;
      check_int "1 lands in bucket 1" 1 h.Mx.buckets.(Mx.bucket_of 1);
      check_int "6 lands in bucket 3" 1 h.Mx.buckets.(Mx.bucket_of 6))

let drain_to_string () = Format.asprintf "%a" Mx.pp (Mx.drain ())

(* The determinism contract: a fixed workload drains byte-identical
   totals however it was spread over domains. *)
let metrics_workload jobs =
  Mx.reset ();
  Mx.enable ();
  Fun.protect
    ~finally:(fun () ->
      Mx.disable ();
      Mx.reset ())
    (fun () ->
      Harness.Pool.run ~jobs ~tasks:16
        ~work:(fun i ->
          Mx.incr "tasks.run";
          Mx.add "tasks.sum" i;
          Mx.gauge_max "tasks.max" i;
          Mx.observe "tasks.hist" (i + 1);
          i)
        ~consume:(fun _ _ -> ());
      drain_to_string ())

let test_metrics_jobs_invariant () =
  let sequential = metrics_workload 1 in
  let parallel = metrics_workload 4 in
  check_string "drained registry identical at jobs=1 and jobs=4" sequential parallel;
  check_bool "registry is non-trivial" true
    (String.length sequential > 0
    && Option.is_some
         (String.index_opt sequential 't') (* has the tasks.* names *))

let test_bucket_bounds () =
  check_int "bucket of 0" 0 (Mx.bucket_of 0);
  check_int "bucket of 1" 1 (Mx.bucket_of 1);
  check_int "bucket of 7" 3 (Mx.bucket_of 7);
  check_int "bucket of 8" 4 (Mx.bucket_of 8);
  List.iter
    (fun v ->
      check_bool "bucket_lo <= v" true (Mx.bucket_lo (Mx.bucket_of v) <= v))
    [ 1; 2; 3; 7; 8; 100; 4096; max_int ]

(* ------------------------- traced game run ------------------------- *)

let test_traced_game_has_spans () =
  with_temp_file ".trace" (fun path ->
      let verdict =
        T.with_sink ~program:"test" ~path (fun () ->
            Game.thm1.Game.play ~n:40 (Portfolio.greedy ()))
      in
      check_bool "greedy is defeated" true verdict.Game.defeated;
      let records = T.read_file path in
      let has p = List.exists (fun r -> p r.T.ev) records in
      check_bool "game_start present" true
        (has (function T.Game_start { adversary = "thm1-grid"; _ } -> true | _ -> false));
      check_bool "verdict is DEFEATED" true
        (has (function
          | T.Game_verdict { outcome = "DEFEATED"; _ } -> true
          | _ -> false));
      check_bool "steps present" true
        (has (function T.Step _ -> true | _ -> false));
      check_bool "color calls metered" true
        (has (function T.Color_call _ -> true | _ -> false)))

(* --------------------- checkpoint versioning ----------------------- *)

let cells_of log =
  List.map
    (fun key ->
      {
        Harness.Sweep.key;
        run =
          (fun () ->
            log := key :: !log;
            "result " ^ key);
      })
    [ "a"; "b" ]

let render ?resume ?checkpoint cells =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Harness.Sweep.run ?resume ?checkpoint ~ppf cells;
  Buffer.contents buf

let test_checkpoint_v2_header_written () =
  with_temp_file ".ckpt" (fun path ->
      let log = ref [] in
      let full = render ~checkpoint:path (cells_of log) in
      let lines = In_channel.with_open_text path In_channel.input_lines in
      check_string "header first" "#sweep-checkpoint v2" (List.hd lines);
      check_int "header + one record per cell" 3 (List.length lines);
      (* Every v2 record carries its CRC trailer. *)
      List.iter
        (fun line ->
          check_bool "record has a crc trailer" true
            (match String.rindex_opt line '\t' with
            | None -> false
            | Some t ->
                String.length line > t + 1 && line.[t + 1] = '@'))
        (List.tl lines);
      (* And the file resumes: nothing reruns, output is identical. *)
      log := [];
      let resumed = render ~resume:true ~checkpoint:path (cells_of log) in
      check_string "byte-identical resume" full resumed;
      check_int "nothing reran" 0 (List.length !log))

let test_checkpoint_v1_still_replays () =
  (* A v1 journal (header, no CRC trailers) keeps replaying unchanged. *)
  with_temp_file ".ckpt" (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            "#sweep-checkpoint v1\na\tresult a\nb\tresult b\n");
      let log = ref [] in
      let out = render ~resume:true ~checkpoint:path (cells_of log) in
      check_int "nothing reran" 0 (List.length !log);
      check_string "replayed v1 results" "result a\nresult b\n" out)

let corrupt_last_record path =
  (* flip one bit in the middle of the final record *)
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let last_line_start = String.rindex_from contents (String.length contents - 2) '\n' + 1 in
  let off = last_line_start + 3 in
  let b = Bytes.of_string contents in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b)

let test_checkpoint_corrupt_record_skipped_and_rerun () =
  with_temp_file ".ckpt" (fun ckpt ->
      with_temp_file ".trace" (fun trace ->
          let log = ref [] in
          let full = render ~checkpoint:ckpt (cells_of log) in
          corrupt_last_record ckpt;
          (* fsck sees exactly the damaged record *)
          let report = Harness.Sweep.Journal.fsck ckpt in
          check_int "fsck version" 2 report.Harness.Sweep.Journal.version;
          check_int "one corrupt record" 1
            (List.length report.Harness.Sweep.Journal.corrupt);
          (* resume: the bit-flipped record is skipped with a typed,
             traced warning and exactly that cell reruns *)
          log := [];
          let resumed =
            T.with_sink ~program:"test" ~path:trace (fun () ->
                render ~resume:true ~checkpoint:ckpt (cells_of log))
          in
          check_string "byte-identical despite corruption" full resumed;
          Alcotest.(check (list string)) "exactly the torn cell reran" [ "b" ] !log;
          let corrupt_events =
            List.filter
              (fun r ->
                match r.T.ev with T.Journal_corrupt _ -> true | _ -> false)
              (T.read_file trace)
          in
          check_int "typed warning traced" 1 (List.length corrupt_events);
          (* the journal is append-only: the damaged line stays (fsck
             keeps flagging it) but the rerun appended a good record
             that supersedes it — a second resume replays everything *)
          let report = Harness.Sweep.Journal.fsck ckpt in
          check_int "fsck still flags the torn line" 1
            (List.length report.Harness.Sweep.Journal.corrupt);
          check_int "both cells have valid records" 2
            report.Harness.Sweep.Journal.records;
          log := [];
          let again = render ~resume:true ~checkpoint:ckpt (cells_of log) in
          check_string "second resume byte-identical" full again;
          check_int "nothing reran" 0 (List.length !log)))

let test_checkpoint_v0_headerless_still_replays () =
  (* A checkpoint written before versioning has no header line; it must
     keep resuming. *)
  with_temp_file ".ckpt" (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "a\tresult a\nb\tresult b\n");
      let log = ref [] in
      let out = render ~resume:true ~checkpoint:path (cells_of log) in
      check_int "nothing reran" 0 (List.length !log);
      check_string "replayed v0 results" "result a\nresult b\n" out)

let test_checkpoint_newer_version_rejected () =
  with_temp_file ".ckpt" (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "#sweep-checkpoint v3\na\tresult a\n");
      let log = ref [] in
      match render ~resume:true ~checkpoint:path (cells_of log) with
      | exception Invalid_argument msg ->
          check_bool "names the version" true
            (Option.is_some (String.index_opt msg '3'))
      | _ -> Alcotest.fail "accepted a v3 checkpoint")

let test_traced_sweep_marks_replays () =
  with_temp_file ".ckpt" (fun ckpt ->
      with_temp_file ".trace" (fun trace ->
          let log = ref [] in
          ignore (render ~checkpoint:ckpt (cells_of log));
          T.with_sink ~program:"test" ~path:trace (fun () ->
              ignore (render ~resume:true ~checkpoint:ckpt (cells_of log)));
          let records = T.read_file trace in
          let replayed =
            List.length
              (List.filter
                 (fun r ->
                   match r.T.ev with
                   | T.Cell_finish { status = "replayed"; _ } -> true
                   | _ -> false)
                 records)
          in
          check_int "both cells replayed" 2 replayed))

let () =
  Alcotest.run "trace"
    [
      ( "json",
        [
          Alcotest.test_case "canonical printing" `Quick test_json_canonical_printing;
          Alcotest.test_case "float fast path matches printf" `Quick
            test_json_float_matches_printf;
          Alcotest.test_case "roundtrip byte-identical" `Quick
            test_json_roundtrip_byte_identical;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "codec",
        [
          Alcotest.test_case "event roundtrip" `Quick test_event_codec_roundtrip;
          Alcotest.test_case "golden lines" `Quick test_codec_golden_lines;
          Alcotest.test_case "newer version rejected" `Quick
            test_codec_rejects_newer_version;
          Alcotest.test_case "unknown event rejected" `Quick
            test_codec_rejects_unknown_event;
        ] );
      ( "sink",
        [
          Alcotest.test_case "ndjson roundtrip" `Quick test_sink_ndjson_roundtrip;
          Alcotest.test_case "nesting rejected" `Quick test_sink_rejects_nesting;
          Alcotest.test_case "strict reader" `Quick test_read_file_strict;
          Alcotest.test_case "reader enforces i order" `Quick
            test_read_file_rejects_out_of_order;
          Alcotest.test_case "two domains, one sink" `Quick test_sink_concurrent_domains;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "disabled is inert" `Quick
            test_metrics_disabled_records_nothing;
          Alcotest.test_case "merge and pp" `Quick test_metrics_merge_and_pp;
          Alcotest.test_case "jobs-count invariant" `Quick test_metrics_jobs_invariant;
          Alcotest.test_case "bucket bounds" `Quick test_bucket_bounds;
        ] );
      ( "integration",
        [
          Alcotest.test_case "traced game spans" `Quick test_traced_game_has_spans;
          Alcotest.test_case "traced sweep replays" `Quick
            test_traced_sweep_marks_replays;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "v2 header with crc trailers" `Quick
            test_checkpoint_v2_header_written;
          Alcotest.test_case "v1 replays" `Quick test_checkpoint_v1_still_replays;
          Alcotest.test_case "v0 replays" `Quick
            test_checkpoint_v0_headerless_still_replays;
          Alcotest.test_case "newer rejected" `Quick
            test_checkpoint_newer_version_rejected;
          Alcotest.test_case "corrupt record skipped, rerun, fsck" `Quick
            test_checkpoint_corrupt_record_skipped_and_rerun;
        ] );
    ]
