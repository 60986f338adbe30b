(* Harness.Server + Harness.Client: the resilient job server.

   Every test forks the server into a child process (so SIGTERM drains
   and crash-recovery restarts are the real thing, not simulations) and
   drives it with the real campaign client, a one-endpoint
   Harness.Fleet, over a Unix-domain socket.  The
   anchor assertion throughout: campaign results are byte-identical to
   a local map of the handler over the same specs — whatever the
   server's jobs count, isolation mode, chaos setting, or how many
   times it was killed and restarted in between. *)

module Server = Harness.Server
module Client = Harness.Client
module Fleet = Harness.Fleet
module Backoff = Harness.Backoff

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fast_backoff = { Backoff.base = 0.002; max = 0.02; seed = 0x5EED }

(* The deterministic test handler.  Kinds:
     rev    -> the payload reversed
     upper  -> uppercased, multi-line results preserved
     fail   -> raises (the typed ERROR path)
     slow   -> sleeps 30 ms, then echoes (drain / backpressure fodder) *)
let handler ~kind ~payload =
  match kind with
  | "rev" -> String.init (String.length payload) (fun i ->
        payload.[String.length payload - 1 - i])
  | "upper" -> String.uppercase_ascii payload
  | "fail" -> failwith ("no can do: " ^ payload)
  | "slow" ->
      Unix.sleepf 0.03;
      "slept for " ^ payload
  | other -> failwith ("unknown kind: " ^ other)

(* What the server must answer for one spec — computed locally, the
   serverless baseline of the byte-identity contract. *)
let expected (kind, payload) =
  match handler ~kind ~payload with
  | r -> r
  | exception Failure msg -> "ERROR: Failure(\"" ^ msg ^ "\")"

let temp_path suffix =
  let path = Filename.temp_file "server_test" suffix in
  (try Sys.remove path with Sys_error _ -> ());
  path

let fork_server ?journal ?resume ~config ~socket () =
  match Unix.fork () with
  | 0 ->
      (try Server.run ~config ?journal ?resume ~socket ~handler () with _ -> ());
      Unix._exit 0
  | pid -> pid

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let with_server ?journal ?resume ~config f =
  let socket = temp_path ".sock" in
  let pid = fork_server ?journal ?resume ~config ~socket () in
  Fun.protect
    ~finally:(fun () ->
      stop_server pid;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () -> f ~socket ~pid)

let campaign ?(window = 16) ~socket specs =
  Fleet.run_campaign ~backoff:fast_backoff ~window ~endpoints:[ socket ] specs

let mixed_specs =
  [
    ("rev", "stressed");
    ("upper", "two\nlines");
    ("fail", "boom");
    ("rev", "");
    ("upper", "last one");
  ]

let fast_config jobs isolation =
  {
    Server.default_config with
    Server.jobs;
    isolation;
    backoff = fast_backoff;
    kill_grace = 0.1;
  }

(* ------------------------- basic round trips ------------------------- *)

let test_basic_roundtrip () =
  with_server ~config:(fast_config 2 `Process) @@ fun ~socket ~pid:_ ->
  let c = campaign ~socket mixed_specs in
  check_int "all results" (List.length mixed_specs) (List.length c.Fleet.results);
  List.iteri
    (fun i (spec, got) ->
      check_string (Printf.sprintf "result %d" i) (expected spec) got)
    (List.combine mixed_specs c.Fleet.results)

let test_results_jobs_isolation_invariant () =
  let baseline = List.map expected mixed_specs in
  List.iter
    (fun (jobs, isolation, label) ->
      with_server ~config:(fast_config jobs isolation) @@ fun ~socket ~pid:_ ->
      let c = campaign ~socket mixed_specs in
      List.iteri
        (fun i (want, got) ->
          check_string (Printf.sprintf "%s result %d" label i) want got)
        (List.combine baseline c.Fleet.results))
    [
      (1, `Process, "proc/1");
      (4, `Process, "proc/4");
      (1, `In_domain, "domain/1");
      (4, `In_domain, "domain/4");
    ]

let test_dedup_duplicate_specs () =
  with_server ~config:(fast_config 2 `In_domain) @@ fun ~socket ~pid:_ ->
  (* the same spec three times: one job server-side, three results *)
  let specs = [ ("rev", "same"); ("rev", "same"); ("rev", "same") ] in
  let c = campaign ~socket specs in
  List.iter (fun got -> check_string "deduped result" "emas" got) c.Fleet.results;
  let stats =
    match Client.stats ~socket () with
    | Ok json -> json
    | Error (`Unreachable reason) -> Alcotest.failf "stats unreachable: %s" reason
  in
  check_bool "server accepted exactly one job" true
    (let needle = "\"accepted\":1" in
     let rec find i =
       i + String.length needle <= String.length stats
       && (String.sub stats i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let test_health_and_stats () =
  with_server ~config:(fast_config 1 `In_domain) @@ fun ~socket ~pid:_ ->
  let retry_oneshot f =
    (* the forked server may still be binding; retry briefly *)
    let rec go n =
      match f () with
      | Ok v -> v
      | Error (`Unreachable _) when n > 0 ->
          Unix.sleepf 0.02;
          go (n - 1)
      | Error (`Unreachable reason) ->
          Alcotest.failf "server still unreachable: %s" reason
    in
    go 100
  in
  let health = retry_oneshot (fun () -> Client.health ~socket ()) in
  check_bool "health mentions status" true
    (String.length health > 0 && health.[0] = '{');
  let stats = retry_oneshot (fun () -> Client.stats ~socket ()) in
  check_bool "stats is json" true (String.length stats > 0 && stats.[0] = '{')

let test_health_unreachable_is_typed () =
  (* no server behind this path: the one-shots answer with a typed
     [`Unreachable], never a bare exception *)
  let socket = temp_path ".sock" in
  (match Client.health ~socket () with
  | Ok json -> Alcotest.failf "health of a missing socket answered: %s" json
  | Error (`Unreachable reason) ->
      check_bool "unreachable reason is non-empty" true (String.length reason > 0));
  match Client.stats ~socket () with
  | Ok json -> Alcotest.failf "stats of a missing socket answered: %s" json
  | Error (`Unreachable _) -> ()

(* --------------------------- backpressure ---------------------------- *)

let test_bounded_queue_rejects_and_recovers () =
  let config =
    { (fast_config 1 `In_domain) with Server.queue_limit = 1 }
  in
  with_server ~config @@ fun ~socket ~pid:_ ->
  let specs = List.init 6 (fun i -> ("slow", string_of_int i)) in
  let c = campaign ~window:6 ~socket specs in
  (* every job still completes, with correct bytes, through the retries *)
  List.iteri
    (fun i (spec, got) ->
      check_string (Printf.sprintf "result %d" i) (expected spec) got)
    (List.combine specs c.Fleet.results);
  check_bool "the bounded queue rejected at least one submit" true
    (c.Fleet.rejections > 0)

(* ------------------------ drain and recovery ------------------------- *)

(* Submit every spec raw (no waiting for results) and return once the
   server has acknowledged all of them — i.e. admitted and journaled
   them — so a SIGTERM right after lands with most of the queue
   outstanding. *)
let raw_submit_all ~socket specs =
  let module Wire = Harness.Wire in
  let addr = Unix.ADDR_UNIX socket in
  let rec conn tries =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if tries = 0 then Alcotest.fail "cannot reach forked server";
        Unix.sleepf 0.02;
        conn (tries - 1)
  in
  let fd = conn 250 in
  List.iter
    (fun (kind, payload) ->
      let frame = Wire.encode ~tag:'S' (kind ^ "\t\n" ^ payload) in
      ignore (Unix.write fd frame 0 (Bytes.length frame)))
    specs;
  let dec = Wire.decoder ~tags:"ARXE" () in
  let buf = Bytes.create 4096 in
  let rec wait acks =
    if acks < List.length specs then
      match Wire.decode dec with
      | Ok (Some { Wire.tag = 'A'; _ }) -> wait (acks + 1)
      | Ok (Some _) -> wait acks
      | Error _ -> Alcotest.fail "raw submit: protocol error"
      | Ok None -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> Alcotest.fail "raw submit: server closed before acking"
          | n ->
              Wire.feed dec buf 0 n;
              wait acks)
  in
  wait 0;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* SIGTERM the server with acknowledged jobs still queued/running,
   restart it on the same journal with ~resume, and run the full
   campaign against the restarted server.  The results must be
   byte-identical to the serverless baseline: nothing lost to the
   drain, nothing recomputed into a different answer. *)
let drain_recovery_scenario ~jobs ~isolation () =
  let config = fast_config jobs isolation in
  let journal = temp_path ".journal" in
  let socket = temp_path ".sock" in
  let specs = List.init 12 (fun i -> ("slow", Printf.sprintf "job-%d" i)) in
  let baseline = List.map expected specs in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove journal with Sys_error _ -> ());
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      (* phase 1: admit all 12 slow jobs, then drain immediately —
         in-flight ones finish during the drain, the rest stay only in
         the journal *)
      let pid1 = fork_server ~journal ~resume:false ~config ~socket () in
      raw_submit_all ~socket specs;
      stop_server pid1;
      (* phase 2: restart on the same journal and finish the campaign *)
      let pid2 = fork_server ~journal ~resume:true ~config ~socket () in
      Fun.protect
        ~finally:(fun () -> stop_server pid2)
        (fun () ->
          let c = campaign ~window:12 ~socket specs in
          List.iteri
            (fun i (want, got) ->
              check_string
                (Printf.sprintf "%s/%d result %d"
                   (match isolation with `Process -> "proc" | `In_domain -> "domain")
                   jobs i)
                want got)
            (List.combine baseline c.Fleet.results)))

let test_drain_recovery_proc_1 = drain_recovery_scenario ~jobs:1 ~isolation:`Process
let test_drain_recovery_proc_4 = drain_recovery_scenario ~jobs:4 ~isolation:`Process

let test_drain_recovery_domain_1 =
  drain_recovery_scenario ~jobs:1 ~isolation:`In_domain

let test_drain_recovery_domain_4 =
  drain_recovery_scenario ~jobs:4 ~isolation:`In_domain

(* A journal written by a drained server replays: finished jobs are
   served from the journal (status cached), unfinished re-run. *)
let test_journal_replay_serves_cached () =
  let config = fast_config 2 `Process in
  let journal = temp_path ".journal" in
  let specs = [ ("rev", "cache me"); ("fail", "cached error") ] in
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      (with_server ~journal ~resume:false ~config @@ fun ~socket ~pid:_ ->
       let c1 = campaign ~socket specs in
       check_int "first pass results" 2 (List.length c1.Fleet.results);
       (* second campaign on the same server: all cached *)
       let c2 = campaign ~socket specs in
       List.iter2
         (fun a b -> check_string "cached equals fresh" a b)
         c1.Fleet.results c2.Fleet.results);
      (* a FRESH server process on the same journal serves from it *)
      with_server ~journal ~resume:true ~config @@ fun ~socket ~pid:_ ->
      let c3 = campaign ~socket specs in
      List.iteri
        (fun i (spec, got) ->
          check_string (Printf.sprintf "replayed result %d" i) (expected spec) got)
        (List.combine specs c3.Fleet.results))

(* ------------------------------ chaos -------------------------------- *)

(* The acceptance gate: under every injected fault the campaign still
   converges and its bytes equal the serverless baseline.  Process
   isolation so kill_child is exercised too. *)
let chaos_scenario ~seed () =
  let config =
    {
      (fast_config 2 `Process) with
      Server.chaos = Some (Server.default_chaos ~seed);
    }
  in
  let specs =
    List.init 10 (fun i ->
        if i mod 3 = 0 then ("fail", Printf.sprintf "chaos-%d" i)
        else ("rev", Printf.sprintf "chaos-%d" i))
  in
  let baseline = List.map expected specs in
  with_server ~config @@ fun ~socket ~pid:_ ->
  let c = campaign ~window:8 ~socket specs in
  List.iteri
    (fun i (want, got) ->
      check_string (Printf.sprintf "chaos seed=%d result %d" seed i) want got)
    (List.combine baseline c.Fleet.results)

let test_chaos_seed_7 = chaos_scenario ~seed:7
let test_chaos_seed_23 = chaos_scenario ~seed:23

let () =
  Alcotest.run "server"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "mixed campaign" `Quick test_basic_roundtrip;
          Alcotest.test_case "jobs/isolation invariance" `Quick
            test_results_jobs_isolation_invariant;
          Alcotest.test_case "duplicate specs dedup" `Quick
            test_dedup_duplicate_specs;
          Alcotest.test_case "health and stats" `Quick test_health_and_stats;
          Alcotest.test_case "unreachable one-shots are typed" `Quick
            test_health_unreachable_is_typed;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "bounded queue rejects, campaign recovers" `Quick
            test_bounded_queue_rejects_and_recovers;
        ] );
      ( "drain-recovery",
        [
          Alcotest.test_case "proc jobs=1" `Quick test_drain_recovery_proc_1;
          Alcotest.test_case "proc jobs=4" `Quick test_drain_recovery_proc_4;
          Alcotest.test_case "domain jobs=1" `Quick test_drain_recovery_domain_1;
          Alcotest.test_case "domain jobs=4" `Quick test_drain_recovery_domain_4;
          Alcotest.test_case "journal replays cached results" `Quick
            test_journal_replay_serves_cached;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "soak seed=7" `Quick test_chaos_seed_7;
          Alcotest.test_case "soak seed=23" `Quick test_chaos_seed_23;
        ] );
    ]
