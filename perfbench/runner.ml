(* One campaign of one workload, in this process.  perfbench/run.py
   starts a fresh runner for every repetition, so no cache survives
   from one timed campaign to the next.

     runner.exe reference -w W -s SEED --out FILE
       jobs=1, in-domain, memo-off, bulk-off rendering of the cells,
       one escaped line per cell (the correctness gate's reference).
     runner.exe timed -w W -s SEED --ref FILE --work DIR --serve EXE [--no-obs]
       the campaign as a user runs it; prints one JSON line with the
       dispatch and completion times, CPU seconds and the gate verdict.
     runner.exe traced -w W -s SEED --ref FILE --work DIR --serve EXE
       the same cells with spans around every call the benchmark makes
       into the program, then jobs=1 replays; prints the per-layer
       metrics as one JSON line and writes the spans to DIR.

   The benchmark only times its own calls into public entry points
   (Sweep.run, Fleet.run_campaign, ThmN_adversary.run,
   Jobs_catalog.handler); nothing inside lib/ is instrumented. *)

open Perfbench
module W = Workload

let now = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* --------------------------- sweep backend --------------------------- *)

(* Sweep.run prints each result followed by "@." — one flush per cell —
   so splitting the output stream at flushes recovers the delivered
   result of every cell, in cell order. *)
let capture () =
  let chunks = ref [] and buf = Buffer.create 4096 in
  let flush () =
    if Buffer.length buf > 0 then begin
      let s = Buffer.contents buf in
      chunks :=
        (if String.ends_with ~suffix:"\n" s then String.sub s 0 (String.length s - 1)
         else s)
        :: !chunks;
      Buffer.clear buf
    end
  in
  let ppf = Format.make_formatter (Buffer.add_substring buf) flush in
  (ppf, fun () -> List.rev !chunks)

let sweep ~jobs cells =
  let ppf, results = capture () in
  Harness.Sweep.run ~jobs ~ppf cells;
  results ()

(* Run [f] with the workload's observability sinks, writing them into
   [work]; returns [f]'s result.  Only sweep-traced turns them on. *)
let with_obs (w : W.t) ~work f =
  if not w.obs then f ()
  else begin
    Obs.Stats.enable ();
    let v = Obs.Trace.with_sink ~program:"perfbench" ~path:(Filename.concat work "trace.ndjson") f in
    let snap = Obs.Stats.drain () in
    Obs.Stats.disable ();
    Out_channel.with_open_bin (Filename.concat work "stats.json") (fun oc ->
        Out_channel.output_string oc (Obs.Json.to_string (Obs.Stats.snapshot_to_json snap)));
    v
  end

(* --------------------------- fleet backend --------------------------- *)

type server = { pid : int; socket : string }

let server_file ~work i ext = Filename.concat work (Printf.sprintf "s%d.%s" i ext)

let start_servers ~serve ~work n =
  let log = Unix.openfile (Filename.concat work "serve.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let servers =
    List.init n (fun i ->
        let path = server_file ~work i in
        let socket = path "sock" and journal = path "journal" and ready = path "ready" in
        List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ socket; journal; ready ];
        let pid =
          Unix.create_process serve
            [|
              serve; "--socket"; socket; "--isolate"; "proc"; "--jobs"; "1"; "--journal"; journal;
              "--advertise"; ready;
            |]
            devnull devnull log
        in
        (pid, ready, { pid; socket }))
  in
  Unix.close log;
  Unix.close devnull;
  let deadline = now () +. 60. in
  List.iter
    (fun (_, ready, _) ->
      while not (Sys.file_exists ready) do
        if now () > deadline then failwith "serve.exe did not advertise within 60 s";
        Unix.sleepf 0.0005
      done)
    servers;
  List.map (fun (_, _, s) -> s) servers

let stop_servers servers =
  List.iter (fun s -> try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ()) servers;
  List.iter (fun s -> ignore (Unix.waitpid [] s.pid)) servers

let fleet_specs (w : W.t) = List.map (fun s -> (W.kind s, W.payload s)) w.specs

(* ------------------------------- modes ------------------------------- *)

let render_reference (w : W.t) =
  match w.backend with
  | W.Sweep -> sweep ~jobs:1 (List.map (W.cell ~bulk:false ~memo:false) w.specs)
  | W.Fleet ->
      List.map (fun (kind, payload) -> Jobs_catalog.handler ~kind ~payload) (fleet_specs w)

type campaign = {
  results : string list;
  verdict_ok : bool;
  fleet : Harness.Fleet.campaign option;
  dispatch : float;
  done_ : float;
  cpu : float;
}

(* The campaign as a user runs it, from the first dispatch to the last
   delivered result.  [wrap] lets the traced run put a span around each
   cell thunk; [before_stop] probes the servers before they stop. *)
let campaign ?(wrap = Fun.id) ?(before_stop = ignore) (w : W.t) ~work ~serve =
  match w.backend with
  | W.Sweep ->
      let cells = List.map wrap (W.cells w) in
      let cpu0 = cpu_s () and dispatch = now () in
      let results = with_obs w ~work (fun () -> sweep ~jobs:w.jobs cells) in
      let done_ = now () in
      { results; verdict_ok = true; fleet = None; dispatch; done_; cpu = cpu_s () -. cpu0 }
  | W.Fleet ->
      let servers = start_servers ~serve ~work w.jobs in
      let specs = fleet_specs w in
      let cpu0 = cpu_s () and dispatch = now () in
      let outcome =
        match
          Harness.Fleet.run_campaign ~endpoints:(List.map (fun s -> s.socket) servers) specs
        with
        | c -> Ok c
        | exception Failure msg -> Error msg
      in
      let done_ = now () in
      before_stop servers;
      stop_servers servers;
      let cpu = cpu_s () -. cpu0 in
      (match outcome with
      | Ok c ->
          {
            results = c.Harness.Fleet.results;
            verdict_ok = c.verdict = `Full;
            fleet = Some c;
            dispatch;
            done_;
            cpu;
          }
      | Error msg ->
          prerr_endline ("perfbench: fleet campaign failed: " ^ msg);
          { results = []; verdict_ok = false; fleet = None; dispatch; done_; cpu })

let failures ~reference c =
  let cells = Gate.check ~reference ~got:c.results in
  if c.verdict_ok then cells
  else if cells = [] then [ (-1, "fleet verdict is not FULL") ]
  else cells

let json_line fields = print_endline (Obs.Json.to_string (Obs.Json.Obj fields))

let reasons_json fs =
  Obs.Json.List
    (List.filteri (fun i _ -> i < 5) fs
    |> List.map (fun (i, r) -> Obs.Json.String (Printf.sprintf "cell %d: %s" i r)))

let timed (w : W.t) ~reference ~work ~serve =
  let c = campaign w ~work ~serve in
  let reference = reference () in
  let fs = failures ~reference c in
  json_line
    [
      ("dispatch", Obs.Json.Float c.dispatch);
      ("done", Obs.Json.Float c.done_);
      ("cpu_s", Obs.Json.Float c.cpu);
      ("cells", Obs.Json.Int (List.length reference));
      ("failed", Obs.Json.Int (List.length fs));
      ("reasons", reasons_json fs);
    ]

(* ----------------------------- traced run ----------------------------- *)

let algorithm_of = function
  | W.Thm1 { t; algo; _ } -> Some (fun () -> Jobs_catalog.thm1_algorithm algo t)
  | W.Thm2 { algo; _ } -> Some (List.assoc algo Jobs_catalog.thm2_algorithms)
  | W.Thm3 { algo; _ } -> Some (List.assoc algo Jobs_catalog.thm3_algorithms)
  | W.Fuzz _ -> None

(* One game exactly as the catalog cell plays it, minus memo; returns
   (steps, revealed) from the report. *)
let play ~bulk spec (algorithm : Models.Algorithm.t) =
  let open Online_local in
  match spec with
  | W.Thm1 { k; side; _ } ->
      let r = Thm1_adversary.run ~bulk ~validate:false ~n_side:side ~k ~algorithm () in
      (r.Thm1_adversary.presented, r.revealed)
  | W.Thm2 { wrap; side; _ } ->
      let r = Thm2_adversary.run ~bulk ~wrap:(Jobs_catalog.thm2_wrap_of wrap) ~side ~algorithm () in
      (r.Thm2_adversary.presented, r.revealed)
  | W.Thm3 { k; gadgets; _ } ->
      let r = Thm3_adversary.run ~bulk ~k ~gadgets ~algorithm () in
      (r.Thm3_adversary.presented, r.revealed)
  | W.Fuzz _ -> (0, 0)

(* The algorithm instance handed to the adversary, with a leaf span
   around every color call that reaches it. *)
let timed_algorithm spans ~parent ~run (a : Models.Algorithm.t) =
  {
    a with
    Models.Algorithm.instantiate =
      (fun ~n ~palette ~oracle ->
        let inst = a.Models.Algorithm.instantiate ~n ~palette ~oracle in
        fun view ->
          let start = Spans.now () in
          let record () =
            Spans.add spans ~name:"algorithm" ~run ~parent ~start ~stop:(Spans.now ())
          in
          match inst view with
          | c ->
              record ();
              c
          | exception e ->
              record ();
              raise e);
  }

let fresh_domain f = Domain.join (Domain.spawn f)

(* Total time of the cells' thunks at jobs=1, in a fresh domain so the
   memo's per-domain tables start cold. *)
let cells_total_s cells =
  fresh_domain (fun () ->
      List.fold_left
        (fun acc (c : Harness.Sweep.cell) ->
          let t0 = now () in
          ignore (c.run ());
          acc +. (now () -. t0))
        0. cells)

let sorted_ms spans =
  let a = Array.of_list (List.map (fun s -> 1000. *. Spans.duration s) spans) in
  Array.sort compare a;
  a

let traced (w : W.t) ~reference ~work ~serve =
  let sp = Spans.create () in
  let campaign_id = Spans.open_ sp ~name:"campaign" ~run:w.name ~parent:(-1) in
  let wrap (c : Harness.Sweep.cell) =
    {
      c with
      Harness.Sweep.run =
        (fun () ->
          Spans.with_span sp ~name:"cell" ~run:c.key ~parent:campaign_id (fun _ -> c.run ()));
    }
  in
  let completed = ref [] in
  let before_stop servers =
    completed :=
      List.map
        (fun s ->
          match Harness.Client.stats ~socket:s.socket () with
          | Ok json -> (
              match Obs.Json.member "completed" (Obs.Json.of_string json) with
              | Some v -> Option.value ~default:0 (Obs.Json.to_int_opt v)
              | None -> 0)
          | Error _ -> 0)
        servers
  in
  let c = campaign ~wrap ~before_stop w ~work ~serve in
  Spans.close sp campaign_id ~start:c.dispatch ~stop:c.done_;
  let reference = reference () in
  let fs = failures ~reference c in
  let span = c.done_ -. c.dispatch in
  (* jobs=1 replay with a timed algorithm: algorithm and adversary layers *)
  let games = List.filter (fun s -> algorithm_of s <> None) w.specs in
  let steps = ref 0 and revealed = ref 0 in
  Spans.with_span sp ~name:"replay" ~run:w.name (fun replay ->
      List.iter
        (fun spec ->
          let mk = Option.get (algorithm_of spec) in
          let run = W.key spec in
          Spans.with_span sp ~name:"adversary.run" ~run ~parent:replay (fun gid ->
              let s, r = play ~bulk:w.bulk spec (timed_algorithm sp ~parent:gid ~run (mk ())) in
              steps := !steps + s;
              revealed := !revealed + r))
        games);
  (* the same replay untimed, for exact allocation figures *)
  let alloc = ref 0. and promoted = ref 0. and minor = ref 0 in
  List.iter
    (fun spec ->
      let algorithm = (Option.get (algorithm_of spec)) () in
      let g0 = Gc.quick_stat () in
      ignore (play ~bulk:w.bulk spec algorithm);
      let g1 = Gc.quick_stat () in
      let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
      alloc := !alloc +. (words g1 -. words g0);
      promoted := !promoted +. (g1.promoted_words -. g0.promoted_words);
      minor := !minor + (g1.minor_collections - g0.minor_collections))
    games;
  (* memo: cell time with the caches off minus on, both at jobs=1.  One
     pair is within host noise of the saving on sweep-thm1, so this is
     the median of three pairs, run in alternating order. *)
  let memo_saved =
    match w.backend with
    | W.Fleet -> 0. (* the server handler always runs memo-off *)
    | W.Sweep ->
        let total memo = cells_total_s (List.map (W.cell ~bulk:w.bulk ~memo) w.specs) in
        let pair i =
          if i = 1 then
            let on = total true in
            total false -. on
          else
            let off = total false in
            off -. total true
        in
        let saved = Array.init 3 pair in
        Array.sort compare saved;
        Spans.percentile saved 50.
  in
  (* fleet: the handler's own time on the same jobs, serverless *)
  if w.backend = W.Fleet then
    Spans.with_span sp ~name:"serverless" ~run:w.name (fun root ->
        List.iter
          (fun (kind, payload) ->
            Spans.with_span sp ~name:"handler" ~run:payload ~parent:root (fun _ ->
                ignore (Jobs_catalog.handler ~kind ~payload)))
          (fleet_specs w));
  let all = Spans.spans sp in
  Spans.write sp (Filename.concat work (Printf.sprintf "spans-%s-%d.ndjson" w.name w.seed));
  let children = Spans.children_index all in
  let named n = List.filter (fun s -> s.Spans.name = n) all in
  let sum f l = List.fold_left (fun acc s -> acc +. f s) 0. l in
  let handler_s = sum Spans.duration (named "handler") in
  let game_spans = named "adversary.run" and algo_spans = named "algorithm" in
  let adversary_self = sum (fun g -> Spans.self_time g ~children:(children g)) game_spans in
  let cell_spans = match w.backend with W.Sweep -> named "cell" | W.Fleet -> named "handler" in
  let cell_ms = sorted_ms cell_spans in
  let tail_p, tail_n = Spans.tail_percentile (Array.length cell_ms) in
  let busy = sum Spans.duration cell_spans in
  let utilization =
    match w.backend with
    | W.Sweep -> busy /. (float_of_int w.jobs *. span)
    | W.Fleet -> handler_s /. (float_of_int w.jobs *. span)
  in
  let tail_idle =
    match w.backend with
    | W.Fleet -> 0. (* jobs run inside the servers, out of the benchmark's sight *)
    | W.Sweep ->
        let last = List.fold_left (fun acc s -> Float.max acc s.Spans.start) c.dispatch cell_spans in
        let covered =
          sum (fun s -> Float.max 0. (Float.min s.Spans.stop c.done_ -. Float.max s.start last)) cell_spans
        in
        (float_of_int w.jobs *. (c.done_ -. last)) -. covered
  in
  let fleet f = match c.fleet with Some x -> float_of_int (f x) | None -> 0. in
  let total_completed = List.fold_left ( + ) 0 !completed in
  let trace_path = Filename.concat work "trace.ndjson" in
  let trace_events =
    if w.obs then
      In_channel.with_open_bin trace_path In_channel.input_all
      |> String.fold_left (fun n ch -> if ch = '\n' then n + 1 else n) 0
    else 0
  in
  let mb n = float_of_int n /. 1048576. and kb n = float_of_int n /. 1024. in
  let metrics =
    [
      ("algorithm.calls", float_of_int (List.length algo_spans));
      ("algorithm.self_s", sum Spans.duration algo_spans);
      ("adversary.games", float_of_int (List.length game_spans));
      ("adversary.steps", float_of_int !steps);
      ("adversary.revealed", float_of_int !revealed);
      ("adversary.self_s", adversary_self);
      ( "adversary.steps_per_s",
        if adversary_self > 0. then float_of_int !steps /. adversary_self else 0. );
      ("adversary.alloc_mwords", !alloc /. 1e6);
      ("adversary.promoted_mwords", !promoted /. 1e6);
      ("adversary.minor_gcs", float_of_int !minor);
      ("memo.saved_s", memo_saved);
      ("cell.count", float_of_int (Array.length cell_ms));
      ("cell.p50_ms", Spans.percentile cell_ms 50.);
      ("cell.tail_ms", Spans.percentile cell_ms tail_p);
      ("cell.tail_pct", tail_p);
      ("cell.tail_beyond", float_of_int tail_n);
      ("cell.max_ms", if Array.length cell_ms = 0 then 0. else cell_ms.(Array.length cell_ms - 1));
      ("backend.utilization", utilization);
      ("backend.tail_idle_s", tail_idle);
      ("fleet.resubmits", fleet (fun x -> x.Harness.Fleet.resubmits));
      ("fleet.rejections", fleet (fun x -> x.Harness.Fleet.rejections));
      ("fleet.reconnects", fleet (fun x -> x.Harness.Fleet.reconnects));
      ("fleet.failovers", fleet (fun x -> x.Harness.Fleet.failovers));
      ("fleet.duplicates", fleet (fun x -> x.Harness.Fleet.duplicates));
      ("fleet.handler_s", handler_s);
      ( "fleet.overhead_s",
        match w.backend with
        | W.Fleet -> (float_of_int w.jobs *. span) -. handler_s
        | W.Sweep -> 0. );
      ( "server.journal_kb",
        match w.backend with
        | W.Fleet ->
            kb
              (List.fold_left
                 (fun acc i -> acc + file_size (server_file ~work i "journal"))
                 0 (List.init w.jobs Fun.id))
        | W.Sweep -> 0. );
      ( "server.max_share",
        if total_completed = 0 then 0.
        else float_of_int (List.fold_left max 0 !completed) /. float_of_int total_completed );
      ("obs.trace_mb", if w.obs then mb (file_size trace_path) else 0.);
      ("obs.trace_events", float_of_int trace_events);
      ("obs.stats_kb", if w.obs then kb (file_size (Filename.concat work "stats.json")) else 0.);
    ]
  in
  json_line
    [
      ("campaign_s", Obs.Json.Float span);
      ("cells", Obs.Json.Int (List.length reference));
      ("failed", Obs.Json.Int (List.length fs));
      ("reasons", reasons_json fs);
      ("metrics", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) metrics));
    ]

(* ------------------------------- main ------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and out = ref "" and ref_file = ref "" in
  let work = ref "perfbench/_work" and serve = ref "_build/default/bin/serve.exe" in
  let no_obs = ref false in
  let specs =
    [
      ("-w", Arg.Set_string workload, "WORKLOAD");
      ("-s", Arg.Set_int seed, "SEED");
      ("--out", Arg.Set_string out, "FILE reference output");
      ("--ref", Arg.Set_string ref_file, "FILE reference to gate against");
      ("--work", Arg.Set_string work, "DIR scratch directory for sinks and sockets");
      ("--serve", Arg.Set_string serve, "EXE serve.exe to start for fleet workloads");
      ("--no-obs", Arg.Set no_obs, " run with the observability sinks off");
    ]
  in
  let mode = ref "" in
  Arg.parse specs (fun m -> mode := m) "runner.exe (reference|timed|traced) -w WORKLOAD -s SEED ...";
  let w = W.generate !workload ~seed:!seed in
  let w = if !no_obs then { w with W.obs = false } else w in
  (* loaded after the campaign, so reading it is not set-up time *)
  let reference () = Gate.load !ref_file in
  match !mode with
  | "reference" -> Gate.save !out (render_reference w)
  | "timed" -> timed w ~reference ~work:!work ~serve:!serve
  | "traced" -> traced w ~reference ~work:!work ~serve:!serve
  | m ->
      prerr_endline ("runner.exe: unknown mode " ^ m);
      exit 2
