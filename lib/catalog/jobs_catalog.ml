(* The job-kind catalog: the cells behind every `sweep.exe thmN`
   subcommand and the handler behind serve.exe, so a job dispatched over
   the socket runs exactly the code a local sweep cell runs.

   A job's payload IS the sweep cell key ("t=1 k=9 side=4000 algo=ael",
   "host=grid size=24 seeds=2", "k=3 base-side=6 t=8", ...): the
   handler parses it back into parameters and produces the same result
   string the local sweep prints for that cell.  That shared
   representation is what the server's determinism contract rests on —
   `dispatch` output for a spec list is byte-identical to the
   serverless sweep over the same cells, whatever the servers'
   --jobs/--isolate/--chaos settings were.

   Payloads are accepted only in their canonical spelling (the parsed
   fields must re-print to the payload exactly), so one cell has one
   content-derived job id.  A payload that does not parse or is not
   canonical, an unknown parameter value, or an unknown kind raises —
   which the server maps to a typed "ERROR: ..." result, never a crash.

   Cell constructors take ~bulk (the executor fast path; identical
   result strings either way) and ~memo (the Canon.Memo caches; also
   identical result strings — hits replay recorded answers and Stats
   observes).  The socket handler always runs non-bulk and memo-off:
   server results stay byte-identical to historical runs by
   construction, not just by the equivalence arguments.  The thm4 and
   thm5 cells have neither switch. *)

open Online_local
module Sweep = Harness.Sweep

let kinds = [ "thm1"; "thm2"; "thm3"; "thm4"; "thm5"; "fuzz" ]

(* Run [cell] as the job for [payload], which it was parsed from — but
   only if [payload] is the cell's own key.  "t=1k=9side=400algo=ael",
   a doubled space or trailing junk scan as the same fields; accepting
   them would give one cell several job ids and answer with a result
   whose key is not the payload. *)
let run_canonical payload cell =
  if cell.Sweep.key <> payload then
    failwith ("non-canonical payload: " ^ payload);
  cell.Sweep.run ()

let memo_ctx ~memo algorithm =
  if memo then
    Some (Canon.Memo.create ~pure:algorithm.Models.Algorithm.pure ())
  else None

(* ------------------------------- thm1 -------------------------------- *)

(* name -> algorithm at locality t (only ael uses it) *)
let thm1_algorithms =
  [
    ("greedy", fun _ -> Portfolio.greedy ());
    ("parity", fun _ -> Portfolio.hint_parity ());
    ("stripes", fun _ -> Portfolio.stripes3 ());
    ("ael", fun t -> Portfolio.ael ~t ());
  ]

let thm1_algorithm name t =
  match List.assoc_opt name thm1_algorithms with
  | Some make -> make t
  | None -> failwith ("unknown algorithm: " ^ name)

(* Game-level report cache for thm1 cells.  The adversary's report is a
   pure function of (algorithm, executor radius, k, side, validate):
   the cell's [t] only enters through the algorithm's locality, so a
   t-axis sweep of a locality-independent algorithm replays one run per
   (k, side) — the cell text re-formats the cached report with its own
   t.  Sound for *any* deterministic algorithm, stateful or not: each
   live run instantiates a fresh instance, so the whole-run result
   (unlike a single skipped color call) carries no hidden state.
   Per-domain, per-process, never checkpointed — exactly like the step
   table (see lib/canon/README.md). *)
let thm1_report_tbl : (string, Thm1_adversary.report) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let thm1_run ?(bulk = false) ?(memo = false) ~validate ~t ~k ~side ~algo () =
  let algorithm = thm1_algorithm algo t in
  let run_live ?memo:ctx () =
    Thm1_adversary.run ~bulk ?memo:ctx ~validate ~n_side:side ~k ~algorithm ()
  in
  let r =
    if not memo then run_live ()
    else begin
      let radius = algorithm.Models.Algorithm.locality ~n:(side * side) in
      let gkey =
        Printf.sprintf "thm1|%s|%d|%d|%d|%b" algorithm.Models.Algorithm.name
          radius k side validate
      in
      let tbl = Domain.DLS.get thm1_report_tbl in
      match Hashtbl.find_opt tbl gkey with
      | Some r ->
          Canon.Memo.note_hit ~kind:"game" ~key:gkey;
          (* Replay the Stats observes the live run would have made, so
             a --stats file is byte-identical to the memo-off run. *)
          if Obs.Stats.on () then begin
            Obs.Stats.observe "thm1.presented" r.Thm1_adversary.presented;
            Obs.Stats.observe "thm1.revealed" r.Thm1_adversary.revealed;
            Obs.Stats.observe "thm1.span_width" r.Thm1_adversary.width;
            Obs.Stats.observe "thm1.span_height" r.Thm1_adversary.height
          end;
          r
      | None ->
          let r = run_live ?memo:(memo_ctx ~memo algorithm) () in
          Hashtbl.replace tbl gkey r;
          r
    end
  in
  Format.asprintf
    "thm1 vs %s (T=%d) on %d^2 grid, b-target k=%d:@.  %a@.  guaranteed by \
     theory: %b (needs k > 4T+4)@.  max fitting k at this side/T: %d"
    algo t side k Thm1_adversary.pp_report r
    (Thm1_adversary.guaranteed ~t ~k)
    (Thm1_adversary.recommended_k ~n_side:side ~t)

let thm1_cell ?(memo = false) ~bulk ~validate ~t ~k ~side ~algo () =
  {
    Sweep.key = Printf.sprintf "t=%d k=%d side=%d algo=%s" t k side algo;
    run = thm1_run ~bulk ~memo ~validate ~t ~k ~side ~algo;
  }

let thm1_of_key payload =
  Scanf.sscanf payload "t=%d k=%d side=%d algo=%s" (fun t k side algo ->
      run_canonical payload
        (thm1_cell ~bulk:false ~validate:false ~t ~k ~side ~algo ()))

(* ------------------------------- thm2 -------------------------------- *)

let thm2_wraps = [ ("torus", `Toroidal); ("cylinder", `Cylindrical) ]

let thm2_wrap_of name =
  match List.assoc_opt name thm2_wraps with
  | Some wrap -> wrap
  | None -> failwith ("unknown wrap: " ^ name)

let thm2_algorithms =
  [ ("greedy", Portfolio.greedy); ("ael(T=1)", fun () -> Portfolio.ael ~t:1 ()) ]

let thm2_run ?(bulk = false) ?(memo = false) ~side ~wrap ~algo () =
  let algorithm =
    match List.assoc_opt algo thm2_algorithms with
    | Some a -> a ()
    | None -> failwith ("unknown algorithm: " ^ algo)
  in
  let r =
    Thm2_adversary.run ~bulk
      ?memo:(memo_ctx ~memo algorithm)
      ~wrap:(thm2_wrap_of wrap) ~side ~algorithm ()
  in
  Format.asprintf "thm2 %s side=%d vs %-12s %a" wrap side algo
    Thm2_adversary.pp_report r

let thm2_cell ?(memo = false) ~bulk ~side ~wrap ~algo () =
  {
    Sweep.key = Printf.sprintf "wrap=%s side=%d algo=%s" wrap side algo;
    run = thm2_run ~bulk ~memo ~side ~wrap ~algo;
  }

let thm2_of_key payload =
  Scanf.sscanf payload "wrap=%s side=%d algo=%s" (fun wrap side algo ->
      run_canonical payload (thm2_cell ~bulk:false ~side ~wrap ~algo ()))

(* ------------------------------- thm3 -------------------------------- *)

let thm3_algorithms =
  [ ("greedy", Portfolio.greedy); ("gadget-rows", Portfolio.gadget_rows) ]

let thm3_run ?(bulk = false) ?(memo = false) ~k ~gadgets ~algo () =
  let algorithm =
    match List.assoc_opt algo thm3_algorithms with
    | Some a -> a ()
    | None -> failwith ("unknown algorithm: " ^ algo)
  in
  let r =
    Thm3_adversary.run ~bulk
      ?memo:(memo_ctx ~memo algorithm)
      ~k ~gadgets ~algorithm ()
  in
  Format.asprintf "thm3 k=%d gadgets=%d (n=%d) vs %-12s@.  %a" k gadgets
    (gadgets * k * k) algo Thm3_adversary.pp_report r

let thm3_cell ?(memo = false) ~bulk ~k ~gadgets ~algo () =
  {
    Sweep.key = Printf.sprintf "k=%d gadgets=%d algo=%s" k gadgets algo;
    run = thm3_run ~bulk ~memo ~k ~gadgets ~algo;
  }

let thm3_of_key payload =
  Scanf.sscanf payload "k=%d gadgets=%d algo=%s" (fun k gadgets algo ->
      run_canonical payload (thm3_cell ~bulk:false ~k ~gadgets ~algo ()))

(* ------------------------------- thm4 -------------------------------- *)

(* The smallest locality T* at which the Theorem 4 (k+1)-coloring
   succeeds on [host] against every adversarial order from [seeds],
   next to the prescribed locality and T*/log2(n). *)
let thm4_measure name host ~k ~oracle ~seeds =
  let nn = Grid_graph.Graph.n host in
  let orders = Measure.adversarial_orders ~host ~seeds in
  let make ~t = Kp1_coloring.make ~k ~locality:(fun ~n:_ -> t) () in
  let t_max = Kp1_coloring.default_locality ~k ~n:nn in
  match
    Measure.min_locality_for_success ~host ~palette:(k + 1) ~orders ~make ~oracle
      ~t_max ()
  with
  | Some t_star ->
      Format.asprintf "%s: n=%d T*=%d prescribed=%d T*/log2(n)=%.2f" name nn t_star
        t_max
        (float_of_int t_star /. (log (float_of_int nn) /. log 2.))
  | None -> Format.asprintf "%s: n=%d failed even at T=%d" name nn t_max

(* host name -> measurement at one size: grid and tri scale by side,
   ktree by node count *)
let thm4_hosts =
  [
    ( "grid",
      fun ~size ~seeds ->
        let g = Topology.Grid2d.create Topology.Grid2d.Simple ~rows:size ~cols:size in
        thm4_measure
          (Printf.sprintf "grid %dx%d (k=2)" size size)
          (Topology.Grid2d.graph g) ~k:2
          ~oracle:(Oracles.grid_bipartition g)
          ~seeds );
    ( "tri",
      fun ~size ~seeds ->
        let t = Topology.Tri_grid.create ~side:size in
        thm4_measure
          (Printf.sprintf "tri side=%d (k=3)" size)
          (Topology.Tri_grid.graph t) ~k:3 ~oracle:(Oracles.tri_grid t) ~seeds );
    ( "ktree",
      fun ~size ~seeds ->
        let kt = Topology.Ktree.random ~k:2 ~n:size ~seed:42 in
        thm4_measure
          (Printf.sprintf "2-tree n=%d (k=3)" size)
          (Topology.Ktree.graph kt) ~k:3 ~oracle:(Oracles.ktree kt) ~seeds );
  ]

(* [seeds] counts the random orders: seeds 1..[seeds]. *)
let thm4_run ~host ~size ~seeds () =
  match List.assoc_opt host thm4_hosts with
  | Some measure -> measure ~size ~seeds:(List.init seeds (fun i -> i + 1))
  | None -> failwith ("unknown host: " ^ host)

let thm4_cell ~host ~size ~seeds =
  {
    Sweep.key = Printf.sprintf "host=%s size=%d seeds=%d" host size seeds;
    run = thm4_run ~host ~size ~seeds;
  }

let thm4_of_key payload =
  Scanf.sscanf payload "host=%s size=%d seeds=%d" (fun host size seeds ->
      run_canonical payload (thm4_cell ~host ~size ~seeds))

(* ------------------------------- thm5 -------------------------------- *)

(* The Lemma 5.7 reduction on G_k (k layers over a base_side^2 grid)
   around the Theorem 4 algorithm at inner locality t. *)
let thm5_run ~k ~base_side ~t () =
  let base =
    Topology.Grid2d.graph
      (Topology.Grid2d.create Topology.Grid2d.Simple ~rows:base_side
         ~cols:base_side)
  in
  let lay = Topology.Layered.create ~base ~k in
  let host = Topology.Layered.graph lay in
  let inner = Kp1_coloring.make ~k:(k + 1) ~locality:(fun ~n:_ -> t) () in
  let reduced = Thm5_reduction.reduce ~inner in
  let order = Models.Fixed_host.orders ~all:host (`Random 17) in
  let outcome =
    Models.Fixed_host.run ~oracle:(Oracles.layered lay) ~host ~palette:(k + 1)
      ~algorithm:reduced ~order ()
  in
  Format.asprintf "thm5 reduction on G_%d (n=%d, inner T=%d): %a@.  proper=%b" k
    (Grid_graph.Graph.n host)
    t Models.Run_stats.pp_outcome outcome
    (Models.Run_stats.succeeded outcome ~colors:(k + 1) ~host)

let thm5_cell ~k ~base_side ~t =
  {
    Sweep.key = Printf.sprintf "k=%d base-side=%d t=%d" k base_side t;
    run = thm5_run ~k ~base_side ~t;
  }

let thm5_of_key payload =
  Scanf.sscanf payload "k=%d base-side=%d t=%d" (fun k base_side t ->
      run_canonical payload (thm5_cell ~k ~base_side ~t))

(* ------------------------------- fuzz -------------------------------- *)

(* Payload "target=NAME seed=N cases=N".  Cases run serially (jobs:1)
   inside whatever isolation the server provides; the one-line report
   matches bin/fuzz.exe's status line for the same (seed, cases). *)
let fuzz_of_payload payload =
  Scanf.sscanf payload "target=%s seed=%d cases=%d" (fun name seed cases ->
      if Printf.sprintf "target=%s seed=%d cases=%d" name seed cases <> payload
      then failwith ("non-canonical payload: " ^ payload);
      match Proptest.Fuzz_targets.find name with
      | None -> failwith ("unknown fuzz target: " ^ name)
      | Some target -> (
          let config =
            { Proptest.Runner.default_config with Proptest.Runner.seed; cases }
          in
          let r = Proptest.Fuzz_run.run_target ~jobs:1 ~config target in
          match r.Proptest.Fuzz_run.status with
          | Proptest.Fuzz_run.Passed { cases } ->
              Printf.sprintf "%s: PASS (%d cases)" name cases
          | Proptest.Fuzz_run.Skipped reason ->
              Printf.sprintf "%s: SKIP (%s)" name reason
          | Proptest.Fuzz_run.Failed c ->
              Printf.sprintf "%s: FAIL (case %d, size %d, %d shrinks)\n  %s" name
                c.Proptest.Runner.case c.Proptest.Runner.size
                c.Proptest.Runner.shrink_steps
                (Format.asprintf "%a" Proptest.Runner.pp_counterexample c)))

(* ------------------------------ dispatch ------------------------------ *)

let handler ~kind ~payload =
  match kind with
  | "thm1" -> thm1_of_key payload
  | "thm2" -> thm2_of_key payload
  | "thm3" -> thm3_of_key payload
  | "thm4" -> thm4_of_key payload
  | "thm5" -> thm5_of_key payload
  | "fuzz" -> fuzz_of_payload payload
  | other -> failwith ("unknown job kind: " ^ other)
