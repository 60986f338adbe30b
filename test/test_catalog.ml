(* Goldens for the job-kind catalog: the payload encodings are wire
   format (serve.exe clients pin them), and a catalog-dispatched job
   must produce byte-identical output to the local sweep cell it
   mirrors — that equality is the server determinism contract. *)

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* Pinned payloads: these strings travel over the socket.  Changing a
   cell key format is a wire-protocol break, not a cosmetic edit. *)
let test_pinned_keys () =
  let c1 =
    Jobs_catalog.thm1_cell ~bulk:false ~validate:false ~t:2 ~k:7 ~side:120
      ~algo:"greedy" ()
  in
  check_string "thm1 key" "t=2 k=7 side=120 algo=greedy" c1.Harness.Sweep.key;
  let c2 = Jobs_catalog.thm2_cell ~bulk:false ~side:9 ~wrap:"torus" ~algo:"greedy" () in
  check_string "thm2 key" "wrap=torus side=9 algo=greedy" c2.Harness.Sweep.key;
  let c3 = Jobs_catalog.thm3_cell ~bulk:false ~k:3 ~gadgets:4 ~algo:"greedy" () in
  check_string "thm3 key" "k=3 gadgets=4 algo=greedy" c3.Harness.Sweep.key;
  let c4 = Jobs_catalog.thm4_cell ~host:"grid" ~size:24 ~seeds:2 in
  check_string "thm4 key" "host=grid size=24 seeds=2" c4.Harness.Sweep.key;
  let c5 = Jobs_catalog.thm5_cell ~k:3 ~base_side:6 ~t:8 in
  check_string "thm5 key" "k=3 base-side=6 t=8" c5.Harness.Sweep.key

(* A job whose payload is a sweep cell's key produces the cell's exact
   result string — for every kind, through the public handler. *)
let test_catalog_matches_sweep_cells () =
  let pairs =
    [
      ( "thm1",
        Jobs_catalog.thm1_cell ~bulk:false ~validate:false ~t:1 ~k:5 ~side:60
          ~algo:"greedy" () );
      ( "thm1",
        Jobs_catalog.thm1_cell ~bulk:false ~validate:false ~t:2 ~k:6 ~side:60
          ~algo:"ael" () );
      ("thm2", Jobs_catalog.thm2_cell ~bulk:false ~side:9 ~wrap:"torus" ~algo:"greedy" ());
      ( "thm2",
        Jobs_catalog.thm2_cell ~bulk:false ~side:7 ~wrap:"cylinder" ~algo:"greedy" () );
      ("thm3", Jobs_catalog.thm3_cell ~bulk:false ~k:3 ~gadgets:4 ~algo:"gadget-rows" ());
      ("thm4", Jobs_catalog.thm4_cell ~host:"tri" ~size:6 ~seeds:2);
      ("thm4", Jobs_catalog.thm4_cell ~host:"ktree" ~size:40 ~seeds:1);
      ("thm5", Jobs_catalog.thm5_cell ~k:2 ~base_side:6 ~t:4);
    ]
  in
  List.iter
    (fun (kind, cell) ->
      let local = cell.Harness.Sweep.run () in
      let dispatched =
        Jobs_catalog.handler ~kind ~payload:cell.Harness.Sweep.key
      in
      check_string (kind ^ " " ^ cell.Harness.Sweep.key) local dispatched)
    pairs

(* Bulk and memo are execution strategies, not semantics: every
   combination yields the plain cell's bytes. *)
let test_cell_variants_agree () =
  let base ~bulk ~memo =
    (Jobs_catalog.thm1_cell ~memo ~bulk ~validate:false ~t:1 ~k:5 ~side:60
       ~algo:"stripes" ())
      .Harness.Sweep.run ()
  in
  let plain = base ~bulk:false ~memo:false in
  check_string "bulk" plain (base ~bulk:true ~memo:false);
  check_string "memo" plain (base ~bulk:false ~memo:true);
  check_string "memo warmed" plain (base ~bulk:false ~memo:true);
  check_string "bulk+memo" plain (base ~bulk:true ~memo:true)

(* Pinned result prefix: the report layout itself is part of what the
   server replays to historical clients. *)
let test_pinned_result_shape () =
  let out = Jobs_catalog.handler ~kind:"thm1" ~payload:"t=1 k=5 side=60 algo=greedy" in
  let has needle =
    let nl = String.length needle and hl = String.length out in
    let rec go i =
      i + nl <= hl && (String.sub out i nl = needle || go (i + 1))
    in
    go 0
  in
  check_bool "header" true (has "thm1 vs greedy (T=1) on 60^2 grid, b-target k=5:");
  check_bool "theory line" true (has "guaranteed by theory: false (needs k > 4T+4)")

(* Fuzz jobs: the payload format and the one-line PASS report are both
   pinned (the report must match bin/fuzz.exe's status line). *)
let test_fuzz_payload () =
  check_string "pinned pass line" "wire-codec: PASS (50 cases)"
    (Jobs_catalog.handler ~kind:"fuzz" ~payload:"target=wire-codec seed=42 cases=50");
  let raises f = match f () with exception _ -> true | _ -> false in
  check_bool "unknown target" true
    (raises (fun () ->
         Jobs_catalog.handler ~kind:"fuzz" ~payload:"target=zeta seed=1 cases=1"))

let test_bad_inputs_raise () =
  let raises f = match f () with exception _ -> true | _ -> false in
  check_bool "unknown kind" true
    (raises (fun () -> Jobs_catalog.handler ~kind:"thm9" ~payload:"x"));
  check_bool "bad payload" true
    (raises (fun () -> Jobs_catalog.handler ~kind:"thm1" ~payload:"garbage"));
  check_bool "unknown algo" true
    (raises (fun () ->
         Jobs_catalog.handler ~kind:"thm1" ~payload:"t=1 k=5 side=60 algo=zeta"));
  (* Non-canonical spellings scan as the canonical cell's fields; they
     must not run it under a second job id. *)
  List.iter
    (fun (kind, payload) ->
      check_bool ("non-canonical " ^ kind ^ " " ^ payload) true
        (raises (fun () -> Jobs_catalog.handler ~kind ~payload)))
    [
      ("thm1", "t=1 k=9 side=400 algo=ael junk");
      ("thm1", "t=1k=9side=400algo=ael");
      ("thm1", "t=1  k=9 side=400 algo=ael");
      ("fuzz", "target=wire-codec seed=042 cases=50");
      ("thm4", "host=grid size=+6 seeds=2");
      ("thm4", "host=moon size=6 seeds=2");
    ];
  List.iter
    (fun kind -> check_bool ("kinds lists " ^ kind) true (List.mem kind Jobs_catalog.kinds))
    [ "thm1"; "thm2"; "thm3"; "thm4"; "thm5"; "fuzz" ]

(* Exact result bytes, as MD5 digests, for a fixed set of cells.  The
   digests were recorded before the executors' adjacency storage was
   rewritten (thm4/thm5: from the sweep output before their cells moved
   into the catalog); any change to neighbor order,
   host construction or report formatting that moves a single byte
   shows up here.  The side-3 and
   side-5 thm2 cells (band row 3T+2 past the last host row) are pinned
   as the adversary plays them with the prefix clipped to the host. *)
let cell_digests =
  [
    ("thm1", "t=2 k=6 side=400 algo=ael", "49d2e24957e9f705be14a0496214f476");
    ("thm1", "t=2 k=6 side=400 algo=greedy", "18751bceac5c80bf98b4daeb38b4e63b");
    ("thm1", "t=2 k=6 side=400 algo=stripes", "fc231c7c8f0aa023253b879dd79d1e3b");
    ("thm2", "wrap=torus side=3 algo=greedy", "ba30b5d069dee139b9e0f1e6bf82c989");
    ("thm2", "wrap=torus side=3 algo=ael(T=1)", "58d6999d0db8f77dcbbf43c3e67bf519");
    ("thm2", "wrap=torus side=5 algo=greedy", "f8d1ae47aad901ba6753a07bdbf9f85d");
    ("thm2", "wrap=torus side=5 algo=ael(T=1)", "5cd460a0301eff23db19629f1aaaa167");
    ("thm2", "wrap=torus side=13 algo=greedy", "c49f4a5ad46e00a378b847bafafa8210");
    ("thm2", "wrap=torus side=13 algo=ael(T=1)", "c8544a478e0635c3910b42eaceedfeed");
    ("thm2", "wrap=torus side=31 algo=greedy", "4eccbc3612e451915a30e4ef2b6f9844");
    ("thm2", "wrap=torus side=31 algo=ael(T=1)", "8f3d7777852ff84abe63defff2aee1d8");
    ("thm2", "wrap=cylinder side=3 algo=greedy", "a82798906346fcee4db0740370b05d8c");
    ("thm2", "wrap=cylinder side=3 algo=ael(T=1)", "f4fe36c272bb56dc707fc073ac6fef34");
    ("thm2", "wrap=cylinder side=5 algo=greedy", "3438e523e92a201a7c43b24b9e014cd2");
    ("thm2", "wrap=cylinder side=5 algo=ael(T=1)", "15258d1117891d9c478ade22e919ca46");
    ("thm2", "wrap=cylinder side=13 algo=greedy", "078ecf20e7f9e7be686c6856de11f7df");
    ("thm2", "wrap=cylinder side=13 algo=ael(T=1)", "48127a9122099f9ef3ca1617cfe0bf05");
    ("thm2", "wrap=cylinder side=31 algo=greedy", "45c8e91c74ff144451bed6e6c0c03f89");
    ("thm2", "wrap=cylinder side=31 algo=ael(T=1)", "87f1c6a4109fa4f6d466f49dd1c9d2d0");
    ("thm3", "k=3 gadgets=8 algo=greedy", "30f33f87dfaaf29076e19201e022e16f");
    ("thm3", "k=3 gadgets=8 algo=gadget-rows", "d6d7adb47bb89409610b54adaae16688");
    ("thm4", "host=grid size=6 seeds=2", "269dcba6a8ab5f3f5353c170d5673d25");
    ("thm4", "host=grid size=8 seeds=2", "710ca371b7c0ee0c63f506f669dd67a9");
    ("thm4", "host=tri size=6 seeds=2", "63db41eff2f489111be907be71f29fd5");
    ("thm4", "host=ktree size=40 seeds=2", "d8ad86c0a43a03339575e327820e4aa0");
    ("thm5", "k=2 base-side=6 t=4", "2187c8b068b0ffe2e1be9552ae23c925");
    ("thm5", "k=2 base-side=6 t=8", "4348c54e667f3c53da6858055efaba52");
    ("thm5", "k=3 base-side=6 t=4", "68ef659617eba8dc75a4b2106e67588d");
    ("thm5", "k=3 base-side=6 t=8", "27b2615e9a8a5baf64b125ac5df43e03");
  ]

let test_cell_digests () =
  (* An algorithm failure's report says "[backtrace recorded]" when
     backtraces are on; the digests are of the sweeps' default. *)
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace false;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace recording)
    (fun () ->
      List.iter
        (fun (kind, payload, digest) ->
          check_string (kind ^ " " ^ payload) digest
            (Digest.to_hex (Digest.string (Jobs_catalog.handler ~kind ~payload))))
        cell_digests)

(* The thm1 game cache on a dense t-axis grid: thm1 t=1..12 k=12
   side=16000 algo=greedy,stripes validate=true, 24 cells.  greedy and
   stripes ignore t, so a cold cache runs each algorithm live once and
   replays the other eleven cells: exactly 22 hits and 2 misses, counted
   from the [Canon_hit {kind="game"}] events of an untimed cold pass.
   Memo-on output, cold and warm, must be byte-identical to memo-off,
   and the cold pass must run at least 1.5x faster than the best of two
   memo-off passes in the same process.  The memo tables are
   per-domain, so every memo-on pass starts on a freshly spawned
   domain. *)
let memo_grid_cells ~memo () =
  List.concat_map
    (fun t ->
      List.map
        (fun algo ->
          Jobs_catalog.thm1_cell ~memo ~bulk:false ~validate:true ~t ~k:12
            ~side:16_000 ~algo ())
        [ "greedy"; "stripes" ])
    (List.init 12 (fun i -> i + 1))

let render_memo_grid ~memo () =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let t0 = Unix.gettimeofday () in
  Harness.Sweep.run ~jobs:1 ~ppf (memo_grid_cells ~memo ());
  (Unix.gettimeofday () -. t0, Buffer.contents buf)

let on_fresh_domain f = Domain.join (Domain.spawn f)

let test_memo_grid () =
  let off_t1, off_out = render_memo_grid ~memo:false () in
  let off_t2, _ = render_memo_grid ~memo:false () in
  let (cold_t, cold_out), (_, warm_out) =
    on_fresh_domain (fun () ->
        let cold = render_memo_grid ~memo:true () in
        (cold, render_memo_grid ~memo:true ()))
  in
  check_string "memo-on cold = memo-off" off_out cold_out;
  check_string "memo-on warm = memo-off" off_out warm_out;
  let hits = Atomic.make 0 in
  Obs.Trace.set_hook
    (Some
       (function
       | Obs.Trace.Canon_hit { kind = "game"; _ } -> Atomic.incr hits
       | _ -> ()));
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_hook None)
    (fun () ->
      on_fresh_domain (fun () -> ignore (render_memo_grid ~memo:true ())));
  let cells = List.length (memo_grid_cells ~memo:true ()) in
  let hits = Atomic.get hits in
  Alcotest.(check int) "cold game-cache hits" 22 hits;
  Alcotest.(check int) "cold game-cache misses" 2 (cells - hits);
  let off_t = Float.min off_t1 off_t2 in
  let speedup = off_t /. cold_t in
  Printf.printf "memo-off best of 2: %.3f s, memo-on cold: %.3f s (%.2fx)\n"
    off_t cold_t speedup;
  if speedup < 1.5 then
    Alcotest.failf "cold memo speedup %.2fx is below 1.5x" speedup

let () =
  Alcotest.run "catalog"
    [
      ( "goldens",
        [
          Alcotest.test_case "pinned cell keys" `Quick test_pinned_keys;
          Alcotest.test_case "catalog = sweep cells" `Quick
            test_catalog_matches_sweep_cells;
          Alcotest.test_case "bulk/memo variants agree" `Quick
            test_cell_variants_agree;
          Alcotest.test_case "pinned result shape" `Quick
            test_pinned_result_shape;
          Alcotest.test_case "fuzz payload" `Quick test_fuzz_payload;
          Alcotest.test_case "bad inputs raise" `Quick test_bad_inputs_raise;
          Alcotest.test_case "cell digests" `Quick test_cell_digests;
        ] );
      ( "memo",
        [
          Alcotest.test_case "game cache 22/2, identity, speedup" `Quick
            test_memo_grid;
        ] );
    ]
