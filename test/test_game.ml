open Online_local

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_registry () =
  check_int "six games" 6 (List.length Game.games);
  check_bool "find known" true (Game.find "thm1-grid" <> None);
  check_bool "find upper" true (Game.find "upper-grid-oracle" <> None);
  check_bool "find unknown" true (Game.find "nonsense" = None)

let test_thm1_game_defeats_greedy () =
  let v = Game.thm1.Game.play ~n:3200 (Portfolio.greedy ()) in
  check_bool "defeated" true v.Game.defeated;
  check_bool "guaranteed at T=1" true v.Game.guaranteed;
  check_int "size recorded" 3200 v.Game.n

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_thm2_game_rounds_to_odd () =
  let v = Game.thm2_torus.Game.play ~n:20 (Portfolio.greedy ()) in
  check_int "odd side" 21 v.Game.n;
  check_bool "rounding visible in detail" true
    (contains ~needle:"side rounded 20 -> 21" v.Game.detail);
  check_bool "defeated" true v.Game.defeated

let test_thm2_game_odd_input_not_rounded () =
  let v = Game.thm2_torus.Game.play ~n:21 (Portfolio.greedy ()) in
  check_int "side kept" 21 v.Game.n;
  check_bool "no rounding note" false (contains ~needle:"rounded" v.Game.detail)

let test_thm2_cylinder_game () =
  let v = Game.thm2_cylinder.Game.play ~n:13 (Portfolio.greedy ()) in
  check_bool "defeated" true v.Game.defeated;
  check_bool "guaranteed" true v.Game.guaranteed

let test_thm3_game () =
  let v = Game.thm3.Game.play ~n:9 (Portfolio.gadget_rows ()) in
  check_bool "defeated" true v.Game.defeated;
  check_bool "guaranteed" true v.Game.guaranteed

let test_every_lower_game_beats_greedy () =
  List.iter
    (fun g ->
      let v = g.Game.play ~n:25 (Portfolio.greedy ()) in
      check_bool (g.Game.name ^ " beats greedy") true v.Game.defeated)
    [ Game.thm1; Game.thm2_torus; Game.thm2_cylinder; Game.thm3 ]

let test_upper_games_survivable () =
  let v = Game.upper_grid.Game.play ~n:8 (Portfolio.ael ~t:4 ()) in
  check_bool "ael survives the oracle-free grid" true (v.Game.outcome = Game.Survived);
  let v = Game.upper_grid_oracle.Game.play ~n:8 (Portfolio.kp1 ~k:2 ~t:8 ()) in
  check_bool "kp1 survives with the oracle" true (v.Game.outcome = Game.Survived)

let test_portfolio_run_games_total () =
  (* One faulty entry degrades its own verdicts only. *)
  let entries =
    [
      ("greedy", Portfolio.greedy ());
      ("saboteur", Harness.Faults.raise_at ~step:1 (Portfolio.greedy ()));
    ]
  in
  let results = Portfolio.run_games ~n:9 entries [ Game.thm3; Game.upper_grid ] in
  check_int "all pairings produced verdicts" 4 (List.length results);
  List.iter
    (fun (label, v) ->
      match (label, v.Game.outcome) with
      | "saboteur", Game.Algorithm_fault _ -> ()
      | "saboteur", o ->
          Alcotest.failf "saboteur should fault, got %s" (Game.outcome_label o)
      | _, (Game.Algorithm_fault _ | Game.Adversary_fault _) ->
          Alcotest.fail "healthy entry faulted"
      | _ -> ())
    results

let test_verdict_renders () =
  let v = Game.thm3.Game.play ~n:5 (Portfolio.greedy ()) in
  let s = Format.asprintf "%a" Game.pp_verdict v in
  check_bool "mentions adversary" true (contains ~needle:"thm3" s)

(* E7 fault matrix x memo: a memo-on play renders the exact verdict of a
   memo-off play — fault injection included (fault wrappers are impure,
   so the cache must decline them, not replay around them) — and a
   second memo-on play against a warmed per-domain cache agrees too. *)
let test_memo_matches_memo_off () =
  let limits =
    {
      Harness.Guard.max_color_calls = Some 200_000;
      max_work = Some 100_000;
      deadline = Some 10.0;
    }
  in
  List.iter
    (fun (game, n) ->
      List.iter
        (fun (fault, inject) ->
          List.iter
            (fun (aname, algo) ->
              let play ~memo = game.Game.play ~memo ~limits ~n (inject (algo ())) in
              let label which =
                Printf.sprintf "%s/%s/%s: %s = memo off" game.Game.name fault
                  aname which
              in
              let render v = Format.asprintf "%a" Game.pp_verdict v in
              let off = render (play ~memo:false) in
              Alcotest.(check string) (label "memo on") off (render (play ~memo:true));
              Alcotest.(check string) (label "warmed memo") off
                (render (play ~memo:true)))
            [ ("greedy", Portfolio.greedy); ("ael", fun () -> Portfolio.ael ~t:1 ()) ])
        (("none", fun algo -> algo) :: Harness.Faults.algorithm_faults))
    [
      (Game.thm1, 12);
      (Game.thm2_torus, 9);
      (Game.thm3, 7);
      (Game.upper_grid, 6);
    ]

(* Allocation per step, pinned.  Each config plays one warm-up game on
   the [~bulk:true] executor path against greedy, then one measured
   game: the presented step count must equal the pin, and the game's
   minor-heap words ([Gc.minor_words] of this domain; blocks larger than
   256 words go straight to the major heap and are not counted) must not
   exceed it.  Both are exact for a given compiler and independent of
   the hardware, so a regression that allocates on the per-step path
   fails here on any machine; a pure-CPU slowdown that allocates nothing
   does not, and is left to the campaign benchmark (perfbench/).  Pinned
   under OCaml 5.1.1 without flambda: (config, steps, words). *)
let alloc_pins =
  let greedy = Portfolio.greedy in
  [
    ( "thm3 k=3 gadgets=32", 288, 147_359,
      fun () ->
        (Thm3_adversary.run ~bulk:true ~k:3 ~gadgets:32 ~algorithm:(greedy ()) ())
          .Thm3_adversary.presented );
    ( "thm3 k=3 gadgets=128", 1152, 570_935,
      fun () ->
        (Thm3_adversary.run ~bulk:true ~k:3 ~gadgets:128 ~algorithm:(greedy ()) ())
          .Thm3_adversary.presented );
    ( "thm2 torus side=25", 625, 173_829,
      fun () ->
        (Thm2_adversary.run ~bulk:true ~wrap:`Toroidal ~side:25
           ~algorithm:(greedy ()) ())
          .Thm2_adversary.presented );
    ( "thm2 torus side=51", 2601, 686_257,
      fun () ->
        (Thm2_adversary.run ~bulk:true ~wrap:`Toroidal ~side:51
           ~algorithm:(greedy ()) ())
          .Thm2_adversary.presented );
    ( "thm1 k=6 side=400", 328, 86_163,
      fun () ->
        (Thm1_adversary.run ~bulk:true ~n_side:400 ~k:6 ~algorithm:(greedy ()) ())
          .Thm1_adversary.presented );
    ( "thm1 k=9 side=2000", 668, 177_314,
      fun () ->
        (Thm1_adversary.run ~bulk:true ~n_side:2000 ~k:9 ~algorithm:(greedy ()) ())
          .Thm1_adversary.presented );
  ]

let test_alloc_per_step_pinned () =
  List.iter
    (fun (name, steps, words, play) ->
      ignore (play ());
      let w0 = Gc.minor_words () in
      let presented = play () in
      let used = Gc.minor_words () -. w0 in
      Printf.printf "%s: %d steps, %.0f minor words (%.1f per step)\n" name
        presented used (used /. float_of_int presented);
      check_int (name ^ ": presented steps") steps presented;
      if used > float_of_int words then
        Alcotest.failf "%s: %.0f minor words per game, pinned <= %d (+%.0f)"
          name used words (used -. float_of_int words))
    alloc_pins

let () =
  Alcotest.run "game"
    [
      ( "registry",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "thm1 vs greedy" `Quick test_thm1_game_defeats_greedy;
          Alcotest.test_case "thm2 odd rounding" `Quick test_thm2_game_rounds_to_odd;
          Alcotest.test_case "thm2 odd input kept" `Quick
            test_thm2_game_odd_input_not_rounded;
          Alcotest.test_case "thm2 cylinder" `Quick test_thm2_cylinder_game;
          Alcotest.test_case "thm3" `Quick test_thm3_game;
          Alcotest.test_case "lower games beat greedy" `Slow
            test_every_lower_game_beats_greedy;
          Alcotest.test_case "upper games survivable" `Quick test_upper_games_survivable;
          Alcotest.test_case "portfolio total" `Quick test_portfolio_run_games_total;
          Alcotest.test_case "verdict renders" `Quick test_verdict_renders;
          Alcotest.test_case "memo = memo-off, fault matrix" `Slow
            test_memo_matches_memo_off;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "allocation per step pinned" `Quick
            test_alloc_per_step_pinned;
        ] );
    ]
