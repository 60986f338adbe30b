(* Tests for the campaign benchmark's own machinery: span arithmetic,
   metric names, the seeded generator and the correctness gate. *)

open Perfbench

let span ?(parent = -1) id start stop =
  { Spans.id; name = "s"; run = "r"; parent; start; stop }

let feq = Alcotest.(check (float 1e-9))

let test_self_time_disjoint () =
  let p = span 0 0. 10. in
  feq "two disjoint children" 6. (Spans.self_time p ~children:[ span 1 1. 3. ~parent:0; span 2 5. 7. ~parent:0 ])

let test_self_time_nested () =
  let p = span 0 0. 10. in
  (* the inner child lies inside the outer one: covered once *)
  feq "nested children" 6. (Spans.self_time p ~children:[ span 1 2. 6. ~parent:0; span 2 3. 4. ~parent:0 ])

let test_self_time_overlapping () =
  let p = span 0 0. 10. in
  (* cells on two workers overlap: [1,5] u [3,8] = [1,8] *)
  feq "overlapping children" 3. (Spans.self_time p ~children:[ span 1 1. 5. ~parent:0; span 2 3. 8. ~parent:0 ]);
  feq "touching children" 4. (Spans.self_time p ~children:[ span 1 1. 4. ~parent:0; span 2 4. 7. ~parent:0 ])

let test_self_time_clipped () =
  let p = span 0 2. 6. in
  (* children sticking out of the parent only count inside it *)
  feq "clipped" 2. (Spans.self_time p ~children:[ span 1 0. 3. ~parent:0; span 2 5. 9. ~parent:0 ]);
  feq "no children" 4. (Spans.self_time p ~children:[])

let test_recorder () =
  let t = Spans.create () in
  let v =
    Spans.with_span t ~name:"outer" ~run:"r" (fun outer ->
        for _ = 1 to 3000 do
          Spans.add t ~name:"leaf" ~run:"r" ~parent:outer ~start:1. ~stop:2.
        done;
        42)
  in
  Alcotest.(check int) "value" 42 v;
  let all = Spans.spans t in
  Alcotest.(check int) "spans kept past growth" 3001 (List.length all);
  let outer = List.find (fun s -> s.Spans.name = "outer") all in
  Alcotest.(check int) "children indexed" 3000 (List.length (Spans.children_index all outer));
  (match Spans.with_span t ~name:"raises" ~run:"r" (fun _ -> failwith "boom") with
  | () -> Alcotest.fail "expected the exception to propagate"
  | exception Failure _ -> ());
  Alcotest.(check bool) "span recorded on raise" true
    (List.exists (fun s -> s.Spans.name = "raises") (Spans.spans t))

let test_tail_percentile () =
  Alcotest.(check (pair (float 0.) int)) "144 cells" (90., 14) (Spans.tail_percentile 144);
  Alcotest.(check (pair (float 0.) int)) "2000 cells" (99., 20) (Spans.tail_percentile 2000);
  Alcotest.(check (pair (float 0.) int)) "12 cells" (50., 6) (Spans.tail_percentile 12);
  let sorted = Array.init 100 (fun i -> float_of_int (i + 1)) in
  feq "p50" 50. (Spans.percentile sorted 50.);
  feq "p90" 90. (Spans.percentile sorted 90.)

(* ---------------------------- metric names ---------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* dune runs the test in _build/default/perfbench; the sources are
   copied there as dependencies. *)
let metric_names () =
  let names_in field json =
    match Obs.Json.member field json with
    | Some (Obs.Json.List l) ->
        List.filter_map
          (fun m -> Option.bind (Obs.Json.member "name" m) Obs.Json.to_string_opt)
          l
    | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ field)
  in
  let bench = Obs.Json.of_string (read_file "../BENCHMARK.json") in
  names_in "end_to_end" bench @ names_in "per_layer" bench @ names_in "workloads" bench

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let test_metric_charset () =
  let names = metric_names () in
  Alcotest.(check bool) "some names" true (List.length names > 30);
  List.iter (fun n -> Alcotest.(check bool) ("charset: " ^ n) true (valid_name n)) names;
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check bool) "rejects a space" false (valid_name "cell p50");
  Alcotest.(check bool) "rejects a slash" false (valid_name "obs/trace")

let test_layers_cover_per_layer () =
  let layers = Obs.Json.of_string (read_file "layers.json") in
  let bench = Obs.Json.of_string (read_file "../BENCHMARK.json") in
  match Obs.Json.member "per_layer" bench with
  | Some (Obs.Json.List l) ->
      List.iter
        (fun m ->
          let name = Option.get (Option.bind (Obs.Json.member "name" m) Obs.Json.to_string_opt) in
          Alcotest.(check bool) ("layers.json: " ^ name) true (Obs.Json.member name layers <> None))
        l
  | _ -> Alcotest.fail "no per_layer"

(* ---------------------------- generator ---------------------------- *)

let keys (w : Workload.t) = List.map Workload.key w.specs

let test_same_seed_same_cells () =
  List.iter
    (fun name ->
      let a = Workload.generate name ~seed:7 and b = Workload.generate name ~seed:7 in
      Alcotest.(check (list string)) (name ^ " repeatable") (keys a) (keys b);
      let c = Workload.generate name ~seed:8 in
      Alcotest.(check bool) (name ^ " seed matters") true (keys a <> keys c))
    Workload.names

let test_unique_keys () =
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          let w = Workload.generate name ~seed in
          let k = keys w in
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d unique" name seed)
            (List.length k)
            (List.length (List.sort_uniq String.compare k));
          if w.backend = Workload.Sweep then begin
            let ck = List.map (fun (c : Harness.Sweep.cell) -> c.key) (Workload.cells w) in
            Alcotest.(check int) "cell keys unique" (List.length ck)
              (List.length (List.sort_uniq String.compare ck))
          end)
        [ 0; 1; 2; 3; 99 ])
    Workload.names

let test_thm2_sides_odd () =
  List.iter
    (fun seed ->
      List.iter
        (fun s ->
          match s with
          | Workload.Thm2 { side; _ } -> Alcotest.(check int) "odd side" 1 (side mod 2)
          | _ -> ())
        (Workload.generate "sweep-traced" ~seed).specs)
    [ 0; 1; 2; 3 ]

(* ------------------------------ gate ------------------------------ *)

let thm1_ok =
  "thm1 vs ael (T=1) on 4000^2 grid, b-target k=9:\n\
  \  result=DEFEATED (monochromatic edge 41 -- 8) forced_b=0 cycle_b=- presented=14 revealed=46 \
   span=19x5 fits=true\n\
  \  guaranteed by theory: true (needs k > 4T+4)\n\
  \  max fitting k at this side/T: 9"

let thm2_ok =
  "thm2 torus side=201 vs greedy       result=DEFEATED (monochromatic edge 1 -- 40201) s_east=-1 \
   s_west=1 reflected=true presented=40401 preconditions=true"

let fuzz_ok = "wire-codec: PASS (20 cases)"
let reference = [ thm1_ok; thm2_ok; fuzz_ok ]

let replace_first s ~sub ~by =
  let n = String.length sub in
  let rec go i =
    if String.sub s i n = sub then String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

let test_gate_accepts_reference () =
  Alcotest.(check int) "no failures" 0 (List.length (Gate.check ~reference ~got:reference))

let test_gate_rejects_tampered_line () =
  (* one digit of one result line changed *)
  let tampered = [ thm1_ok; replace_first thm2_ok ~sub:"40401" ~by:"40402"; fuzz_ok ] in
  Alcotest.(check (list int)) "only the tampered cell" [ 1 ]
    (List.map fst (Gate.check ~reference ~got:tampered))

let test_gate_rules () =
  let survived = replace_first thm1_ok ~sub:"result=DEFEATED" ~by:"result=SURVIVED" in
  Alcotest.(check bool) "guaranteed and fitting thm1 must be defeated" true
    (Gate.rule_violation survived <> None);
  let not_guaranteed = replace_first survived ~sub:"theory: true" ~by:"theory: false" in
  Alcotest.(check bool) "a cell theory does not cover may survive" true
    (Gate.rule_violation not_guaranteed = None);
  Alcotest.(check bool) "preconditions" true
    (Gate.rule_violation (replace_first thm2_ok ~sub:"preconditions=true" ~by:"preconditions=false")
    <> None);
  Alcotest.(check bool) "error line" true (Gate.rule_violation "ERROR: Failure(\"x\")" <> None);
  Alcotest.(check bool) "quarantined line" true
    (Gate.rule_violation "QUARANTINED after 3 attempts" <> None);
  (* a rule violation fails even when the reference carries it too *)
  let bad = [ "ERROR: boom" ] in
  Alcotest.(check int) "reference is not trusted blindly" 1
    (List.length (Gate.check ~reference:bad ~got:bad))

let test_gate_missing_and_extra () =
  Alcotest.(check (list int)) "missing" [ 2 ]
    (List.map fst (Gate.check ~reference ~got:[ thm1_ok; thm2_ok ]));
  Alcotest.(check (list int)) "extra" [ 3 ]
    (List.map fst (Gate.check ~reference ~got:(reference @ [ fuzz_ok ])))

let test_reference_round_trip () =
  let path = Filename.temp_file "perfbench" ".ref" in
  Gate.save path reference;
  Alcotest.(check (list string)) "multi-line results survive" reference (Gate.load path);
  Sys.remove path

let () =
  Alcotest.run "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self time, disjoint children" `Quick test_self_time_disjoint;
          Alcotest.test_case "self time, nested children" `Quick test_self_time_nested;
          Alcotest.test_case "self time, overlapping children" `Quick test_self_time_overlapping;
          Alcotest.test_case "self time, clipped children" `Quick test_self_time_clipped;
          Alcotest.test_case "recorder" `Quick test_recorder;
          Alcotest.test_case "tail percentile" `Quick test_tail_percentile;
        ] );
      ( "names",
        [
          Alcotest.test_case "metric-name charset" `Quick test_metric_charset;
          Alcotest.test_case "layers.json covers per_layer" `Quick test_layers_cover_per_layer;
        ] );
      ( "generator",
        [
          Alcotest.test_case "same seed, same cells" `Quick test_same_seed_same_cells;
          Alcotest.test_case "unique keys" `Quick test_unique_keys;
          Alcotest.test_case "thm2 sides odd" `Quick test_thm2_sides_odd;
        ] );
      ( "gate",
        [
          Alcotest.test_case "accepts the reference" `Quick test_gate_accepts_reference;
          Alcotest.test_case "rejects one tampered line" `Quick test_gate_rejects_tampered_line;
          Alcotest.test_case "theorem rules" `Quick test_gate_rules;
          Alcotest.test_case "missing and extra results" `Quick test_gate_missing_and_extra;
          Alcotest.test_case "reference file round trip" `Quick test_reference_round_trip;
        ] );
    ]
