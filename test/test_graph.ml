open Grid_graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_empty () =
  let g = Graph.empty 5 in
  check_int "n" 5 (Graph.n g);
  check_int "m" 0 (Graph.m g);
  check_int "max_degree" 0 (Graph.max_degree g)

let test_create_dedups () =
  let g = Graph.create ~n:3 ~edges:[ (0, 1); (1, 0); (0, 1); (1, 2) ] in
  check_int "m" 2 (Graph.m g);
  check_bool "edge 0-1" true (Graph.mem_edge g 0 1);
  check_bool "edge 1-0" true (Graph.mem_edge g 1 0);
  check_bool "no edge 0-2" false (Graph.mem_edge g 0 2)

let test_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph: self-loop") (fun () ->
      ignore (Graph.create ~n:2 ~edges:[ (1, 1) ]))

let test_out_of_range_rejected () =
  Alcotest.check_raises "range" (Invalid_argument "Graph: node 5 out of range [0,3)")
    (fun () -> ignore (Graph.create ~n:3 ~edges:[ (0, 5) ]))

let test_complete () =
  let g = Graph.complete 6 in
  check_int "m" 15 (Graph.m g);
  check_int "degree" 5 (Graph.degree g 3);
  check_bool "clique" true (Graph.is_clique g [ 0; 1; 2; 3; 4; 5 ])

let test_path_cycle () =
  let p = Graph.path_graph 5 in
  check_int "path m" 4 (Graph.m p);
  check_int "endpoint degree" 1 (Graph.degree p 0);
  let c = Graph.cycle_graph 5 in
  check_int "cycle m" 5 (Graph.m c);
  check_bool "wrap edge" true (Graph.mem_edge c 0 4);
  Alcotest.check_raises "small cycle"
    (Invalid_argument "Graph.cycle_graph: need at least 3 nodes") (fun () ->
      ignore (Graph.cycle_graph 2))

let test_neighbors_sorted () =
  let g = Graph.create ~n:5 ~edges:[ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (Graph.neighbors g 2)

let test_iter_edges_each_once () =
  let g = Graph.complete 5 in
  let count = ref 0 in
  Graph.iter_edges g (fun u v ->
      incr count;
      check_bool "ordered" true (u < v));
  check_int "edge count" 10 !count

let test_union_disjoint () =
  let g = Graph.union_disjoint (Graph.path_graph 3) (Graph.cycle_graph 3) in
  check_int "n" 6 (Graph.n g);
  check_int "m" 5 (Graph.m g);
  check_bool "no cross edge" false (Graph.mem_edge g 2 3);
  check_bool "shifted edge" true (Graph.mem_edge g 3 4)

let test_add_edges () =
  let g = Graph.add_edges (Graph.empty 4) [ (0, 1); (2, 3) ] in
  check_int "m" 2 (Graph.m g);
  let g' = Graph.add_edges g [ (0, 1); (1, 2) ] in
  check_int "m after dup add" 3 (Graph.m g')

let test_equal () =
  let g1 = Graph.create ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  let g2 = Graph.create ~n:3 ~edges:[ (1, 2); (0, 1) ] in
  let g3 = Graph.create ~n:3 ~edges:[ (0, 2); (1, 2) ] in
  check_bool "equal" true (Graph.equal g1 g2);
  check_bool "not equal" false (Graph.equal g1 g3)

let test_of_adjacency () =
  let g = Graph.of_adjacency [| [| 1 |]; [||]; [| 1 |] |] in
  check_bool "symmetrized" true (Graph.mem_edge g 1 0);
  check_int "m" 2 (Graph.m g)

let test_is_clique () =
  let g = Graph.create ~n:4 ~edges:[ (0, 1); (1, 2); (0, 2); (0, 3) ] in
  check_bool "triangle" true (Graph.is_clique g [ 0; 1; 2 ]);
  check_bool "not clique" false (Graph.is_clique g [ 0; 1; 3 ]);
  check_bool "edge is clique" true (Graph.is_clique g [ 0; 3 ]);
  check_bool "singleton" true (Graph.is_clique g [ 2 ])

(* Random graph generator for property tests; a failing graph shrinks
   by dropping edges and regenerating at smaller node counts. *)
let random_graph_gen : Graph.t Proptest.Gen.t =
  let open Proptest.Gen in
  bind (int_range 1 40) (fun n ->
      bind (int_range 0 (n * 3)) (fun m ->
          let endpoint = int_range 0 (n - 1) in
          map
            (fun pairs ->
              let edges = List.filter (fun (u, v) -> u <> v) pairs in
              Graph.create ~n ~edges)
            (list_size m (pair endpoint endpoint))))

let config = { Proptest.Runner.default_config with seed = 0x9AF; cases = 200 }

let prop name p =
  Alcotest.test_case name `Quick (fun () ->
      Proptest.Runner.check_exn ~config ~name
        ~print:Proptest.Domain_gen.print_graph random_graph_gen p)

let prop_degree_sum =
  prop "sum of degrees = 2m" (fun g ->
      let sum = Graph.fold_nodes g ~init:0 ~f:(fun acc v -> acc + Graph.degree g v) in
      sum = 2 * Graph.m g)

let prop_mem_edge_symmetric =
  prop "mem_edge symmetric" (fun g ->
      Graph.fold_nodes g ~init:true ~f:(fun acc u ->
          acc
          && Array.for_all
               (fun v -> Graph.mem_edge g u v && Graph.mem_edge g v u)
               (Graph.neighbors g u)))

let prop_edges_roundtrip =
  prop "create (edges g) = g" (fun g ->
      Graph.equal g (Graph.create ~n:(Graph.n g) ~edges:(Graph.edges g)))

let prop_max_degree =
  prop "max_degree is the max" (fun g ->
      let manual = Graph.fold_nodes g ~init:0 ~f:(fun acc v -> max acc (Graph.degree g v)) in
      manual = Graph.max_degree g)

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial count" 6 (Union_find.count uf);
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  check_bool "same" true (Union_find.same uf 1 2);
  check_bool "different" false (Union_find.same uf 1 4);
  check_int "size" 4 (Union_find.size uf 1);
  check_int "count" 3 (Union_find.count uf);
  ignore (Union_find.union uf 1 2);
  check_int "idempotent count" 3 (Union_find.count uf)

let test_uf_dyn () =
  let uf = Online_local.Uf_dyn.create () in
  Online_local.Uf_dyn.ensure uf 10;
  ignore (Online_local.Uf_dyn.union uf 3 7);
  Online_local.Uf_dyn.ensure uf 100;
  ignore (Online_local.Uf_dyn.union uf 7 99);
  check_bool "same across growth" true (Online_local.Uf_dyn.same uf 3 99);
  check_int "size" 3 (Online_local.Uf_dyn.size uf 99);
  check_bool "isolated" false (Online_local.Uf_dyn.same uf 0 3)

let test_dyn_graph () =
  let d = Dyn_graph.create () in
  let a = Dyn_graph.add_node d in
  let b = Dyn_graph.add_node d in
  let c = Dyn_graph.add_node d in
  Dyn_graph.add_edge d a b;
  Dyn_graph.add_edge d b c;
  Dyn_graph.add_edge d a b;
  check_int "n" 3 (Dyn_graph.n d);
  check_bool "edge" true (Dyn_graph.mem_edge d b a);
  check_int "neighbors of b" 2 (List.length (Dyn_graph.neighbors d b));
  let s = Dyn_graph.snapshot d in
  check_int "snapshot m" 2 (Graph.m s);
  Alcotest.check_raises "loop" (Invalid_argument "Dyn_graph: self-loop") (fun () ->
      Dyn_graph.add_edge d a a)

let test_dyn_graph_growth () =
  let d = Dyn_graph.create () in
  for _ = 1 to 100 do
    ignore (Dyn_graph.add_node d)
  done;
  for i = 0 to 98 do
    Dyn_graph.add_edge d i (i + 1)
  done;
  check_int "n" 100 (Dyn_graph.n d);
  check_int "snapshot m" 99 (Graph.m (Dyn_graph.snapshot d))

(* Reference model for [Dyn_graph]: the per-node [Hashtbl] it used to be
   built on.  Its [neighbors] order is the contract the flat-array version
   must keep, because executor outputs were recorded under it. *)
module Hashtbl_dyn = struct
  type t = { mutable size : int; mutable adj : (int, unit) Hashtbl.t array }

  let create () = { size = 0; adj = Array.init 16 (fun _ -> Hashtbl.create 4) }

  let add_node g =
    let cap = Array.length g.adj in
    if g.size + 1 > cap then begin
      let fresh = Array.init (2 * cap) (fun _ -> Hashtbl.create 4) in
      Array.blit g.adj 0 fresh 0 cap;
      g.adj <- fresh
    end;
    g.size <- g.size + 1;
    g.size - 1

  let check g v = if v < 0 || v >= g.size then invalid_arg "Dyn_graph: unknown handle"

  let add_edge g u v =
    check g u;
    check g v;
    if u = v then invalid_arg "Dyn_graph: self-loop";
    Hashtbl.replace g.adj.(u) v ();
    Hashtbl.replace g.adj.(v) u ()

  let mem_edge g u v =
    check g u;
    check g v;
    Hashtbl.mem g.adj.(u) v

  let neighbors g v =
    check g v;
    Hashtbl.fold (fun w () acc -> w :: acc) g.adj.(v) []

  let snapshot g =
    let edges = ref [] in
    for u = 0 to g.size - 1 do
      Hashtbl.iter (fun v () -> if u < v then edges := (u, v) :: !edges) g.adj.(u)
    done;
    Graph.create ~n:g.size ~edges:!edges
end

let outcome f = match f () with x -> Ok x | exception Invalid_argument m -> Error m

(* Random [add_node]/[add_edge] sequences with duplicate edges, both
   orientations, bad calls, and a hub of degree >= 70, so the re-sorts at
   degrees 33 and 65 run.  After every step the touched nodes' neighbor
   lists, and every 32 steps all of them, must equal the model's, element
   for element. *)
let test_dyn_graph_model () =
  let rng = Random.State.make [| 0xD16 |] in
  for trial = 1 to 25 do
    let d = Dyn_graph.create () and m = Hashtbl_dyn.create () in
    let hub_degree = 70 + Random.State.int rng 40 in
    let target = hub_degree + 10 + Random.State.int rng 60 in
    let ctx step = Printf.sprintf "trial %d step %d" trial step in
    let same_neighbors step v =
      Alcotest.(check (list int)) (ctx step) (Hashtbl_dyn.neighbors m v)
        (Dyn_graph.neighbors d v)
    in
    let add step u v =
      Dyn_graph.add_edge d u v;
      Hashtbl_dyn.add_edge m u v;
      same_neighbors step u;
      same_neighbors step v
    in
    for step = 1 to 6 * target do
      let n = Dyn_graph.n d in
      let pick () = Random.State.int rng (max n 1) in
      (match Random.State.int rng 10 with
      | 0 | 1 when n < target ->
          check_int (ctx step) (Hashtbl_dyn.add_node m) (Dyn_graph.add_node d)
      | 2 | 3 when n > 1 ->
          (* Hub edge, either orientation; repeats are duplicates. *)
          let w = 1 + Random.State.int rng (min (n - 1) (hub_degree + 20)) in
          if Random.State.bool rng then add step 0 w else add step w 0
      | 4 ->
          (* Self-loops and unknown handles raise the same message. *)
          let u = pick () and v = if Random.State.bool rng then n + 1 else -1 in
          let u, v = if Random.State.bool rng then (u, u) else (u, v) in
          let got = outcome (fun () -> Dyn_graph.add_edge d u v) in
          let want = outcome (fun () -> Hashtbl_dyn.add_edge m u v) in
          check_bool (ctx step ^ " error") true (got = want)
      | _ when n > 1 ->
          let u = pick () and v = pick () in
          if u <> v then add step u v
      | _ -> ());
      let n = Dyn_graph.n d in
      if step mod 32 = 0 then
        for v = 0 to n - 1 do
          same_neighbors step v
        done;
      if n > 0 then begin
        let u = Random.State.int rng n and v = Random.State.int rng n in
        check_bool (ctx step ^ " mem_edge") (Hashtbl_dyn.mem_edge m u v)
          (Dyn_graph.mem_edge d u v)
      end
    done;
    for v = 0 to Dyn_graph.n d - 1 do
      same_neighbors 0 v
    done;
    check_bool "hub re-sorted twice" true (List.length (Dyn_graph.neighbors d 0) > 64);
    check_bool "snapshot" true
      (Graph.equal (Hashtbl_dyn.snapshot m) (Dyn_graph.snapshot d))
  done

(* Reference for [Graph.create]: the single-pass list-bucket [of_arcs] it
   replaced.  Returns the adjacency arrays. *)
let list_bucket_of_arcs size arcs =
  let check_endpoint v =
    if v < 0 || v >= size then
      invalid_arg (Printf.sprintf "Graph: node %d out of range [0,%d)" v size)
  in
  let buckets = Array.make size [] in
  List.iter
    (fun (u, v) ->
      check_endpoint u;
      check_endpoint v;
      if u = v then invalid_arg "Graph: self-loop";
      buckets.(u) <- v :: buckets.(u);
      buckets.(v) <- u :: buckets.(v))
    arcs;
  Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) buckets

(* Random arc lists with duplicates, both orientations and isolated
   nodes; one in four also carries bad arcs, and then the first bad arc
   must raise the same message. *)
let test_of_arcs_differential () =
  let rng = Random.State.make [| 0xA2C |] in
  for trial = 1 to 400 do
    let n = 1 + Random.State.int rng 60 in
    (* Endpoints come from the lower part only, leaving isolated nodes. *)
    let span = 1 + Random.State.int rng n in
    let arc () = (Random.State.int rng span, Random.State.int rng span) in
    let arcs = ref [] in
    for _ = 1 to Random.State.int rng (4 * n) do
      let a = arc () in
      arcs := a :: !arcs;
      if Random.State.int rng 4 = 0 then arcs := (snd a, fst a) :: !arcs
    done;
    let arcs = List.filter (fun (u, v) -> u <> v) !arcs in
    let arcs =
      if trial mod 4 <> 0 then arcs
      else
        let bad =
          match Random.State.int rng 3 with
          | 0 -> (0, 0)
          | 1 -> (Random.State.int rng n, n + Random.State.int rng 3)
          | _ -> (-1 - Random.State.int rng 3, Random.State.int rng n)
        in
        let k = Random.State.int rng (List.length arcs + 1) in
        List.filteri (fun i _ -> i < k) arcs @ (bad :: List.filteri (fun i _ -> i >= k) arcs)
    in
    let ctx = Printf.sprintf "trial %d" trial in
    match
      ( outcome (fun () -> list_bucket_of_arcs n arcs),
        outcome (fun () -> Graph.create ~n ~edges:arcs) )
    with
    | Ok want, Ok g ->
        check_int ctx n (Graph.n g);
        Array.iteri
          (fun v a -> Alcotest.(check (array int)) ctx a (Graph.neighbors g v))
          want;
        check_int (ctx ^ " m") (Array.fold_left (fun s a -> s + Array.length a) 0 want / 2)
          (Graph.m g)
    | Error want, Error got -> Alcotest.(check string) ctx want got
    | _ -> Alcotest.fail (ctx ^ ": one side raised, the other did not")
  done

let () =
  Alcotest.run "grid_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "create dedups" `Quick test_create_dedups;
          Alcotest.test_case "self loop rejected" `Quick test_self_loop_rejected;
          Alcotest.test_case "out of range rejected" `Quick test_out_of_range_rejected;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "path and cycle" `Quick test_path_cycle;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "iter_edges once" `Quick test_iter_edges_each_once;
          Alcotest.test_case "union_disjoint" `Quick test_union_disjoint;
          Alcotest.test_case "add_edges" `Quick test_add_edges;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "of_adjacency" `Quick test_of_adjacency;
          Alcotest.test_case "is_clique" `Quick test_is_clique;
        ] );
      ( "graph-properties",
        [ prop_degree_sum; prop_mem_edge_symmetric; prop_edges_roundtrip; prop_max_degree ] );
      ( "union-find",
        [
          Alcotest.test_case "union find" `Quick test_union_find;
          Alcotest.test_case "uf_dyn" `Quick test_uf_dyn;
        ] );
      ( "dyn-graph",
        [
          Alcotest.test_case "dyn graph" `Quick test_dyn_graph;
          Alcotest.test_case "dyn graph growth" `Quick test_dyn_graph_growth;
          Alcotest.test_case "dyn graph = hashtbl model" `Quick test_dyn_graph_model;
          Alcotest.test_case "of_arcs = list buckets" `Quick test_of_arcs_differential;
        ] );
    ]
