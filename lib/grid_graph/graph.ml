type node = int

type t = { size : int; adj : int array array; edge_count : int }

let n g = g.size
let m g = g.edge_count

let check_endpoint size v =
  if v < 0 || v >= size then
    invalid_arg (Printf.sprintf "Graph: node %d out of range [0,%d)" v size)

(* Two passes over the arcs: the first checks each arc (the first bad one
   raises) and counts degrees, the second fills exact-size arrays, which
   are then sorted and deduplicated in place. *)
let of_arcs size arcs =
  let deg = Array.make size 0 in
  List.iter
    (fun (u, v) ->
      check_endpoint size u;
      check_endpoint size v;
      if u = v then invalid_arg "Graph: self-loop";
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    arcs;
  let adj = Array.map (fun d -> Array.make d 0) deg in
  let fill u v =
    let d = deg.(u) - 1 in
    adj.(u).(d) <- v;
    deg.(u) <- d
  in
  List.iter
    (fun (u, v) ->
      fill u v;
      fill v u)
    arcs;
  let edge_count = ref 0 in
  Array.iteri
    (fun u a ->
      Array.sort Int.compare a;
      let len = Array.length a in
      let kept = ref (min len 1) in
      for i = 1 to len - 1 do
        if a.(i) <> a.(!kept - 1) then begin
          a.(!kept) <- a.(i);
          incr kept
        end
      done;
      if !kept < len then adj.(u) <- Array.sub a 0 !kept;
      edge_count := !edge_count + !kept)
    adj;
  { size; adj; edge_count = !edge_count / 2 }

let create ~n:size ~edges =
  if size < 0 then invalid_arg "Graph.create: negative size";
  of_arcs size edges

let of_adjacency raw =
  let size = Array.length raw in
  let arcs = ref [] in
  Array.iteri (fun u nbrs -> Array.iter (fun v -> arcs := (u, v) :: !arcs) nbrs) raw;
  of_arcs size !arcs

let neighbors g v =
  check_endpoint g.size v;
  g.adj.(v)

let degree g v = Array.length (neighbors g v)

let max_degree g =
  Array.fold_left (fun acc a -> max acc (Array.length a)) 0 g.adj

let mem_edge g u v =
  check_endpoint g.size u;
  check_endpoint g.size v;
  let a = g.adj.(u) in
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then true
      else if a.(mid) < v then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length a)

let iter_edges g f =
  Array.iteri (fun u nbrs -> Array.iter (fun v -> if u < v then f u v) nbrs) g.adj

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f !acc u v);
  !acc

let edges g = List.rev (fold_edges g ~init:[] ~f:(fun acc u v -> (u, v) :: acc))

let iter_nodes g f =
  for v = 0 to g.size - 1 do
    f v
  done

let fold_nodes g ~init ~f =
  let acc = ref init in
  iter_nodes g (fun v -> acc := f !acc v);
  !acc

let equal g h = g.size = h.size && g.adj = h.adj

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.size g.edge_count;
  iter_edges g (fun u v -> Format.fprintf ppf "%d -- %d@," u v);
  Format.fprintf ppf "@]"

let empty size = create ~n:size ~edges:[]

let complete size =
  let edges = ref [] in
  for u = 0 to size - 1 do
    for v = u + 1 to size - 1 do
      edges := (u, v) :: !edges
    done
  done;
  create ~n:size ~edges:!edges

let path_graph size =
  let edges = List.init (max 0 (size - 1)) (fun i -> (i, i + 1)) in
  create ~n:size ~edges

let cycle_graph size =
  if size < 3 then invalid_arg "Graph.cycle_graph: need at least 3 nodes";
  let edges = (size - 1, 0) :: List.init (size - 1) (fun i -> (i, i + 1)) in
  create ~n:size ~edges

let union_disjoint g h =
  let off = g.size in
  let shifted = List.map (fun (u, v) -> (u + off, v + off)) (edges h) in
  create ~n:(g.size + h.size) ~edges:(edges g @ shifted)

let add_edges g es = create ~n:g.size ~edges:(es @ edges g)

let is_clique g vs =
  let rec pairwise = function
    | [] -> true
    | v :: rest -> List.for_all (fun w -> mem_edge g v w) rest && pairwise rest
  in
  pairwise vs
