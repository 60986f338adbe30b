(* Each node's neighbors live in a flat [int array] (4 slots, doubled as
   needed) next to a degree count.  The slots are kept in the order a
   per-node [(int, unit) Hashtbl.t] would fold them, which is the order
   [neighbors] has always returned and callers' outputs depend on:

   - a table with [d] entries has [buckets d] buckets: 16, doubled
     whenever [d] exceeds twice the bucket count;
   - neighbors come by bucket index [Hashtbl.hash w land (buckets - 1)],
     descending, and within one bucket in insertion order.

   Resizing a [Hashtbl] keeps insertion order within each bucket, so the
   whole order is a stable sort by bucket index of the insertion order.
   DESIGN.md (invariant 2) states the contract; test/test_graph.ml pins it
   against a [Hashtbl] model. *)

type t = {
  mutable size : int;
  mutable adj : int array array;  (* [adj.(v).(0 .. deg.(v) - 1)] in order *)
  mutable deg : int array;
  mutable hash : int array;  (* [Hashtbl.hash v], cached per handle *)
}

let create () =
  { size = 0; adj = Array.make 16 [||]; deg = Array.make 16 0; hash = Array.make 16 0 }

let grow a cap fill =
  let fresh = Array.make cap fill in
  Array.blit a 0 fresh 0 (Array.length a);
  fresh

let add_node g =
  let v = g.size in
  if v = Array.length g.adj then begin
    let cap = 2 * v in
    g.adj <- grow g.adj cap [||];
    g.deg <- grow g.deg cap 0;
    g.hash <- grow g.hash cap 0
  end;
  g.hash.(v) <- Hashtbl.hash v;
  g.size <- v + 1;
  v

let check g v =
  if v < 0 || v >= g.size then invalid_arg "Dyn_graph: unknown handle"

let rec buckets_for d b = if d > 2 * b then buckets_for d (2 * b) else b

let mem g u v =
  let a = g.adj.(u) in
  let rec go i = i >= 0 && (a.(i) = v || go (i - 1)) in
  go (g.deg.(u) - 1)

(* Insertion sort of slots [from .. d-1] into the prefix by descending
   bucket index; strict comparison keeps equal indices in insertion order. *)
let sort_slots g a ~from d mask =
  for i = from to d - 1 do
    let x = a.(i) in
    let key = g.hash.(x) land mask in
    let j = ref i in
    while !j > 0 && g.hash.(a.(!j - 1)) land mask < key do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- x
  done

let insert g u w =
  let d = g.deg.(u) in
  let a =
    let a = g.adj.(u) in
    if d < Array.length a then a
    else begin
      let a = grow a (max 4 (2 * d)) 0 in
      g.adj.(u) <- a;
      a
    end
  in
  a.(d) <- w;
  g.deg.(u) <- d + 1;
  let b = buckets_for (d + 1) 16 in
  (* Crossing a resize threshold re-buckets every slot; otherwise only the
     new one moves. *)
  let from = if b = buckets_for d 16 then d else 1 in
  sort_slots g a ~from (d + 1) (b - 1)

let add_edge g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Dyn_graph: self-loop";
  if not (mem g u v) then begin
    insert g u v;
    insert g v u
  end

let n g = g.size

let mem_edge g u v =
  check g u;
  check g v;
  mem g u v

let neighbors g v =
  check g v;
  let a = g.adj.(v) in
  let rec build i acc = if i < 0 then acc else build (i - 1) (a.(i) :: acc) in
  build (g.deg.(v) - 1) []

let snapshot g =
  let edges = ref [] in
  for u = 0 to g.size - 1 do
    let a = g.adj.(u) in
    for i = 0 to g.deg.(u) - 1 do
      if u < a.(i) then edges := (u, a.(i)) :: !edges
    done
  done;
  Graph.create ~n:g.size ~edges:!edges
