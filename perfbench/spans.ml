(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent, run id).  Spans are recorded
   from the benchmark's own wrappers around calls into the program —
   never from inside lib/ — kept in memory under one mutex (cells on
   pool workers record concurrently), and written out once the run
   ends. *)

type span = {
  id : int;
  name : string;
  run : string;  (** spans of one cell or game share a run id *)
  parent : int;  (** -1 for a root *)
  start : float;
  stop : float;
}

(* Column storage: a leaf span (one algorithm color call) costs a few
   array writes and no allocation, so recording half a million of them
   neither skews the timings nor feeds the major heap. *)
type t = {
  mutex : Mutex.t;
  mutable n : int;
  mutable names : string array;
  mutable runs : string array;
  mutable parents : int array;
  mutable starts : Float.Array.t;
  mutable stops : Float.Array.t;
}

let create () =
  let cap = 1024 in
  {
    mutex = Mutex.create ();
    n = 0;
    names = Array.make cap "";
    runs = Array.make cap "";
    parents = Array.make cap (-1);
    starts = Float.Array.make cap 0.;
    stops = Float.Array.make cap 0.;
  }

let now = Unix.gettimeofday

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  let extend_f a =
    let b = Float.Array.make cap 0. in
    Float.Array.blit a 0 b 0 (Float.Array.length a);
    b
  in
  t.names <- extend t.names "";
  t.runs <- extend t.runs "";
  t.parents <- extend t.parents (-1);
  t.starts <- extend_f t.starts;
  t.stops <- extend_f t.stops

(* Reserve an id; its times are filled in by [close]. *)
let open_ t ~name ~run ~parent =
  Mutex.protect t.mutex (fun () ->
      if t.n = Array.length t.names then grow t;
      let id = t.n in
      t.n <- id + 1;
      t.names.(id) <- name;
      t.runs.(id) <- run;
      t.parents.(id) <- parent;
      id)

let close t id ~start ~stop =
  Mutex.protect t.mutex (fun () ->
      Float.Array.set t.starts id start;
      Float.Array.set t.stops id stop)

let add t ~name ~run ~parent ~start ~stop = close t (open_ t ~name ~run ~parent) ~start ~stop

(* Run [f] inside a span; the span is recorded even when [f] raises.
   [f] receives the span's id so it can parent children to it. *)
let with_span t ~name ~run ?(parent = -1) f =
  let id = open_ t ~name ~run ~parent in
  let start = now () in
  match f id with
  | v ->
      close t id ~start ~stop:(now ());
      v
  | exception e ->
      close t id ~start ~stop:(now ());
      raise e

let spans t =
  Mutex.protect t.mutex (fun () ->
      List.init t.n (fun id ->
          {
            id;
            name = t.names.(id);
            run = t.runs.(id);
            parent = t.parents.(id);
            start = Float.Array.get t.starts id;
            stop = Float.Array.get t.stops id;
          }))

let duration s = s.stop -. s.start

(* The part of [lo, hi] covered by the union of [intervals]: clip each
   interval to the window, sort by start, and sweep, so nested and
   overlapping children are counted once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, (cur_a, cur_b)) (a, b) ->
        if a > cur_b then (total +. (cur_b -. cur_a), (a, b))
        else (total, (cur_a, Float.max cur_b b)))
      (0., (lo, lo))
      sorted
  in
  total +. (snd last -. fst last)

(* Self time: the span's duration minus the part its children cover. *)
let self_time span ~children =
  duration span
  -. covered ~lo:span.start ~hi:span.stop
       (List.map (fun c -> (c.start, c.stop)) children)

(* Children grouped by parent id, for self times over many spans. *)
let children_index all =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add tbl s.parent s) all;
  fun span -> Hashtbl.find_all tbl span.id

let to_json s =
  Obs.Json.Obj
    [
      ("id", Obs.Json.Int s.id);
      ("name", Obs.Json.String s.name);
      ("run", Obs.Json.String s.run);
      ("parent", Obs.Json.Int s.parent);
      ("start", Obs.Json.Float s.start);
      ("end", Obs.Json.Float s.stop);
    ]

let write t path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Out_channel.output_string oc (Obs.Json.to_string (to_json s));
          Out_channel.output_char oc '\n')
        (spans t))

(* ---------------------------- percentiles ---------------------------- *)

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* The highest of a fixed ladder of percentiles that still has at least
   ten samples beyond it, with the number beyond it; p50 when even that
   has fewer than ten. *)
let tail_percentile n =
  let beyond p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  match List.find_opt (fun p -> beyond p >= 10) [ 99.9; 99.; 90.; 50. ] with
  | Some p -> (p, beyond p)
  | None -> (50., max 0 (beyond 50.))
