(* Seeded workload generator.

   A workload is a named list of catalog specs plus the flags the
   campaign runs with.  The seed only picks parameters from fixed
   ranges (sides, gadget counts, fuzz seeds, the light-job mix); the
   axes that set a workload's cost are fixed, so total work stays about
   the same from seed to seed.  Keys are unique within a workload: job
   ids are content-derived and the server deduplicates repeats, so a
   repeated key would silently shrink a fleet campaign. *)

type spec =
  | Thm1 of { t : int; k : int; side : int; algo : string }
  | Thm2 of { wrap : string; side : int; algo : string }
  | Thm3 of { k : int; gadgets : int; algo : string }
  | Fuzz of { target : string; seed : int; cases : int }

type backend = Sweep | Fleet

type t = {
  name : string;
  seed : int;
  specs : spec list;
  backend : backend;
  jobs : int;  (** sweep workers, or fleet endpoints *)
  bulk : bool;
  memo : bool;
  obs : bool;  (** Obs.Trace NDJSON sink and Obs.Stats on *)
}

let names = [ "sweep-thm1"; "fleet-light"; "sweep-traced" ]

(* Payload strings are exactly the keys Jobs_catalog's cells use, so a
   spec is the same work whether it runs as a sweep cell or a job. *)
let kind = function
  | Thm1 _ -> "thm1"
  | Thm2 _ -> "thm2"
  | Thm3 _ -> "thm3"
  | Fuzz _ -> "fuzz"

let payload = function
  | Thm1 { t; k; side; algo } -> Printf.sprintf "t=%d k=%d side=%d algo=%s" t k side algo
  | Thm2 { wrap; side; algo } -> Printf.sprintf "wrap=%s side=%d algo=%s" wrap side algo
  | Thm3 { k; gadgets; algo } -> Printf.sprintf "k=%d gadgets=%d algo=%s" k gadgets algo
  | Fuzz { target; seed; cases } ->
      Printf.sprintf "target=%s seed=%d cases=%d" target seed cases

let key spec = kind spec ^ " " ^ payload spec

let cell ~bulk ~memo spec =
  match spec with
  | Thm1 { t; k; side; algo } ->
      Jobs_catalog.thm1_cell ~memo ~bulk ~validate:false ~t ~k ~side ~algo ()
  | Thm2 { wrap; side; algo } -> Jobs_catalog.thm2_cell ~memo ~bulk ~side ~wrap ~algo ()
  | Thm3 { k; gadgets; algo } -> Jobs_catalog.thm3_cell ~memo ~bulk ~k ~gadgets ~algo ()
  | Fuzz _ -> invalid_arg "fuzz specs run only as fleet jobs"

let cells w = List.map (cell ~bulk:w.bulk ~memo:w.memo) w.specs

(* ------------------------------ ranges ------------------------------ *)

let odd_in rng lo hi = lo + (2 * Random.State.int rng (((hi - lo) / 2) + 1))

(* [n] distinct values drawn by [draw]. *)
let distinct n draw =
  let rec go acc =
    if List.length acc = n then List.rev acc
    else
      let v = draw () in
      go (if List.mem v acc then acc else v :: acc)
  in
  go []

(* A dense Theorem 1 threshold sweep: t = 1..6 by k = 9..12, two sides
   per k shared along the t axis (so the memo game cache hits along t,
   as in a real threshold sweep).  The seed draws the sides; t and k
   stay fixed because the cost sits on the ael T=5/6 cells, whose cost
   moves with k but not with the side. *)
let sweep_thm1 rng =
  let ks = List.map (fun k -> (k, distinct 2 (fun () -> 2000 + Random.State.int rng 6001))) [ 9; 10; 11; 12 ] in
  List.concat_map
    (fun t ->
      List.concat_map
        (fun (k, sides) ->
          List.concat_map
            (fun side ->
              List.map (fun algo -> Thm1 { t; k; side; algo }) [ "ael"; "greedy"; "stripes" ])
            sides)
        ks)
    [ 1; 2; 3; 4; 5; 6 ]

(* Executor-heavy cells.  Theorem 2 cost grows with side^2, so the
   second side compensates the first to keep the total area fixed. *)
let thm2_pair rng ~lo ~hi ~area =
  let a = odd_in rng lo hi in
  let b = int_of_float (Float.round (sqrt (float_of_int (area - (a * a))))) in
  (a, if b mod 2 = 0 then b + 1 else b)

let thm2_specs sides =
  List.concat_map
    (fun wrap ->
      List.concat_map
        (fun side ->
          List.map (fun algo -> Thm2 { wrap; side; algo }) [ "greedy"; "ael(T=1)" ])
        sides)
    [ "torus"; "cylinder" ]

let thm3_specs ks_gadgets =
  List.concat_map
    (fun (k, gadgets) ->
      List.map (fun algo -> Thm3 { k; gadgets; algo }) [ "greedy"; "gadget-rows" ])
    ks_gadgets

(* Two thousand ~1 ms jobs: small thm1 cells of the hint-driven
   baselines, small thm3 chains, short fuzz runs. *)
let fleet_jobs = 2000

let light_fuzz_targets = [ "proper-vs-brute"; "bvalue-cancel"; "wire-codec" ]

let fleet_light rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let draw = function
    | `Thm1 ->
        Thm1
          {
            t = 1 + Random.State.int rng 3;
            k = 3 + Random.State.int rng 4;
            side = 40 + Random.State.int rng 361;
            algo = pick [ "greedy"; "stripes"; "parity" ];
          }
    | `Thm3 -> Thm3 { k = 3; gadgets = 7 + Random.State.int rng 100; algo = pick [ "greedy"; "gadget-rows" ] }
    | `Fuzz ->
        Fuzz
          {
            target = pick light_fuzz_targets;
            seed = Random.State.int rng 1_000_000;
            cases = 5 + Random.State.int rng 16;
          }
  in
  (* Fixed shares of each kind (11:1:8), interleaved by a seeded shuffle,
     so the mix does not drift from seed to seed.  The thm3 share stays
     well below its 200 distinct keys. *)
  let kinds =
    List.init fleet_jobs (fun i -> if i mod 20 < 11 then `Thm1 else if i mod 20 = 11 then `Thm3 else `Fuzz)
    |> List.map (fun k -> (Random.State.bits rng, k))
    |> List.sort compare |> List.map snd
  in
  let seen = Hashtbl.create fleet_jobs in
  let rec unique kind =
    let s = draw kind in
    if Hashtbl.mem seen (key s) then unique kind
    else begin
      Hashtbl.add seen (key s) ();
      s
    end
  in
  List.map unique kinds

(* A mid-size mixed campaign for the observability layer: per-step
   trace events dominate, so Theorem 2 carries most of the steps.  At
   sides about 201 and 301 obs takes over half of the campaign (traced
   over untraced 2.0-2.6); at 101 and 141 it took about half. *)
let sweep_traced rng =
  let s1, s2 = thm2_pair rng ~lo:197 ~hi:205 ~area:((201 * 201) + (301 * 301)) in
  let sides = distinct 2 (fun () -> 2000 + Random.State.int rng 6001) in
  thm2_specs [ s1; s2 ]
  @ thm3_specs [ (3, 300 + Random.State.int rng 51) ]
  @ List.concat_map
      (fun t ->
        List.concat_map
          (fun side -> List.map (fun algo -> Thm1 { t; k = 10; side; algo }) [ "ael"; "greedy" ])
          sides)
      [ 1; 2; 3; 4 ]

let workers () = min 2 (Domain.recommended_domain_count ())

let generate name ~seed =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let sweep ?(bulk = true) ?(memo = true) ?(obs = false) specs =
    { name; seed; specs; backend = Sweep; jobs = workers (); bulk; memo; obs }
  in
  match name with
  | "sweep-thm1" -> sweep (sweep_thm1 rng)
  | "sweep-traced" -> sweep ~bulk:false ~memo:false ~obs:true (sweep_traced rng)
  | "fleet-light" ->
      {
        name;
        seed;
        specs = fleet_light rng;
        backend = Fleet;
        jobs = 2;
        bulk = false;
        memo = false;
        obs = false;
      }
  | other -> invalid_arg ("unknown workload: " ^ other)
