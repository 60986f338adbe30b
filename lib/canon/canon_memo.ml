type ctx = {
  mutable chain : string;  (* MD5 hex of the folded history *)
  mutable charge : unit -> unit;
  pure : bool;
}

let seed = Digest.to_hex (Digest.string "canon-memo-v1")
let create ?(charge = fun () -> ()) ~pure () = { chain = seed; charge; pure }
let set_charge ctx f = ctx.charge <- f

let pure ctx = ctx.pure
let chain ctx = ctx.chain
let fold ctx s = ctx.chain <- Digest.to_hex (Digest.string (ctx.chain ^ s))

(* Each executor run restarts the chain from the seed before folding its
   header: two runs with identical headers and histories then share step
   keys even when the same ctx hosted an earlier run (thm2/thm3's probe
   host replays its prefix as cache hits), and identical cells on the
   same domain hit across a sweep. *)
let begin_run ctx header =
  ctx.chain <- seed;
  fold ctx header
let step_key ctx suffix = Digest.to_hex (Digest.string (ctx.chain ^ suffix))
let charge ctx = ctx.charge ()

(* Per-domain tables: per process, never checkpointed.  Capped so a
   giant campaign can't grow without bound; a reset only costs future
   hits, never correctness. *)
let cap = 1 lsl 20

let step_tbl : (string, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let note_hit ~kind ~key =
  if Obs.Trace.on () then Obs.Trace.emit (Obs.Trace.Canon_hit { kind; key })

let find ctx key =
  if not ctx.pure then None
  else begin
    let tbl = Domain.DLS.get step_tbl in
    match Hashtbl.find_opt tbl key with
    | Some c ->
        note_hit ~kind:"step" ~key;
        Some c
    | None -> None
  end

let add ctx key color =
  if ctx.pure then begin
    let tbl = Domain.DLS.get step_tbl in
    if Hashtbl.length tbl >= cap then Hashtbl.reset tbl;
    Hashtbl.replace tbl key color
  end

let reset () = Hashtbl.reset (Domain.DLS.get step_tbl)
