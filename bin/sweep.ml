(* E1–E5 sweeps: play one theorem's experiment over a parameter grid.

   One subcommand per theorem; every cell comes from Jobs_catalog, so a
   sweep cell and a served job with the cell's key as payload print the
   same bytes.  Axes are comma-separated; every combination is one cell.
   With --checkpoint FILE each finished cell is flushed to FILE, and
   --resume replays completed cells verbatim, so a killed sweep can be
   restarted and still print byte-identical final output.  --jobs N
   runs cells on N workers; output order and resume behavior do not
   depend on N.

   dune exec bin/sweep.exe -- thm1 -t 1,2 -k 6,9 --side 4000 --algo ael \
     --jobs 4 --checkpoint sweep_thm1.ckpt
   dune exec bin/sweep.exe -- thm1 ... --checkpoint sweep_thm1.ckpt --resume
   dune exec bin/sweep.exe -- thm2 --side 21,51 --wrap torus,cylinder
   dune exec bin/sweep.exe -- thm3 -k 3 --gadgets 9,33
   dune exec bin/sweep.exe -- thm4 --host grid --side 24,32
   dune exec bin/sweep.exe -- thm5 -k 3 --base-side 6 -t 4,8 *)

open Cmdliner

(* Cartesian products in axis order: the first axis varies slowest. *)
let ( let* ) axis f = List.concat_map f axis

let run ~program cells checkpoint resume exec trace stats flight =
  Obs_cli.with_observability ~program ~trace ~stats ~flight @@ fun () ->
  match
    Harness.Sweep.run ~resume ?checkpoint ~jobs:exec.Obs_cli.jobs
      ~isolation:exec.Obs_cli.isolation ~supervisor:exec.Obs_cli.supervisor
      ~ppf:Format.std_formatter cells
  with
  | () -> 0
  | exception Harness.Sweep.Interrupted ->
      Format.eprintf "interrupted; finished cells are checkpointed@.";
      130

let checkpoint =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~doc:"Append finished cells to this file.")

let resume =
  Arg.(value & flag & info [ "resume" ] ~doc:"Replay cells already in the checkpoint.")

(* [cells] is a term for the cell list; trace headers name the old
   per-theorem binaries ("sweep_thm1", ...), so traces stay comparable. *)
let sweep thm ~doc cells =
  Cmd.v (Cmd.info thm ~doc)
    Term.(
      const (run ~program:("sweep_" ^ thm))
      $ cells $ checkpoint $ resume $ Obs_cli.exec_term $ Obs_cli.trace
      $ Obs_cli.stats $ Obs_cli.flight)

let int_axis default flags doc =
  Arg.(value & opt Obs_cli.int_axis [ default ] & info flags ~doc)

(* a string axis whose values are the keys of a catalog assoc list *)
let catalog_axis catalog default flags doc =
  let among = List.map fst catalog in
  Arg.(value & opt (Obs_cli.string_axis ~among) [ default ] & info flags ~doc)

let thm1 =
  let cells ts ks sides algos validate bulk memo =
    let* t = ts in
    let* k = ks in
    let* side = sides in
    let* algo = algos in
    [ Jobs_catalog.thm1_cell ~memo ~bulk ~validate ~t ~k ~side ~algo () ]
  in
  let validate =
    Arg.(value & flag & info [ "validate" ] ~doc:"Replay-check the transcript (slow).")
  in
  sweep "thm1" ~doc:"Theorem 1 adversary sweep"
    Term.(
      const cells
      $ int_axis 1 [ "t" ] "Algorithm localities (comma-separated)."
      $ int_axis 9 [ "k" ] "Adversary b-value targets."
      $ int_axis 4000 [ "side" ] "Grid sides sqrt(n)."
      $ catalog_axis Jobs_catalog.thm1_algorithms "ael" [ "algo" ]
          "greedy|parity|stripes|ael (comma-separated)."
      $ validate $ Obs_cli.bulk $ Obs_cli.memo)

let thm2 =
  let cells sides wraps bulk memo =
    let* wrap = wraps in
    let* side = sides in
    let* algo, _ = Jobs_catalog.thm2_algorithms in
    [ Jobs_catalog.thm2_cell ~memo ~bulk ~side ~wrap ~algo () ]
  in
  sweep "thm2" ~doc:"Theorem 2 adversary sweep"
    Term.(
      const cells
      $ int_axis 21 [ "side" ] "Grid sides (odd, comma-separated)."
      $ catalog_axis Jobs_catalog.thm2_wraps "torus" [ "wrap" ]
          "torus|cylinder (comma-separated)."
      $ Obs_cli.bulk $ Obs_cli.memo)

let thm3 =
  let cells ks gadget_counts bulk memo =
    let* k = ks in
    let* gadgets = gadget_counts in
    let* algo, _ = Jobs_catalog.thm3_algorithms in
    [ Jobs_catalog.thm3_cell ~memo ~bulk ~k ~gadgets ~algo () ]
  in
  sweep "thm3" ~doc:"Theorem 3 adversary sweep"
    Term.(
      const cells
      $ int_axis 3 [ "k" ] "Gadget sides (>= 3, comma-separated)."
      $ int_axis 9 [ "gadgets" ] "Chain lengths (>= 3, comma-separated)."
      $ Obs_cli.bulk $ Obs_cli.memo)

let thm4 =
  (* grid/tri scale by side, ktree by node count *)
  let cells host sides ns seeds =
    let* size = if host = "ktree" then ns else sides in
    [ Jobs_catalog.thm4_cell ~host ~size ~seeds ]
  in
  let host =
    let hosts = List.map (fun (h, _) -> (h, h)) Jobs_catalog.thm4_hosts in
    Arg.(
      value
      & opt (enum hosts) "grid"
      & info [ "host" ] ~docv:"VAL" ~doc:"grid|tri|ktree.")
  in
  let seeds =
    Arg.(
      value
      & opt Obs_cli.non_negative_int 2
      & info [ "seeds" ] ~docv:"VAL" ~doc:"Random orders to include.")
  in
  sweep "thm4" ~doc:"Theorem 4 locality scaling sweep"
    Term.(
      const cells $ host
      $ int_axis 24 [ "side" ] "Sides (grid/tri, comma-separated)."
      $ int_axis 300 [ "n" ] "Node counts (ktree, comma-separated)."
      $ seeds)

let thm5 =
  let cells ks base_sides ts =
    let* k = ks in
    let* base_side = base_sides in
    let* t = ts in
    [ Jobs_catalog.thm5_cell ~k ~base_side ~t ]
  in
  sweep "thm5" ~doc:"Theorem 5 reduction sweep"
    Term.(
      const cells
      $ int_axis 3 [ "k" ] "Layer counts of G_k (>= 2)."
      $ int_axis 6 [ "base-side" ] "Base grid sides."
      $ int_axis 8 [ "t" ] "Inner algorithm localities.")

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "sweep" ~doc:"Theorem sweeps over a parameter grid (E1–E5)")
          [ thm1; thm2; thm3; thm4; thm5 ]))
