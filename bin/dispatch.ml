(* Fleet dispatch client: shard one campaign across N serve.exe
   endpoints, with failover, circuit breakers, and depth-probe
   rebalancing (Harness.Fleet).

     dune exec bin/dispatch.exe -- \
       --endpoint /tmp/a.sock --endpoint /tmp/b.sock --endpoint tcp:7001 \
       --kind thm1 "t=1 k=9 side=4000 algo=ael" "t=2 k=9 side=4000 algo=ael"
     dune exec bin/dispatch.exe -- --endpoint /tmp/a.sock --from jobs.txt

   Stdout carries only results, in spec order, byte-identical to a
   serverless sweep of the same cells and to a single-server submit.exe
   run — at every shard count, --jobs level, isolation mode, and
   kill/restart history.  The tally and the campaign verdict (FULL, or
   DEGRADED with the endpoint losses / drains / failovers that
   happened) go to stderr.  Exit 0 means every result is in, degraded
   or not; the verdict line is the place to look. *)

open Cmdliner

let read_specs_file path =
  In_channel.with_open_bin path @@ fun ic ->
  let rec go acc =
    match In_channel.input_line ic with
    | None -> List.rev acc
    | Some "" -> go acc
    | Some line -> (
        match String.index_opt line '\t' with
        | None -> failwith (Printf.sprintf "%s: line without a TAB: %s" path line)
        | Some t ->
            let kind = String.sub line 0 t in
            let payload = String.sub line (t + 1) (String.length line - t - 1) in
            go ((kind, payload) :: acc))
  in
  go []

let run endpoints kind payloads from deadline_ms window max_attempts shard_seed
    probe_interval_ms trace stats_out flight =
  Obs_cli.with_observability ~program:"dispatch" ~trace ~stats:stats_out ~flight
  @@ fun () ->
  try
    let specs =
      (match from with Some path -> read_specs_file path | None -> [])
      @ List.map (fun p -> (kind, p)) payloads
    in
    if specs = [] then begin
      Format.eprintf
        "dispatch: nothing to submit (positional payloads or --from)@.";
      2
    end
    else begin
      let deadline =
        Option.map (fun ms -> float_of_int ms /. 1000.) deadline_ms
      in
      let probe_interval = float_of_int probe_interval_ms /. 1000. in
      let campaign =
        Harness.Fleet.run_campaign ~window ?deadline ~max_attempts ~shard_seed
          ~probe_interval ~endpoints specs
      in
      List.iter
        (fun result -> Format.printf "%s@." result)
        campaign.Harness.Fleet.results;
      Format.eprintf
        "dispatch: %d results over %d endpoint(s) (%d failovers, %d \
         duplicates deduped, %d resubmits, %d rejections, %d reconnects)@."
        (List.length campaign.Harness.Fleet.results)
        (List.length endpoints) campaign.Harness.Fleet.failovers
        campaign.Harness.Fleet.duplicates campaign.Harness.Fleet.resubmits
        campaign.Harness.Fleet.rejections campaign.Harness.Fleet.reconnects;
      Format.eprintf "dispatch: verdict %s@."
        (Harness.Fleet.verdict_to_string campaign.Harness.Fleet.verdict);
      0
    end
  with
  | Failure msg ->
      Format.eprintf "dispatch: %s@." msg;
      1
  | Invalid_argument msg ->
      Format.eprintf "dispatch: %s@." msg;
      2

let endpoints =
  Arg.(
    non_empty
    & opt_all string []
    & info [ "endpoint" ] ~docv:"PATH|tcp:PORT"
        ~doc:
          "A serve.exe endpoint (repeatable): a Unix-domain socket path or \
           $(b,tcp:PORT).  Jobs are sharded across all endpoints given.")

let kind =
  Arg.(
    value
    & opt string "thm1"
    & info [ "kind" ] ~docv:"KIND"
        ~doc:"Job kind for positional payloads: thm1|thm2|thm3|fuzz.")

let payloads =
  Arg.(value & pos_all string [] & info [] ~docv:"PAYLOAD" ~doc:"Job payloads.")

let from =
  Arg.(
    value
    & opt (some string) None
    & info [ "from" ] ~docv:"FILE"
        ~doc:"Also submit one job per line of $(docv): kind<TAB>payload.")

let deadline_ms =
  Arg.(
    value
    & opt (some Obs_cli.positive_int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Per-attempt job deadline forwarded with each submit.")

let window =
  Arg.(
    value
    & opt Obs_cli.positive_int 16
    & info [ "window" ] ~docv:"N"
        ~doc:"Max jobs kept in flight per endpoint (pipelining).")

let max_attempts =
  Arg.(
    value
    & opt Obs_cli.positive_int 120
    & info [ "max-attempts" ] ~docv:"N"
        ~doc:
          "Give up after $(docv) rounds with the whole fleet unreachable, or \
           $(docv) rejections of one job.  Each all-dark round waits at most \
           one second, so the default bounds a fully dead fleet to about two \
           minutes.")

let shard_seed =
  Arg.(
    value
    & opt Obs_cli.non_negative_int 0
    & info [ "shard-seed" ] ~docv:"SEED"
        ~doc:
          "Seed for the deterministic job-to-endpoint sharding hash.  Output \
           bytes never depend on $(docv); only placement does.")

let probe_interval_ms =
  Arg.(
    value
    & opt Obs_cli.positive_int 250
    & info [ "probe-interval-ms" ] ~docv:"MS"
        ~doc:"How often each endpoint's queue depth is probed (rebalancing).")

let cmd =
  Cmd.v
    (Cmd.info "dispatch"
       ~doc:"Shard jobs across a fleet of serve.exe endpoints with failover")
    Term.(
      const run $ endpoints $ kind $ payloads $ from $ deadline_ms $ window
      $ max_attempts $ shard_seed $ probe_interval_ms $ Obs_cli.trace
      $ Obs_cli.stats $ Obs_cli.flight)

let () = exit (Cmd.eval' cmd)
