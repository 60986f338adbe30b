(* Shared flag plumbing for the sweep, repro, play, serve and fuzz
   binaries.

   Every binary in this directory exposes the same observability flags:

     --trace FILE   stream NDJSON trace events to FILE
     --stats FILE   write drained streaming stats (JSON) to FILE
     --flight FILE  binary flight-recorder ring, flushed on anomaly
     --bulk         executor fast path: skip per-step trace event
                    construction (verdicts unchanged)

   and the same execution-backend flags, parsed and validated here so
   "--jobs 0" fails identically everywhere, naming the flag:

     --jobs N             worker domains (in-domain) / children (proc)
     --isolate MODE       domain (default) | proc
     --retries N          proc mode: extra attempts per crashed cell
     --kill-grace-ms MS   proc mode: SIGTERM -> SIGKILL escalation gap
     --cell-timeout-ms MS proc mode: per-attempt wall-clock watchdog

   and two converters for comma-separated sweep axes ("1,2,8"), so a
   bad axis entry ("-t 1,x", "--wrap tor") is a usage error naming the
   flag rather than an uncaught exception or one ERROR line per cell.

   The --stats file is written after the run, even on the interrupted
   (exit 130) path: a Ctrl-C'd sweep still reports what it counted. *)

open Cmdliner

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Stream NDJSON trace events to $(docv) (see trace_report).")

let stats =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:
          "Stream per-game statistics (count/mean/variance/min/max and \
           quantile sketches) and write the drained snapshot to $(docv) \
           as JSON after the run.  The bytes are identical at every \
           --jobs count and isolation mode.")

let flight =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Flight recorder: retain trace events in an in-memory ring \
           (binary encoding, see trace_report) and flush them to $(docv) \
           only on anomaly — misbehavior, quarantine, watchdog kill, \
           fault injection, or a failed audit.")

let bulk =
  Arg.(
    value
    & flag
    & info [ "bulk" ]
        ~doc:
          "Campaign fast path: skip per-step trace event \
           construction and the paranoid re-audit inside the game \
           executors.  Results and verdicts are byte-identical with and \
           without $(b,--bulk); only observability detail is elided.")

let memo =
  Arg.(
    value
    & flag
    & info [ "memo" ]
        ~doc:
          "Cross-cell memoization: replay color calls and thm1 reports \
           whose observable history already ran on this worker (see \
           lib/canon/README.md).  Result bytes and --stats files are \
           identical with and without $(b,--memo) at every --jobs count, \
           isolation mode, and resume history; caches are per-process \
           and never checkpointed.  Cache hits are trace events \
           (canon_hit), not statistics.")

(* ----------------------- execution-backend flags ----------------------- *)

let int_at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some n ->
        Error
          (`Msg (Printf.sprintf "expected %s, got %d" what n))
    | None ->
        Error
          (`Msg (Printf.sprintf "expected %s, got %s" what (String.escaped s)))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let positive_int = int_at_least 1 "a positive integer"
let non_negative_int = int_at_least 0 "a non-negative integer"

let jobs =
  Arg.(
    value
    & opt positive_int (Harness.Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Workers: domains under --isolate domain, child processes under \
           --isolate proc (default: available cores, capped at 8).  Output \
           bytes never depend on $(docv).")

let isolate =
  Arg.(
    value
    & opt (enum [ ("domain", `In_domain); ("proc", `Process) ]) `In_domain
    & info [ "isolate" ] ~docv:"MODE"
        ~doc:
          "Cell isolation: $(b,domain) runs cells on worker domains in this \
           process; $(b,proc) forks each cell into a supervised child \
           process that survives kills, retries crashed cells with seeded \
           backoff, and quarantines crash-looping ones.")

let retries =
  Arg.(
    value
    & opt non_negative_int Harness.Supervisor.default_config.Harness.Supervisor.retries
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "With --isolate proc: extra attempts after a cell's worker dies \
           abnormally, before the cell is quarantined.  0 disables \
           retrying.")

let kill_grace_ms =
  Arg.(
    value
    & opt positive_int 500
    & info [ "kill-grace-ms" ] ~docv:"MS"
        ~doc:
          "With --isolate proc: how long a timed-out child gets between \
           SIGTERM and the SIGKILL escalation.")

let cell_timeout_ms =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "cell-timeout-ms" ] ~docv:"MS"
        ~doc:
          "With --isolate proc: per-attempt wall-clock watchdog; a cell \
           exceeding it is killed and certified unresponsive.  Unset: no \
           watchdog.")

(* ------------------------------ sweep axes ----------------------------- *)

(* Sweep.int_axis/string_axis at parse time: the accepted inputs and
   their values are exactly theirs. *)
let axis parse pp_item =
  let parse s =
    match parse s with
    | axis -> Ok axis
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  let pp =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
      pp_item
  in
  Arg.conv ~docv:"VAL" (parse, pp)

let int_axis = axis Harness.Sweep.int_axis Format.pp_print_int

(* [among] is the catalog's list of known names for this axis. *)
let string_axis ~among =
  let parse s =
    let axis = Harness.Sweep.string_axis s in
    List.iter
      (fun v ->
        if not (List.mem v among) then
          invalid_arg
            (Printf.sprintf "unknown value %s (expected %s)" (String.escaped v)
               (String.concat "|" among)))
      axis;
    axis
  in
  axis parse Format.pp_print_string

type exec = {
  jobs : int;
  isolation : Harness.Sweep.isolation;
  supervisor : Harness.Supervisor.config;
}

let exec_term =
  let make jobs isolation retries kill_grace_ms cell_timeout_ms =
    {
      jobs;
      isolation;
      supervisor =
        {
          Harness.Supervisor.default_config with
          Harness.Supervisor.retries;
          kill_grace = float_of_int kill_grace_ms /. 1000.;
          timeout = Option.map (fun ms -> float_of_int ms /. 1000.) cell_timeout_ms;
        };
    }
  in
  Term.(const make $ jobs $ isolate $ retries $ kill_grace_ms $ cell_timeout_ms)

let with_observability ~program ~trace:trace_path ?(stats = None)
    ?(flight = None) f =
  if stats <> None then Obs.Stats.enable ();
  let code =
    Obs.Trace.with_sink_opt ~program trace_path @@ fun () ->
    Obs.Flight.with_sink_opt ~program flight f
  in
  (match stats with
  | None -> ()
  | Some path ->
      let snap = Obs.Stats.drain () in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (Obs.Json.to_string (Obs.Stats.snapshot_to_json snap));
          Out_channel.output_char oc '\n'));
  code
