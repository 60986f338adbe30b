type config = {
  retries : int;
  timeout : float option;
  kill_grace : float;
  heartbeat_interval : int;
  backoff_base : float;
  backoff_max : float;
  seed : int;
}

let default_config =
  {
    retries = 2;
    timeout = None;
    kill_grace = 0.5;
    heartbeat_interval = 1;
    backoff_base = 0.05;
    backoff_max = 2.0;
    seed = 0x5EED;
  }

let validate_config c =
  if c.retries < 0 then
    invalid_arg "Supervisor: retries must be >= 0";
  (match c.timeout with
  | Some t when t <= 0. -> invalid_arg "Supervisor: timeout must be positive"
  | _ -> ());
  if c.kill_grace <= 0. then
    invalid_arg "Supervisor: kill_grace must be positive";
  if c.heartbeat_interval < 0 then
    invalid_arg "Supervisor: heartbeat_interval must be >= 0";
  if c.backoff_base < 0. then
    invalid_arg "Supervisor: backoff_base must be >= 0";
  if c.backoff_max < c.backoff_base then
    invalid_arg "Supervisor: backoff_max must be >= backoff_base"

type failure =
  | Exited of int
  | Signaled of int
  | Unresponsive of { elapsed : float; limit : float; forced : bool }
  | Protocol of string

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigalrm then "SIGALRM"
  else if s = Sys.sigpipe then "SIGPIPE"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigill then "SIGILL"
  else if s = Sys.sigfpe then "SIGFPE"
  else if s = Sys.sighup then "SIGHUP"
  else if s = Sys.sigquit then "SIGQUIT"
  else "signal#" ^ string_of_int s

let pp_failure ppf = function
  | Exited n -> Format.fprintf ppf "exited %d" n
  | Signaled s -> Format.fprintf ppf "killed by %s" (signal_name s)
  | Unresponsive { elapsed; limit; forced } ->
      Format.fprintf ppf "unresponsive after %.3fs (limit %.3fs%s)" elapsed limit
        (if forced then ", forced SIGKILL" else "")
  | Protocol msg -> Format.fprintf ppf "protocol error: %s" msg

let failure_to_string f = Format.asprintf "%a" pp_failure f

let to_misbehavior = function
  | Unresponsive { elapsed; limit; forced = _ } ->
      Some (Misbehavior.Unresponsive { elapsed; limit })
  | Exited _ | Signaled _ | Protocol _ -> None

type quarantine = { key : string; attempts : int; failures : failure list }

let quarantine_to_string q =
  Printf.sprintf "QUARANTINED after %d attempts: %s" q.attempts
    (String.concat "; " (List.map failure_to_string q.failures))

type outcome = Done of string | Failed of string | Quarantined of quarantine

(* ------------------------- deterministic backoff ------------------------- *)

let backoff_delay config key attempt =
  Backoff.delay
    { Backoff.base = config.backoff_base; max = config.backoff_max; seed = config.seed }
    ~key ~attempt

(* ------------------------------ child side ------------------------------ *)

let rec write_all fd buf pos len =
  if len > 0 then begin
    match Unix.write fd buf pos len with
    | n -> write_all fd buf (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf pos len
  end

let heartbeat_byte = Bytes.of_string "H"

(* Runs [work], speaks the reply protocol on [w], and never returns.
   [Unix._exit] (not [exit]) so inherited channel buffers — the parent's
   trace sink, the parent's stdout — are not flushed a second time. *)
let child_main ~config ~work ~idx w =
  Obs.Trace.detach_in_child ();
  (* Inherited shards would make the child's stats drain re-count the
     parent's whole history; from here on the child accumulates only its
     own cell. *)
  Obs.Stats.reset ();
  Sys.set_signal Sys.sigint Sys.Signal_default;
  if config.heartbeat_interval > 0 then begin
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           (try write_all w heartbeat_byte 0 1
            with Unix.Unix_error _ -> ());
           ignore (Unix.alarm config.heartbeat_interval)));
    ignore (Unix.alarm config.heartbeat_interval)
  end;
  let reply tag payload =
    (* Disarm heartbeats first so no 'H' can interleave the frame. *)
    ignore (Unix.alarm 0);
    if config.heartbeat_interval > 0 then
      Sys.set_signal Sys.sigalrm Sys.Signal_ignore;
    let frame = Wire.encode ~tag payload in
    (try write_all w frame 0 (Bytes.length frame) with Unix.Unix_error _ -> ())
  in
  let code =
    match work idx with
    | s ->
        (if Obs.Stats.on () then
           match Obs.Stats.drain () with
           | [] -> ()
           | snap -> reply 'S' (Obs.Stats.to_string snap));
        reply 'R' s;
        0
    | exception Sys.Break -> 130
    | exception exn ->
        (* Even in-process-fatal conditions (Stack_overflow, Out_of_memory)
           are contained here: the whole point of process isolation is that
           no cell, however pathological, takes the run down with it. *)
        reply 'E' (Printexc.to_string exn);
        0
  in
  Unix._exit code

(* ------------------------------ parent side ------------------------------ *)

(* The reply protocol is Wire framing: framed 'R'/'E' terminal replies
   and an optional framed 'S' stats snapshot before a successful 'R',
   bare 'H' heartbeats.  One decoder per child stream. *)
let reply_decoder () = Wire.decoder ~tags:"RES" ~bare:"H" ()

type slot = {
  pid : int;
  idx : int;
  skey : string;
  fd : Unix.file_descr;
  dec : Wire.decoder;
  start : float;
  mutable reply : (char * string) option;
  mutable stats : string option;
  mutable bad : string option;
  mutable term_at : float option;
  mutable killed : bool;
  mutable timed_out : bool;
}

let run ?(config = default_config) ?(should_stop = fun () -> false) ~jobs
    ~tasks ~key ?(inline = fun _ -> None) ~work
    ?(on_stats = fun ~task:_ payload -> ignore (Obs.Stats.absorb_string payload))
    ?(complete = fun _ _ -> ()) ~consume () =
  validate_config config;
  if jobs < 1 then invalid_arg "Supervisor.run: jobs must be >= 1";
  if tasks < 0 then invalid_arg "Supervisor.run: tasks must be >= 0";
  let outcomes : outcome option array = Array.make (max tasks 1) None in
  let next_consume = ref 0 in
  let deliver idx outcome =
    complete idx outcome;
    outcomes.(idx) <- Some outcome;
    while
      !next_consume < tasks && outcomes.(!next_consume) <> None
    do
      (match outcomes.(!next_consume) with
      | Some o -> consume !next_consume o
      | None -> assert false);
      incr next_consume
    done
  in
  let next_fresh = ref 0 in
  (* (due-time, idx, attempt), kept sorted by due-time *)
  let retry_queue = ref [] in
  let failures_of : (int, failure list) Hashtbl.t = Hashtbl.create 16 in
  let active = ref [] in
  let interrupted = ref false in
  let interrupt_term_at = ref None in
  let prev_cutime = ref (Unix.times ()).Unix.tms_cutime in
  let prev_cstime = ref (Unix.times ()).Unix.tms_cstime in
  let spawn idx attempt =
    let skey = key idx in
    let r, w = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        (try Unix.close r with Unix.Unix_error _ -> ());
        child_main ~config ~work ~idx w
    | pid ->
        Unix.close w;
        if Obs.Trace.on () then
          Obs.Trace.emit (Obs.Trace.Child_spawn { key = skey; pid; attempt });
        active :=
          {
            pid;
            idx;
            skey;
            fd = r;
            dec = reply_decoder ();
            start = Unix.gettimeofday ();
            reply = None;
            stats = None;
            bad = None;
            term_at = None;
            killed = false;
            timed_out = false;
          }
          :: !active
  in
  let fill () =
    let continue = ref true in
    while !continue do
      if !interrupted || List.length !active >= jobs then continue := false
      else begin
        let now = Unix.gettimeofday () in
        match !retry_queue with
        | (due, idx, attempt) :: rest when due <= now ->
            retry_queue := rest;
            spawn idx attempt
        | _ ->
            if !next_fresh < tasks then begin
              let idx = !next_fresh in
              incr next_fresh;
              match inline idx with
              | Some s -> deliver idx (Done s)
              | None -> spawn idx 0
            end
            else continue := false
      end
    done
  in
  let parse slot =
    let again = ref true in
    while !again do
      again := false;
      if slot.reply = None && slot.bad = None then
        match Wire.decode slot.dec with
        | Ok None -> ()
        | Ok (Some { Wire.tag = 'H'; _ }) ->
            if Obs.Trace.on () then
              Obs.Trace.emit
                (Obs.Trace.Child_heartbeat { key = slot.skey; pid = slot.pid });
            again := true
        | Ok (Some { Wire.tag = 'S'; payload }) ->
            slot.stats <- Some payload;
            again := true
        | Ok (Some { Wire.tag; payload }) -> slot.reply <- Some (tag, payload)
        | Error e -> slot.bad <- Some (Wire.error_to_string e)
    done
  in
  let kill_pid pid signal name =
    match Unix.kill pid signal with
    | () -> ()
    | exception Unix.Unix_error _ -> ignore name
  in
  let send_kill slot signal name now =
    kill_pid slot.pid signal name;
    if Obs.Trace.on () then
      Obs.Trace.emit
        (Obs.Trace.Child_kill
           {
             key = slot.skey;
             pid = slot.pid;
             signal = name;
             elapsed = now -. slot.start;
           })
  in
  let rec waitpid_retry pid =
    match Unix.waitpid [] pid with
    | r -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  in
  let reap slot =
    (try Unix.close slot.fd with Unix.Unix_error _ -> ());
    let _, status = waitpid_retry slot.pid in
    let tm = Unix.times () in
    let cpu_user = tm.Unix.tms_cutime -. !prev_cutime in
    let cpu_sys = tm.Unix.tms_cstime -. !prev_cstime in
    prev_cutime := tm.Unix.tms_cutime;
    prev_cstime := tm.Unix.tms_cstime;
    let status_str =
      match status with
      | Unix.WEXITED n -> "exit:" ^ string_of_int n
      | Unix.WSIGNALED s -> "signal:" ^ signal_name s
      | Unix.WSTOPPED s -> "stopped:" ^ signal_name s
    in
    if Obs.Trace.on () then
      Obs.Trace.emit
        (Obs.Trace.Child_exit
           { key = slot.skey; pid = slot.pid; status = status_str; cpu_user; cpu_sys });
    active := List.filter (fun s -> s != slot) !active;
    match slot.reply with
    | Some ('R', payload) ->
        (match slot.stats with
        | Some snap -> on_stats ~task:slot.idx snap
        | None -> ());
        deliver slot.idx (Done payload)
    | Some ('E', payload) -> deliver slot.idx (Failed payload)
    | Some _ -> assert false
    | None ->
        (* Abnormal death.  Under interruption the children died because
           we (or the terminal's process group) killed them: abandon the
           task so a resume reruns it, charging no retry. *)
        if not !interrupted then begin
          let failure =
            if slot.timed_out then
              Unresponsive
                {
                  elapsed = Unix.gettimeofday () -. slot.start;
                  limit = Option.value config.timeout ~default:0.;
                  forced = slot.killed;
                }
            else
              match slot.bad with
              | Some msg -> Protocol msg
              | None -> (
                  match status with
                  | Unix.WEXITED 0 -> Protocol "no reply before exit"
                  | Unix.WEXITED n -> Exited n
                  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signaled s)
          in
          (match to_misbehavior failure with
          | Some m ->
              if Obs.Trace.on () then
                Obs.Trace.emit
                  (Obs.Trace.Misbehavior
                     { label = Misbehavior.label m; detail = Misbehavior.to_string m })
          | None -> ());
          let fails =
            failure
            :: (try Hashtbl.find failures_of slot.idx with Not_found -> [])
          in
          Hashtbl.replace failures_of slot.idx fails;
          let nfails = List.length fails in
          if nfails > config.retries then begin
            let q =
              { key = slot.skey; attempts = nfails; failures = List.rev fails }
            in
            if Obs.Trace.on () then
              Obs.Trace.emit
                (Obs.Trace.Cell_quarantined
                   {
                     key = slot.skey;
                     attempts = nfails;
                     reason = failure_to_string failure;
                   });
            deliver slot.idx (Quarantined q)
          end
          else begin
            let attempt = nfails in
            let delay = backoff_delay config slot.skey attempt in
            if Obs.Trace.on () then
              Obs.Trace.emit
                (Obs.Trace.Cell_retry { key = slot.skey; attempt; delay });
            let due = Unix.gettimeofday () +. delay in
            let rec insert = function
              | [] -> [ (due, slot.idx, attempt) ]
              | (d, _, _) :: _ as l when due < d -> (due, slot.idx, attempt) :: l
              | x :: rest -> x :: insert rest
            in
            retry_queue := insert !retry_queue
          end
        end
  in
  let check_watchdog now =
    List.iter
      (fun slot ->
        if slot.reply = None then begin
          (match config.timeout with
          | Some limit when slot.term_at = None && now -. slot.start > limit ->
              slot.timed_out <- true;
              slot.term_at <- Some now;
              send_kill slot Sys.sigterm "sigterm" now
          | _ -> ());
          match slot.term_at with
          | Some t when (not slot.killed) && now -. t > config.kill_grace ->
              slot.killed <- true;
              send_kill slot Sys.sigkill "sigkill" now
          | _ -> ()
        end)
      !active
  in
  let select_timeout now =
    let t = ref 0.25 in
    let consider due = t := Float.max 0. (Float.min !t (due -. now)) in
    List.iter
      (fun slot ->
        if slot.reply = None then begin
          (match (config.timeout, slot.term_at) with
          | Some limit, None -> consider (slot.start +. limit)
          | _ -> ());
          match slot.term_at with
          | Some at when not slot.killed -> consider (at +. config.kill_grace)
          | _ -> ()
        end)
      !active;
    (match !retry_queue with (due, _, _) :: _ -> consider due | [] -> ());
    (match !interrupt_term_at with
    | Some at -> consider (at +. config.kill_grace)
    | None -> ());
    !t
  in
  let chunk = Bytes.create 4096 in
  let handle_ready fd =
    match List.find_opt (fun s -> s.fd = fd) !active with
    | None -> ()
    | Some slot -> (
        match Unix.read slot.fd chunk 0 (Bytes.length chunk) with
        | 0 -> reap slot
        | n ->
            Wire.feed slot.dec chunk 0 n;
            parse slot
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  in
  let finally () =
    (* Never leak children: on any exit path, kill and reap what's left. *)
    List.iter (fun s -> kill_pid s.pid Sys.sigkill "sigkill") !active;
    List.iter
      (fun s ->
        (try Unix.close s.fd with Unix.Unix_error _ -> ());
        ignore (waitpid_retry s.pid))
      !active;
    active := []
  in
  Fun.protect ~finally (fun () ->
      while
        !active <> []
        || ((not !interrupted) && (!retry_queue <> [] || !next_fresh < tasks))
      do
        if (not !interrupted) && should_stop () then begin
          interrupted := true;
          retry_queue := [];
          let now = Unix.gettimeofday () in
          interrupt_term_at := Some now;
          List.iter
            (fun slot ->
              if slot.reply = None then send_kill slot Sys.sigterm "sigterm" now)
            !active
        end;
        (match !interrupt_term_at with
        | Some at when Unix.gettimeofday () -. at > config.kill_grace ->
            let now = Unix.gettimeofday () in
            List.iter
              (fun slot ->
                if not slot.killed then begin
                  slot.killed <- true;
                  send_kill slot Sys.sigkill "sigkill" now
                end)
              !active
        | _ -> ());
        fill ();
        let now = Unix.gettimeofday () in
        check_watchdog now;
        let fds = List.map (fun s -> s.fd) !active in
        if fds = [] then begin
          (* Nothing in flight: we are waiting out a retry backoff. *)
          match !retry_queue with
          | (due, _, _) :: _ ->
              let d = due -. now in
              if d > 0. then Unix.sleepf (Float.min d 0.25)
          | [] -> ()
        end
        else begin
          match Unix.select fds [] [] (select_timeout now) with
          | ready, _, _ -> List.iter handle_ready ready
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        end
      done)
