(** Fleet dispatch: one campaign sharded across N {!Server} endpoints,
    with failover, circuit breakers, and queue-depth rebalancing — and
    the same byte-identity contract as a single-server campaign.

    {2 Topology}

    A single-threaded router multiplexes one {!Client.Endpoint} per
    server with [Unix.select].  Each unique job (content-derived id,
    {!Client.job_id}) gets a {e home} shard —
    [mix64 (hash id + seed) mod N] — deterministic in [(shard_seed, job)]
    and independent of arrival order or endpoint health, so two runs of
    the same campaign shard identically.

    {2 Failover and exactly-once}

    When an endpoint dies (EOF, reset, refused, receive timeout) or
    starts draining, its unfinished jobs are resubmitted to the next
    live endpoint.  This is safe {e because} job ids are content-derived
    and every server dedups on them: the worst case is two servers
    computing the same job, and the router delivers the first ['R'] per
    id into [results], counting later ones in [duplicates] — the
    counter that makes the dedup observable.  Results always come back
    in spec order, so dispatch output is byte-identical to a serverless
    sweep and to a single-server campaign at every shard count, [jobs]
    level, isolation mode, and kill/restart history.

    {2 Breakers and rebalancing}

    A failed endpoint is not hammered: each failure opens a per-endpoint
    circuit breaker for the seeded {!Backoff} delay of its consecutive
    failure count; reconnects are attempted only after it closes.
    Cheap ['Q']/['D'] depth probes (no JSON) feed a rebalancer that
    moves queued-but-unsubmitted work from the deepest endpoint to the
    shallowest when their load gap exceeds a threshold.

    The campaign survives down to one live endpoint; what it cannot
    hide it {e types}: any endpoint loss, drain, or failover degrades
    the verdict to [`Degraded reasons] instead of pretending the run
    was calm. *)

type verdict = [ `Full | `Degraded of string list ]
(** [`Full]: every endpoint stayed up and no job moved.  [`Degraded]:
    the campaign completed, but the listed endpoint losses / drains /
    failovers happened on the way. *)

val verdict_to_string : verdict -> string
(** ["FULL"], or ["DEGRADED (reason; reason; ...)"]. *)

type campaign = {
  results : string list;
      (** one result per submitted spec, {e in spec order} — byte-equal
          to a serverless run and to {!Client.run_campaign} *)
  verdict : verdict;
  failovers : int;  (** job reassignments off a dead/draining endpoint *)
  duplicates : int;
      (** redundant ['R'] deliveries dropped by the dedup layer — the
          exactly-once proof surface *)
  resubmits : int;  (** submit frames beyond the first per unique job *)
  rejections : int;  (** typed ['X'] answers absorbed *)
  reconnects : int;  (** endpoint connections lost and re-established *)
}

val home_shard :
  shard_seed:int -> endpoints:int -> kind:string -> payload:string -> int
(** The home shard (in [\[0, endpoints)]) a job would be assigned under
    a given seed — the sharding hash, exposed so placement is
    predictable offline (and testable: a pure function of its
    arguments).
    @raise Invalid_argument if [endpoints < 1]. *)

val run_campaign :
  ?backoff:Backoff.config ->
  ?window:int ->
  ?deadline:float ->
  ?max_attempts:int ->
  ?recv_timeout:float ->
  ?shard_seed:int ->
  ?probe_interval:float ->
  endpoints:string list ->
  (string * string) list ->
  campaign
(** [run_campaign ~endpoints specs] shards every [(kind, payload)] spec
    across [endpoints] (socket specs: Unix paths or ["tcp:PORT"]) and
    blocks until all results are in.  [window] (default 16) bounds the
    jobs in flight {e per endpoint}; [shard_seed] (default 0) seeds the
    home-shard hash; [probe_interval] (default 0.25 s) paces depth
    probes; [backoff], [deadline], [max_attempts], [recv_timeout] as in
    {!Client.run_campaign}.

    Emits [fleet_start] / [endpoint_state] / [failover] / [rebalance] /
    [fleet_verdict] trace events when tracing is on.

    @raise Invalid_argument on an empty or duplicated endpoint list, or
    an invalid parameter.
    @raise Failure when the whole fleet is unreachable [max_attempts]
    rounds in a row, when one job is rejected [max_attempts] times, or
    when every endpoint is draining (no server can run new work). *)
