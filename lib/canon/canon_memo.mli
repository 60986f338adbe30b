(** Cross-cell memo cache for executor steps and adversary reports.

    {2 What is cached, and why it is sound}

    The step cache does {e not} key on a canonical form of the whole
    revealed region (canonicalizing the region on every present would
    cost more than the algorithm call it saves).  It keys on an
    {e incremental chain digest} of the run's concrete observable
    history: the executor folds every observable input (host
    fingerprint, palette, radius, algorithm name, each presentation's
    coordinates/ids/hints, every merge/reflect commitment) and every
    answered color into an MD5 chain.  Equal chains therefore mean
    byte-identical observable histories — the next view is the same
    view, so replaying the cached answer is sound for any
    {e deterministic, stateless} algorithm.  The {!Canon} key proper is
    used where up-to-isomorphism collapse is load-bearing:
    [bin/exhaust.exe], the [canon-relabel] fuzz target, and the game
    cache below.

    Only algorithms marked [pure] (see {!Models.Algorithm.t}) are ever
    skipped; stateful instances always run live.  Skipped calls charge
    the guard meter through the {!ctx}'s [charge] hook so budgets,
    deadlines and the reported [color_calls] stay byte-identical to a
    memo-off run.

    {2 Process locality}

    Tables live in {!Domain.DLS} — per domain, per process, never
    checkpointed and never shipped across the supervisor wire.  A
    resumed or process-isolated run starts cold; only wall-clock
    changes, never output.  Hits are {e telemetry}: [Canon_hit] trace
    events, whose count depends on how cells were packed onto domains,
    so they never enter {!Obs.Stats}. *)

type ctx
(** Per-run memo context: the chain digest plus the guard charge hook. *)

val create : ?charge:(unit -> unit) -> pure:bool -> unit -> ctx
(** [charge] mirrors one guarded color call's accounting (budget check,
    deadline check, meters) without running the instance; default
    no-op for unguarded runs.  [pure] gates skipping: when false the
    context still folds (cheap) but {!find} always misses and
    {!add} never stores. *)

val set_charge : ctx -> (unit -> unit) -> unit
(** Late-bind the charge hook — [Game.referee] installs its guard's
    {!Harness.Guard.charge} here after the guard exists. *)

val pure : ctx -> bool

val fold : ctx -> string -> unit
(** Extend the chain digest with one observable delta. *)

val begin_run : ctx -> string -> unit
(** Reset the chain to the seed, then fold [header] — called by an
    executor at run start.  The reset is what lets a probe-and-replay
    adversary (thm2/thm3) replay its probe prefix as cache hits, and
    identical cells hit across a sweep on the same domain. *)

val chain : ctx -> string
(** Current chain digest (MD5 hex). *)

val step_key : ctx -> string -> string
(** [step_key ctx suffix]: the cache key for the call about to happen —
    digest of chain + suffix.  Does not advance the chain. *)

val find : ctx -> string -> int option
(** Cache lookup; emits a [Canon_hit] trace event on hit.  Always
    [None] for impure contexts. *)

val add : ctx -> string -> int -> unit
(** Record an answered color under a step key (no-op when impure). *)

val charge : ctx -> unit
(** Invoke the guard charge hook (call exactly once per skipped call). *)

val note_hit : kind:string -> key:string -> unit
(** Emit a [Canon_hit] trace event — for cache layers that keep their
    own (typed) tables, e.g. the game-level report cache in
    [Jobs_catalog]. *)

val reset : unit -> unit
(** Drop this domain's step table (tests). *)
