(** Discrete-event simulation engine.

    A simple event-list simulator: closures scheduled at simulated
    times, executed in time order with deterministic FIFO tie-breaking
    (see {!Pr_util.Pqueue}). Routing protocols are message-driven, so a
    drained queue means the protocol has converged.

    {2 Sharded execution}

    [create ~shards:spec ()] partitions the event queue by the AD
    ownership in the {!Shard.spec} and executes one worker domain per
    shard. Shards advance in lockstep conservative windows of width
    [Shard.delta spec] (the minimum cross-shard link delay): events in
    the window are causally independent across shards and run in
    parallel; cross-shard messages are collected in per-shard outboxes
    and delivered at the window barrier. Events scheduled from the main
    domain ("control" events: churn, fault actions, probes) execute one
    at a time on the main domain with every worker parked, so they may
    touch state on any shard.

    Determinism: events are keyed (time, parent, k) — the parent's
    position in the global execution order plus the index of the
    schedule call within the parent — which reproduces exactly the
    sequential engine's (time, insertion-order) execution order. A
    sharded run therefore executes the same events in the same order
    with the same clock values as the sequential engine; shard count 1
    IS the sequential engine (same code path). The one deliberate
    exception: {!schedule_for} from a worker domain to a foreign shard
    defers to the next window boundary.

    Scheduling context rules: [schedule]/[schedule_at] from a worker
    domain go to that worker's own shard; from the main domain they
    become control events. Cross-shard scheduling must go through
    {!schedule_for}. Observers run on the main domain (after every
    control event and at window barriers) and must not schedule. *)

type t

val create : ?shards:Shard.spec -> unit -> t
(** [create ()] (or a one-shard spec) is the sequential engine. *)

val shard_count : t -> int
(** 1 for the sequential engine. *)

val current_shard : t -> int
(** The shard whose worker domain is executing the calling code, or -1
    on the main domain (setup, control events, between runs). *)

val shard_owner : t -> int -> int
(** The shard owning an AD; 0 for the sequential engine. *)

val shard_registry : t -> int -> Pr_telemetry.Registry.t
(** The per-shard telemetry registry. Counters and histograms recorded
    there during a run are absorbed into
    {!Pr_telemetry.Registry.default} (in shard order, then cleared)
    when [run] returns, so post-run totals match the sequential
    engine's. {!Pr_telemetry.Registry.default} for the sequential
    engine. *)

val current_registry : t -> Pr_telemetry.Registry.t
(** The registry hot-path instrumentation must record to in the
    calling context: the executing shard's registry on a worker
    domain, {!Pr_telemetry.Registry.default} on the main domain. *)

val add_end_of_run_hook : t -> (unit -> unit) -> unit
(** Register a hook called on the main domain when a sharded [run]
    returns, after workers are parked and before per-shard registries
    are absorbed — {!Network} flushes its cross-shard loss shadows
    here. Ignored by the sequential engine. *)

val now : t -> float
(** Current simulated time; 0 before any event runs. On a worker
    domain this is the executing shard's clock. *)

val set_trace : t -> Pr_obs.Trace.t -> unit
(** Attach a trace recorder. While enabled, [run] samples an
    ["engine.queue_depth"] counter every 64 executed events. Defaults
    to {!Pr_obs.Trace.disabled}: no recording, no overhead beyond one
    branch per event. A sharded engine gives each shard a private
    recorder of the same capacity (tid = shard id) and folds them back
    into the primary, in timestamp order, when [run] returns. *)

val trace : t -> Pr_obs.Trace.t
(** The recorder for the calling context: the executing shard's on a
    worker domain, the primary otherwise. *)

val set_observer : t -> (time:float -> pending:int -> unit) option -> unit
(** Install a hook called after every executed event with the engine
    clock and remaining queue depth. Unlike a self-rescheduling probe
    event, an observer never keeps the queue from draining, so
    convergence (and every Metrics total) is unchanged. Used by
    {!Pr_obs.Timeline}. Under sharding it is called on the main domain
    after each control event and at each window barrier, and must not
    schedule events. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Schedule an event [delay >= 0] time units from now, in the calling
    context's shard (a control event from the main domain). *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Schedule at an absolute simulated time, which must not be in the
    past. *)

val schedule_for : t -> ad:int -> delay:float -> (unit -> unit) -> unit
(** Schedule onto the shard owning [ad] — the only way to target a
    foreign shard from a worker domain. Cross-shard deliveries are
    released at the next window barrier, clamped to the window limit;
    network sends (delay >= the cross-shard link delay) are never
    actually clamped. Equivalent to {!schedule} on the sequential
    engine. *)

val pending : t -> int

type stop_reason =
  | Drained  (** no events left: the system has quiesced *)
  | Reached_limit  (** stopped by [max_events] — usually a divergence *)

val run : ?max_events:int -> t -> stop_reason
(** Execute events until none remain or [max_events] (default 10^7)
    have run. Returns why it stopped; hitting the limit also logs a
    warning on the ["pr.engine"] source with the executed and pending
    counts — including per-shard pending depths under sharding, so a
    stuck shard is diagnosable — and leaves a flight-recorder note.
    A sharded engine spawns its worker domains on entry and joins them
    before returning; between runs no worker domains are alive. *)

val events_executed : t -> int
(** Total events executed so far over the engine's lifetime. *)
