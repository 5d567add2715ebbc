(** Discrete-event simulation engine.

    A simple event-list simulator: calls scheduled at simulated times,
    executed in time order with deterministic FIFO tie-breaking
    (see {!Pr_util.Pqueue}). Routing protocols are message-driven, so a
    drained queue means the protocol has converged. *)

type t

val create : ?trace:Pr_obs.Trace.t -> unit -> t
(** [trace] (default {!Pr_obs.Trace.disabled}) is the run's recorder:
    while it is enabled, [run] samples an ["engine.queue_depth"]
    counter every 64 executed events, and the network and the layers
    above record on it through {!trace}. A disabled recorder costs one
    branch per event. *)

val now : t -> float
(** Current simulated time; 0 before any event runs. *)

val trace : t -> Pr_obs.Trace.t
(** The run's recorder, given at creation. *)

val set_observer : t -> (time:float -> pending:int -> unit) option -> unit
(** Install a hook called after every executed event with the engine
    clock and remaining queue depth. Unlike a self-rescheduling probe
    event, an observer never keeps the queue from draining, so
    convergence (and every Metrics total) is unchanged. Used by
    {!Pr_obs.Timeline}. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Schedule an event [delay >= 0] time units from now.
    @raise Invalid_argument on a negative or NaN delay. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Schedule at an absolute simulated time, which must not be in the
    past.
    @raise Invalid_argument on a past or NaN time. *)

val schedule_call : t -> delay:float -> ('a -> unit) -> 'a -> unit
(** [schedule_call t ~delay f x] schedules the call [f x], like
    [schedule t ~delay (fun () -> f x)] but with no closure: the queue
    keeps [f] and [x] side by side. A handler built once and applied to
    many payloads (a link delivering messages) then allocates nothing
    per event.
    @raise Invalid_argument on a negative or NaN delay. *)

val schedule_call_on : t -> chan:int -> delay:float -> ('a -> unit) -> 'a -> unit
(** [schedule_call_on t ~chan ~delay f x] is {!schedule_call} on a
    channel: the event runs exactly when {!schedule_call} would run it,
    and while each event of channel [chan] (a non-negative int, such
    as a directed link) comes no earlier than the one before it, the
    channel's pending events take one queue entry between them
    ({!Pr_util.Pqueue.Calls.add_call_on}).
    @raise Invalid_argument on a negative or NaN delay, or a negative
    channel. *)

val schedule_fanout : t -> delay:float -> (int -> 'a -> unit) -> 'a -> mask:int -> unit
(** [schedule_fanout t ~delay f x ~mask] schedules the calls [f i x],
    one per bit [i] set in [mask] (bits 0 to 61), in increasing [i],
    all [delay] from now, as one queue entry. Each call is one event:
    it counts in {!pending}, {!events_executed} and [max_events], and
    the observer sees it, exactly as if each had been scheduled with
    {!schedule_call} in turn at this point. A budget can stop a run
    between two calls of one fan-out.
    @raise Invalid_argument on a negative or NaN delay, or a mask
    that is not positive. *)

val pending : t -> int
(** Events still to run: each call of a fan-out counts. *)

val queue_cells : t -> int
(** Queue cells the pending events take: one per {!schedule}d or
    {!schedule_call}ed event, one per fan-out. Exported for a test
    budget only: [test_faults] "one queue cell per broadcast" (25 000
    cells at the peak of a 304-AD ORWG converge). *)

val queue_census : t -> Pr_util.Pqueue.Calls.census
(** The queue's heap entries, busy channels and the pending events
    held in channel runs. It walks the queue. Exported for a test
    budget only: [test_faults] "one heap entry per busy channel" (at
    most 64 pending events outside channel runs). *)

type stop_reason =
  | Drained  (** no events left: the system has quiesced *)
  | Reached_limit  (** stopped by [max_events] — usually a divergence *)

val run : ?max_events:int -> t -> stop_reason
(** Execute events until none remain or [max_events] (default 10^7)
    have run. Returns why it stopped; hitting the limit also logs a
    warning on the ["pr.engine"] source with the executed and pending
    counts and leaves an ["engine.reached_limit"] {!Pr_obs.Trace.note}.
    The registry's ["engine.events"] counter gains the run's executed
    events once, when it returns or a handler raises. *)

val events_executed : t -> int
(** Total events executed so far over the engine's lifetime. *)
