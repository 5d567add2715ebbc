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

val pending : t -> int

type stop_reason =
  | Drained  (** no events left: the system has quiesced *)
  | Reached_limit  (** stopped by [max_events] — usually a divergence *)

val run : ?max_events:int -> t -> stop_reason
(** Execute events until none remain or [max_events] (default 10^7)
    have run. Returns why it stopped; hitting the limit also logs a
    warning on the ["pr.engine"] source with the executed and pending
    counts and leaves an ["engine.reached_limit"] {!Pr_obs.Trace.note}. *)

val events_executed : t -> int
(** Total events executed so far over the engine's lifetime. *)
