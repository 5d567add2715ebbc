(** Windowed sampling of monotone counters over simulated time.

    A timeline turns end-of-run totals into convergence dynamics: it
    probes a vector of counters (normally [Metrics] totals) at most
    once per simulated-time window, records each changed value as a
    Chrome counter event on the given trace, and remembers per series
    when activity first appeared and when it last changed — the
    time-to-first-route and time-to-quiescence figures. The probe is
    driven from the engine's per-event observer, never by scheduling
    events of its own, so an instrumented run drains exactly like an
    uninstrumented one. *)

type t

val create :
  ?window:float -> series:string list -> probe:(unit -> float array) -> Trace.t -> t
(** [create ~series ~probe trace] takes an immediate sample at time 0.
    [probe ()] must return the current value of each series, in order;
    [window] (default [1.0]) is the minimum simulated time between
    samples. Pass [Trace.disabled] to keep the timeline summary
    without counter events. *)

val observe : t -> now:float -> unit
(** Sample iff [now] crossed the next window boundary; otherwise a
    float compare. Call with the engine clock on every executed
    event. *)

val finish : t -> now:float -> unit
(** Unconditional final sample at [now]. *)

val samples : t -> (float * float array) list
(** All samples taken, oldest first, as (time, values-per-series). *)

val first_nonzero : t -> string -> float option
(** Time the named series was first observed nonzero. *)

val final : t -> string -> float option

val quiescence : t -> float
(** Last time any series changed — time-to-quiescence. *)

val table : t -> Pr_util.Texttable.t
(** Per-series first-activity / last-change / final summary table. *)
