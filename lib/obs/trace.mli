(** Structured event recorder: a ring of (kind, name, ts, tid, value,
    detail) events with Chrome trace-event and post-mortem export.

    A recorder is a preallocated struct-of-arrays buffer; every record
    call behind a disabled recorder is a single branch on one bool, so
    instrumented hot paths stay allocation-free. What a full ring does
    is fixed at creation: a per-run trace drops the newest events, so
    recorded spans never lose their [span_begin] to overwrite; the
    process-global {!flight} ring overwrites the oldest, so a
    post-mortem always shows the moments leading up to a failure. *)

type t

type policy =
  | Drop_newest  (** a full ring counts new events as dropped *)
  | Overwrite_oldest  (** a full ring replaces its oldest event *)

val create : ?policy:policy -> ?capacity:int -> unit -> t
(** Fresh enabled recorder. [policy] defaults to [Drop_newest],
    [capacity] to [1 lsl 18] events. *)

val disabled : t
(** The shared permanently-disabled recorder: every record call on it
    is a no-op. This is the default everywhere instrumentation hooks
    accept a [?trace] argument. *)

val flight : t
(** The process-global, always-on post-mortem ring: 1024 events,
    [Overwrite_oldest]. Written through {!note}. *)

val enabled : t -> bool

val length : t -> int
(** Events currently stored (at most the capacity). *)

val dropped : t -> int
(** Events recorded but no longer held: discarded by a full
    [Drop_newest] ring, or overwritten in an [Overwrite_oldest] one. *)

val clear : t -> unit

(** All record functions take [~ts] in the caller's timebase —
    simulated time for in-run traces, wall-clock microseconds for the
    pool trace — and [~tid], rendered as the Perfetto track (the AD id
    for protocol work, worker pid for pool spans). *)

val span_begin : t -> ts:float -> tid:int -> string -> unit
val span_end : t -> ts:float -> tid:int -> string -> unit
val instant : t -> ts:float -> tid:int -> string -> unit
val counter : t -> ts:float -> tid:int -> value:float -> string -> unit

val complete : t -> ts:float -> dur:float -> tid:int -> string -> unit
(** A self-contained span ([ph:"X"]): one event carrying its own
    duration. Used for route computations, where [dur] is the work
    charge rather than elapsed time. *)

val note : t -> ts:float -> tid:int -> ?value:float -> ?detail:string -> string -> unit
(** A notable event — a fault, a link or node transition, a guard
    verdict, an invariant violation: one instant recorded into the
    run's trace [t] (when enabled) and into {!flight} (always, under a
    lock, so any domain may note). [value] and [detail] are exported
    as the event's args. *)

val to_json : t -> Pr_util.Json.t
(** Chrome trace-event document ([{"traceEvents": [...]}]) loadable in
    Perfetto / chrome://tracing. Events appear in record order, so
    timestamps are monotone; spans still open at export are closed at
    the last recorded timestamp so begin/end pairs always balance. *)

val write : path:string -> t -> unit
(** [to_json] serialised to [path], newline-terminated. *)

val post_mortem : ?metrics:Pr_util.Json.t -> reason:string -> t -> Pr_util.Json.t
(** The [{"document": "post-mortem"}] document: the reason, the
    number of events ever recorded (["recorded"]), the capacity, the
    held events oldest first (same encoding as {!to_json}'s) and, when
    given, a metrics snapshot document. *)

val write_post_mortem :
  ?metrics:Pr_util.Json.t -> reason:string -> path:string -> t -> unit
(** [post_mortem] serialised to [path], newline-terminated. *)

val validate_events : Pr_util.Json.t list -> (unit, string) result
(** The per-event check both documents share: each event an object
    with a known phase, name/ph/ts/pid/tid present, [dur >= 0] on
    completes and an args object on counters; timestamps
    non-decreasing in document order. *)

val validate_json : Pr_util.Json.t -> (unit, string) result
(** Check a parsed trace document for the invariants [to_json]
    guarantees: a [traceEvents] list passing {!validate_events}, with
    per-track LIFO balanced span pairs. Shared by bin/trace_check and
    the tests. *)
