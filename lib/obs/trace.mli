(** Structured event recorder with Chrome trace-event export.

    A recorder is a preallocated struct-of-arrays buffer; every record
    call behind a disabled recorder is a single branch on one bool, so
    instrumented hot paths stay allocation-free. When the buffer fills,
    new events are counted as dropped rather than stored — recorded
    spans therefore never lose their [span_begin] to overwrite. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh enabled recorder. [capacity] defaults to [1 lsl 18] events. *)

val disabled : t
(** The shared permanently-disabled recorder: every record call on it
    is a no-op. This is the default everywhere instrumentation hooks
    accept a [?trace] argument. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** No effect on [disabled]. *)

val length : t -> int
(** Events currently stored. *)

val dropped : t -> int
(** Events discarded because the buffer was full. *)

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

val to_json : t -> Pr_util.Json.t
(** Chrome trace-event document ([{"traceEvents": [...]}]) loadable in
    Perfetto / chrome://tracing. Events appear in record order, so
    timestamps are monotone; spans still open at export are closed at
    the last recorded timestamp so begin/end pairs always balance. *)

val write : path:string -> t -> unit
(** [to_json] serialised to [path], newline-terminated. *)

val validate_json : Pr_util.Json.t -> (unit, string) result
(** Check a parsed trace document for the invariants [to_json]
    guarantees: a [traceEvents] list of well-formed events (known
    phase, name/ph/ts/pid/tid present, [dur >= 0] on completes, args
    on counters), non-decreasing timestamps, and per-track LIFO
    balanced span pairs. Shared by bin/trace_check and the tests. *)
