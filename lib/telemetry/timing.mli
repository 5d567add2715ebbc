(** Per-operation wall-clock timing on the monotonic clock: the one
    estimator of every timed band field. Preemption, GC and frequency
    dips only ever inflate a batch, so a figure is a least batch. *)

val now_ns : unit -> float
(** The monotonic clock, in nanoseconds. *)

val ns_per : ops:int -> (unit -> unit) -> float
(** Nanoseconds per operation of a thunk that performs [ops]
    operations: one warm-up call and a full major collection, then the
    least of 5 batches. A batch makes at least 2 calls and stops after
    100 calls or once 50 ms have passed. *)

val pair_ns_per : ops:int -> (unit -> unit) -> (unit -> unit) -> float * float
(** {!ns_per} of two thunks over 6 rounds, their batches alternating
    so that both sample the same noise. *)
