(** GC-based allocation accounting and runtime sampling.

    [words f] is the exact-allocation measurement previously
    hand-rolled in bench/main.ml: minor words plus major words
    allocated directly in the major heap (major minus promoted, so
    promoted minors are not double-counted) across a call to [f].
    [sample] publishes the current GC picture as gauges in a
    registry. *)

val words : (unit -> unit) -> float
(** Words allocated by one call of [f]. Runs a full major collection
    before [f] and a minor one after it, so that words [f] allocated
    directly in the major heap are counted: keep it out of timed
    loops. *)

val words_per : ops:int -> (unit -> unit) -> float
(** [words f /. float ops]: per-operation allocation for a thunk that
    performs [ops] operations. *)

val minor_collections : (unit -> unit) -> int
(** Minor collections during one call of [f], whatever started them:
    a full minor heap, a full remembered set, a forced one. Runs a full
    major collection before [f], so [f] starts from an empty minor
    heap: keep it out of timed loops. *)

val promoted_words : (unit -> unit) -> float
(** Words the minor collections during one call of [f] copied into the
    major heap. Like {!minor_collections}, runs a full major collection
    before [f] and none after it. *)

val sample : ?registry:Registry.t -> unit -> unit
(** Set the [gc.*] gauges (minor/major/promoted words, collection and
    compaction counts, heap words) in [registry] (default
    {!Registry.default}) from [Gc.quick_stat]. *)
