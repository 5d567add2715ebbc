(** Bounded least-recently-used cache.

    A polymorphic key/value store with O(1) [find]/[put]/[remove] built
    from a hash table over an intrusive doubly-linked recency list.
    [find] and [put] move the touched entry to the most-recently-used
    end; when the table is full, [put] of a fresh key evicts the
    least-recently-used entry and counts it.  A [None] capacity makes
    the cache unbounded (a plain recency-ordered table), so callers can
    keep one code path whether or not a bound is configured.

    Used by the ORWG setup-handle and route caches and by the serving
    layer's handle table — both need deterministic victims (true LRU
    order) so that runs replay byte-identically. *)

type ('k, 'v) t

val create : ?capacity:int option -> unit -> ('k, 'v) t
(** [create ~capacity ()] makes an empty cache.  [capacity] of
    [Some c] bounds the cache to [c] entries ([c >= 1]); [None] (the
    default) means unbounded.  Raises [Invalid_argument] on
    [Some c] with [c < 1].  The hash table is made by the first
    [put]: a cache that is never written allocates none. *)

val capacity : ('k, 'v) t -> int option

val length : ('k, 'v) t -> int

val mem : ('k, 'v) t -> 'k -> bool
(** Membership without touching recency. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup without touching recency. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit moves the entry to most-recently-used. *)

val oldest : ('k, 'v) t -> 'v option
(** The least-recently-used value, without touching recency: the one
    the next [put] of a fresh key into a full cache evicts. *)

val put : ('k, 'v) t -> 'k -> 'v -> 'k option
(** [put t k v] inserts or updates [k] and marks it most-recently-used.
    If the insert would exceed a bounded capacity, the
    least-recently-used entry is evicted first and its key returned
    (so callers can clean up side tables and count the eviction).
    Updating an existing key never evicts. *)

val remove : ('k, 'v) t -> 'k -> unit

val evictions : ('k, 'v) t -> int
(** Total capacity evictions since [create].  [remove] and [clear] do
    not count; only overflow during [put] does. *)

val clear : ('k, 'v) t -> unit
(** Drop all entries.  Eviction counts survive (they are lifetime
    statistics, not contents). *)

val fold : ('k, 'v) t -> init:'a -> f:('a -> 'k -> 'v -> 'a) -> 'a
(** Fold entries from most- to least-recently-used.  [f] must not
    mutate the cache. *)

val self_check : ('k, 'v) t -> (unit, string) result
(** Structural audit: the recency list and the hash table must hold
    exactly the same entries, the list must be well linked in both
    directions, and a bounded cache must not exceed its capacity.
    Used by the serve smoke as the handle-leak detector. *)
