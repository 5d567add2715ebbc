(** Indexed min-heap with decrease-key over a dense integer key space
    [0, capacity). At most one live entry per key; improving a key's
    priority sifts the existing entry instead of inserting a duplicate.
    Equal priorities pop in increasing key order, so pop order depends
    only on current contents — the determinism the incremental SPF
    repair relies on. *)

type t

val create : capacity:int -> t
(** A heap accepting keys in [0, capacity). *)

val is_empty : t -> bool

val length : t -> int

val mem : t -> int -> bool
(** Is the key currently enqueued? *)

val priority : t -> int -> int option
(** Current priority of an enqueued key. *)

val insert_or_decrease : t -> int -> priority:int -> bool
(** Insert the key, or lower its priority if already enqueued with a
    worse one. Returns [true] iff the heap changed (a caller that
    tracks per-key payloads — e.g. candidate parents — updates them
    exactly when this returns [true]). *)

val pop : t -> (int * int) option
(** Remove and return [(priority, key)] for the minimum entry, ties
    broken toward the smaller key. *)

val pop_min : t -> int
(** Allocation-free {!pop}: remove the minimum entry and return its
    key, or [-1] when the heap is empty. *)

val clear : t -> unit
(** Empty the heap in O(live entries). *)
