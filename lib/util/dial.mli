(** Bucket queue over integer keys (Dial, CACM 12(11), 1969): the queue
    every integer-keyed graph search in the library runs on.

    Items are ints [0, n) (nodes or search states), each queued at most
    once under a key [>= 0]. The queue is a ring of buckets, one per key
    while the queued keys span fewer keys than the ring has buckets; a
    bucket is a doubly linked list of items. {!push} appends an item to
    its bucket, or prepends it with [~lifo:true], so among equal keys a
    bucket pops in push order or latest push first: the (key, seq)
    orders of a heap with FIFO or LIFO ties. A search that lowers a
    queued item's key {!remove}s it and pushes it again, as a heap would
    decrease its key, so live items pop in (key, order of the last
    push).

    A push that widens the queued span past the ring doubles the ring
    until it fits, up to 2{^16} buckets; past that a bucket may hold
    several keys 2{^16} apart and {!pop} takes the first item of the
    least key in its list, so no key span breaks the order, only slows
    it. A push below the last pop's key (an inconsistent bound's)
    moves the cursor back to it. Once its arrays have grown to the
    working size, a queue allocates nothing. *)

type t

val create : unit -> t
(** An empty queue with room for no items and 64 buckets. *)

val reserve : t -> int -> unit
(** Empty the queue and make room for items [0, n). Items still queued
    are dropped in O(span of their keys) at most, and {!key} of an item
    left queued stays stale until it is pushed again. *)

val is_empty : t -> bool

val key : t -> int -> int
(** The item's key while it is queued, else [-1] (or a stale key of a
    search {!reserve} cut short). *)

val push : t -> int -> int -> lifo:bool -> unit
(** [push t i k ~lifo] queues item [i], not queued, under key [k >= 0]. *)

val remove : t -> int -> unit
(** Take a queued item out of the queue. *)

val pop : t -> int
(** Remove and return the first item of the least key (see above). The
    queue must not be empty. *)

val last_key : t -> int
(** The key of the last item {!pop} returned. *)
