(** Minimum priority queue on float priorities with deterministic FIFO
    tie-breaking.

    Entries with equal priority are returned in insertion order, which
    makes discrete-event schedules reproducible independent of queue
    internals: pop order is the strict total order (priority, insertion
    seq).

    Internally the queue is a binary min-heap of {e runs}: values added
    with exactly the same priority while that priority's run is open
    are chained behind one another in insertion order, and the heap
    holds only each run's head. A flooding wave that lands many events
    on one priority therefore adds and pops them in O(1) each. Popping
    is a merge of sorted runs, so the order is the same (priority, seq)
    order a plain heap gives; runs change the cost, never the order.

    The heap holds only unboxed priorities, seqs and value-slot ids, so
    reordering it never runs a write barrier; {!add} followed by
    {!top_priority}/{!pop_value} allocates nothing once the arrays have
    grown to the working size. A popped value is never retained.

    Storage outlives a drained queue: a queue that empties hands its
    arrays to a domain-local spare (which keeps the larger of its own
    and the handed ones), and a queue growing from no storage adopts
    the spare. A fresh queue therefore reaches the working size of the
    last one drained on its domain without allocating. Pop order does
    not depend on which storage a queue holds. Because of the spare,
    queues used by several systhreads of one domain must be serialized
    together, not only each on its own. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Number of values in the queue (every value of every run, not the
    number of heap entries). *)

val add : 'a t -> priority:float -> 'a -> unit
(** Insert an element with the given priority. *)

val top_priority : 'a t -> float
(** Priority of the next element to be popped; [infinity] when the
    queue is empty. *)

val pop_value : 'a t -> 'a
(** Remove the entry with the smallest priority (FIFO among equals)
    and return its value — the allocation-free form of {!pop}, paired
    with {!top_priority} to read the priority first.
    @raise Invalid_argument on an empty queue. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the entry with the smallest priority (FIFO among
    equals). *)

val clear : 'a t -> unit
(** Remove every value, handing the storage on as a drain does. *)

(** A queue of calls: the event list of a discrete-event simulator. An
    entry is a handler and its argument, kept side by side in one value
    slot, so queueing a call on a message allocates no closure. Pop
    order is the (priority, insertion seq) order of ['a t], over plain
    and argument-carrying entries alike. *)
module Calls : sig
  type t

  val create : unit -> t

  val is_empty : t -> bool

  val length : t -> int

  val top_priority : t -> float

  val add : t -> priority:float -> (unit -> unit) -> unit
  (** Queue the call [f ()]. *)

  val add_call : t -> priority:float -> ('a -> unit) -> 'a -> unit
  (** [add_call q ~priority f x] queues the call [f x]. *)

  val run_top : t -> unit
  (** Remove the next entry, then make its call. The entry is out of
      the queue, and its handler and argument are no longer held by
      it, before the call runs.
      @raise Invalid_argument on an empty queue. *)
end

(** Indexed min-heap with decrease-key over a dense integer key space
    [0, capacity). At most one live entry per key; improving a key's
    priority sifts the existing entry instead of inserting a duplicate.
    Equal priorities pop in increasing key order, so pop order depends
    only on current contents — the determinism the incremental SPF
    repair relies on. *)
module Keyed : sig
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
end
