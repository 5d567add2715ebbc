(** The event list of the discrete-event engine: a minimum priority
    queue of calls on float priorities with deterministic FIFO
    tie-breaking.

    Calls with equal priority are made in insertion order, which makes
    discrete-event schedules reproducible independent of queue
    internals: pop order is the strict total order (priority, insertion
    seq).

    Internally the queue is a binary min-heap of {e runs}: a call added
    no earlier than the last call of its channel's open run is chained
    behind it, and the heap holds only each run's head. Plain calls
    share 64 channels by a hash of their priority, so a flooding wave
    that lands many events on one priority adds and pops them in O(1)
    each. Popping is a merge of sorted runs, so the order is the same
    (priority, seq) order a plain heap gives; runs change the cost,
    never the order.

    The heap holds only unboxed priorities, seqs and value-slot ids, so
    reordering it never runs a write barrier; adding and making calls
    allocates nothing once the arrays have grown to the working size.
    A call's handler and argument are not retained once it is made.

    Storage outlives a drained queue: a queue that empties hands its
    arrays to a domain-local spare (which keeps the larger of its own
    and the handed ones, up to 2{^16} slots; larger storage is
    dropped), and a queue growing from no storage adopts the spare. A
    fresh queue therefore reaches the working size of the last one
    drained on its domain without allocating. Pop order does not
    depend on which storage a queue holds. Because of the spare,
    queues used by several systhreads of one domain must be serialized
    together, not only each on its own. *)

val spare_capacity : unit -> int
(** Value slots of the calling domain's spare storage. Exported for a
    test budget only: [test_util] "spare bound" (2{^16} slots). *)

(** A queue of calls: the event list of a discrete-event simulator. An
    entry is a handler and its argument, kept side by side in one value
    slot, so queueing a call on a message allocates no closure. Pop
    order is (priority, insertion seq), over plain and
    argument-carrying entries alike. A fan-out entry stands for
    several calls of one handler on one argument at one priority, in
    one cell: a flooded broadcast's copies queue as one entry. A call
    added on a channel joins that channel's run: while each copy
    arrives no earlier than the one before it, a channel's pending
    calls take one heap entry between them, whatever their priorities.
    The simulator's clock is a cell the queue reads and advances itself,
    so no priority crosses a call boundary as a boxed float. *)
module Calls : sig
  type t

  type clock = { mutable now : float }
  (** An all-float record, stored flat: updating it boxes nothing. *)

  val create : unit -> t
  (** An empty queue. It also renews the cells the domain's spare
      storage keeps handlers and arguments in, when a minor collection
      has promoted them since their last renewal and the last run's
      calls at their peak (bounded from above), at one cell each,
      took at most a quarter of the minor heap: a run then writes its
      young events into young blocks, which fills no remembered set. *)

  val is_empty : t -> bool

  val length : t -> int
  (** Calls still to make: a fan-out counts once per call it has left. *)

  val cells : t -> int
  (** Value cells in use: one per plain entry and one per fan-out,
      however many calls it has left. At most {!length}. Exported so
      that a test can pin that broadcasts share cells; nothing else
      depends on it. *)

  val add : t -> priority:float -> (unit -> unit) -> unit
  (** Queue the call [f ()] at an absolute priority. *)

  val add_after : t -> clock -> delay:float -> (unit -> unit) -> unit
  (** Queue the call [f ()] at [clock.now +. delay]. *)

  val add_call_after : t -> clock -> delay:float -> ('a -> unit) -> 'a -> unit
  (** [add_call_after q clock ~delay f x] queues the call [f x] at
      [clock.now +. delay]. *)

  val add_call_on :
    t -> clock -> chan:int -> delay:float -> ('a -> unit) -> 'a -> unit
  (** [add_call_on q clock ~chan ~delay f x] queues the call [f x] at
      [clock.now +. delay], as {!add_call_after} does, on channel
      [chan] (any non-negative int; a queue holds room for the largest
      it has seen). It pops exactly where {!add_call_after} would pop
      it. When it arrives no earlier than the channel's last call
      still queued, it is appended to that call's run without touching
      the heap; a call that would overtake it is queued as a plain
      entry and leaves the channel's run as it was.
      @raise Invalid_argument on a negative [chan], queueing nothing. *)

  type census = {
    entries : int;
        (** heap entries: one per run, of plain calls or of one
            channel's calls *)
    busy_channels : int;  (** channels with a call still queued in their run *)
    channel_calls : int;  (** calls queued in channel runs *)
  }

  val census : t -> census
  (** How the queue holds its calls, in O(channels + calls). Exported so that
      a test can pin that a channel's calls share one heap entry;
      nothing else depends on it. *)

  val add_fanout_after :
    t -> clock -> delay:float -> (int -> 'a -> unit) -> 'a -> mask:int -> unit
  (** [add_fanout_after q clock ~delay f x ~mask] queues the calls
      [f i x], one for each bit [i] set in [mask], in increasing [i],
      all at [clock.now +. delay], in one value cell. They pop back to
      back where the same calls added one after another would pop:
      the fan-out takes the next seq, and an entry added before it
      pops before all of its calls, one added after it after all.
      [mask] may use bits 0 to 61.
      @raise Invalid_argument when [mask] is not positive. *)

  val clear : t -> unit
  (** Remove every call, handing the storage on as a drain does.
      Exported for tests only: the [test_util] models "pqueue storage
      handover" and "channel runs" empty a queue and refill it. *)

  val run_top : t -> clock -> unit
  (** Set the clock to the next entry's priority and make its next
      call. A plain entry, and a fan-out's last call, is removed
      first: the queue no longer holds its handler and argument when
      the call runs. A fan-out with calls left stays at the head,
      still holding them.
      @raise Invalid_argument on an empty queue. *)
end
