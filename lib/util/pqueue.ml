(* Binary min-heap of equal-priority FIFO runs, popped in exact
   (priority, insertion seq) order, whose sifts never touch a boxed
   value.

   Runs. A run is a linked list of value slots that share one priority
   (equal under [=], and with the same sign when that priority is
   zero), in insertion order; [next] links a slot to its successor.
   The heap holds one entry per run, its head, so popping the heap is
   a k-way merge of sorted runs: every run is sorted by (priority,
   seq) because [add] only ever appends the newest seq to a run whose
   priority equals its own. A small direct-mapped table maps a
   priority's bucket to the tail slot of that priority's open run,
   which lets [add] append in O(1) without touching the heap. The
   table is only a shortcut: when two priorities share a bucket the
   newer one evicts the older, whose run stays in the heap, closed,
   and a later [add] of the evicted priority opens a new run. Such a
   run holds only larger seqs than the closed one, so the merge order
   is still exact. Flooding waves, which land many events on one
   simulated time, therefore push and pop in O(1).

   Channel runs. A {!Calls} entry may also be added on a channel (a
   directed link of a simulated network). A channel's pending copies
   form one run whose members keep their own priorities, each no
   smaller than its predecessor's: a copy that arrives no earlier than
   its channel's tail is appended behind it without touching the heap,
   and a copy that would overtake the tail is queued as any other
   entry and does not become the tail. Every run is therefore sorted
   by (priority, seq), which is all the merge needs. [vprio] keeps
   the priority of each slot added on a channel, and [next] links
   a channel run's slot to its successor [s] as [-2 - s]: a pop that
   hands the root to such a successor moves its priority into the
   heap with it, while the successor in an equal-priority run (a link
   [>= 0]) takes the root with the run's priority, as before. A
   channel's tail is kept as its slot and seq ([chan_tail],
   [chan_seq]) and checked when the next copy comes: it is still
   queued when its slot holds a value of that seq. A pop therefore
   never looks at channels, and storage gets [vprio] only once a queue
   holding it has added on a channel, as it gets [mask] only with its
   first fan-out: a queue without channels neither stores nor reads a
   slot's priority, and keeps no room for one.

   Heap position [i] is three parallel unboxed cells — [prio] (a flat
   [Float.Array]), [seq] and [slot] — so moving an entry is three
   stores of immediates: no [caml_modify], no write barrier, nothing
   for the minor GC to scan. Sifts carry the moving entry in locals and
   write the hole once per level.

   Values live apart, in [pages], indexed by [slot]: each value is
   written once by [add] and cleared once by the pop that removes it,
   and vacant slots are recycled through the [free] stack. A popped
   value is therefore never retained past its pop — the queue's
   high-water mark holds no stale references. A call entry ({!Calls})
   keeps its argument beside its handler, in the next cell of the
   same page; the two are written, read and cleared together.

   Fan-outs. A {!Calls} entry may stand for several calls of one
   handler on one argument at one priority: [mask] holds, per value
   slot, the bits of the calls still to make (0 for a plain entry and
   for a vacant slot). Such an entry is counted once per bit in
   [count], and [Calls.run_top] makes one call per pop: it clears the
   lowest bit and leaves the entry where it is, at the heap's root,
   until its last bit. The calls of one fan-out take one seq, which is
   exact when the caller would have added them back to back: no other
   value can fall between consecutive seqs of one priority. The mask
   is an immediate in an [int array], so writing it runs no barrier.

   Pages. A page holds 128 slots, value and argument side by side: 256
   words, the largest block OCaml still allocates in the minor heap.
   A simulated run writes a young handler and a young argument per
   event; written into one long-lived array, each write would add an
   entry to the remembered set, and tens of thousands of them per run
   overflow it and force a minor collection. Into a young page, the
   writes cost nothing. Pages travel with the rest of the storage, and
   [Calls.create] (one per simulated run) renews the pages the spare's
   last run wrote when a minor collection has promoted them since they
   were made.

   Storage outlives a drained queue. The queue that empties hands its
   arrays to a domain-local spare, which keeps the larger of its own
   and the handed ones up to [spare_bound] slots, and a queue growing
   from zero capacity adopts the spare instead of allocating. This is
   exact: an empty queue's storage holds only vacant slots, a full free
   stack and closed run buckets, and pop order depends only on
   (priority, seq), where seq belongs to the queue record, not to its
   storage. Channel tails belong to the queue record too, and are
   closed when it empties. *)

type 'a t = {
  mutable prio : Float.Array.t;  (* heap position -> priority of its run *)
  mutable seq : int array;  (* heap position -> insertion seq of the run head *)
  mutable slot : int array;  (* heap position -> value slot of the run head *)
  mutable pages : Obj.t array array;
      (* value slot s -> page s lsr 7, cells 2 (s land 127) (the value)
         and the next one (the argument of a call entry); vacant cells
         hold [vacant] *)
  mutable vseq : int array;  (* value slot -> insertion seq *)
  mutable vprio : Float.Array.t;
      (* value slot -> its own priority, written only by channel adds;
         as long as the storage once a queue holding it has had
         channels, empty before *)
  mutable next : int array;
      (* value slot -> next slot [s] of its run: [s] in an
         equal-priority run, [-2 - s] in a channel run, -1 at the
         tail *)
  mutable mask : int array;
      (* value slot -> calls left of a fan-out, 0 otherwise; empty
         until the storage's first fan-out *)
  mutable free : int array;  (* stack of vacant value slots *)
  mutable nfree : int;
  mutable low : int;
      (* the fewest vacant slots since the queue was last empty: its
         run has taken the free-stack positions [low, capacity) *)
  mutable extra : int;
      (* the most calls beyond one per cell that fan-outs held at once
         since the queue was last empty *)
  mutable size : int;  (* heap entries: one per run *)
  mutable count : int;  (* values *)
  mutable fanouts : int;  (* cells with a non-zero [mask] *)
  mutable next_seq : int;
  mutable open_prio : Float.Array.t;  (* bucket -> priority of its open run *)
  mutable open_tail : int array;  (* bucket -> tail slot of its open run; -1 when none *)
  mutable chan_tail : int array;
      (* channel -> tail slot of its run, -1 when none; stale once that
         slot is popped, which [chan_seq] and the slot's value tell *)
  mutable chan_seq : int array;  (* channel -> seq of its tail *)
}

(* Filler for vacant value and argument cells. It is an immediate, so
   no page is ever created as a flat float array, and it is never read
   back as an ['a]. It is also [Obj.repr ()], the argument a plain
   closure of a {!Calls} queue is applied to. *)
let vacant () : 'a = Obj.magic 0

let page_bits = 7

let page_slots = 1 lsl page_bits

let new_page () : Obj.t array = Array.make (2 * page_slots) (vacant ())

(* [k] fresh pages. The array starts from the static [[||]], not from a
   young page: [Array.make] forces a minor collection to create more
   than 256 words from a young element. *)
let new_pages k =
  let a = Array.make k [||] in
  for i = 0 to k - 1 do
    a.(i) <- new_page ()
  done;
  a

(* The page of a value slot, and the cell of its value there; its
   argument is in the next cell. *)
let[@inline] page t sl = Array.unsafe_get t.pages (sl lsr page_bits)

let[@inline] cell sl = 2 * (sl land (page_slots - 1))

let buckets = 64

(* The bucket of a priority, by [int_of_float] arithmetic so that
   hashing a float never boxes it: scale so that fractional times keep
   20 bits, then take bits of a Fibonacci product. Equal priorities
   (and 0.0 / -0.0) land in one bucket; NaN lands somewhere and never
   matches. *)
let[@inline] bucket p =
  ((int_of_float (p *. 1048576.0) * 0x1E3779B97F4A7C15) lsr 40) land (buckets - 1)

let no_prio = Float.Array.create 0

let create () =
  {
    prio = no_prio;
    seq = [||];
    slot = [||];
    pages = [||];
    vseq = [||];
    vprio = no_prio;
    next = [||];
    mask = [||];
    free = [||];
    nfree = 0;
    low = 0;
    extra = 0;
    size = 0;
    count = 0;
    fanouts = 0;
    next_seq = 0;
    open_prio = no_prio;
    open_tail = [||];
    chan_tail = [||];
    chan_seq = [||];
  }

let is_empty t = t.size = 0

let length t = t.count

let capacity t = Array.length t.seq

(* The domain's spare storage: a queue record used only for its arrays,
   at zero capacity when there is none. *)
let spare : Obj.t t Domain.DLS.key = Domain.DLS.new_key create

(* Leave an empty queue at zero capacity. *)
let drop t =
  t.prio <- no_prio;
  t.seq <- [||];
  t.slot <- [||];
  t.pages <- [||];
  t.vseq <- [||];
  t.vprio <- no_prio;
  t.next <- [||];
  t.mask <- [||];
  t.free <- [||];
  t.open_prio <- no_prio;
  t.open_tail <- [||];
  t.nfree <- 0;
  t.low <- 0;
  t.extra <- 0

(* Move an empty queue's storage to [dst] and leave [src] at zero
   capacity. *)
let transfer (src : 'a t) (dst : 'b t) =
  dst.prio <- src.prio;
  dst.seq <- src.seq;
  dst.slot <- src.slot;
  dst.pages <- src.pages;
  dst.vseq <- src.vseq;
  dst.vprio <- src.vprio;
  dst.next <- src.next;
  dst.mask <- src.mask;
  dst.free <- src.free;
  dst.low <- src.low;
  dst.extra <- src.extra;
  dst.open_prio <- src.open_prio;
  dst.open_tail <- src.open_tail;
  drop src

(* The most slots the spare keeps: eight words each, ten once fan-outs
   and channels have used the storage, so at most about 650 k words
   outlive the runs that grew them. A larger queue's storage is
   dropped when it drains, so one large run does not pin its peak for
   the life of the domain. *)
let spare_bound = 1 lsl 16

let spare_capacity () = capacity (Domain.DLS.get spare)

(* The queue has just emptied: close its channels, and hand its storage
   to the spare if larger than the spare's and within [spare_bound],
   else drop it. Either way the queue is left at zero capacity, and
   its next [add] adopts the spare. Handed-on storage has its free
   stack sorted back, lowest slot on top: positions below [low] were
   never popped and still are, and the run's pushes and pops left the
   rest a permutation of the slots it took. Every run therefore takes
   the lowest slots, and a run that peaks at d values writes only the
   pages of slots [0, d). *)
let release t =
  let sp = Domain.DLS.get spare in
  let cap = capacity t in
  Array.fill t.chan_tail 0 (Array.length t.chan_tail) (-1);
  if cap > capacity sp && cap <= spare_bound then begin
    for i = t.low to cap - 1 do
      Array.unsafe_set t.free i (cap - 1 - i)
    done;
    transfer t sp
  end
  else drop t

(* A queue that has channels keeps a priority per value slot: give
   its storage [vprio] when it has none. [grow] keeps [vprio] as long
   as the storage once it has one, so [insert_on] checks nothing. *)
let fit_vprio t =
  if Array.length t.chan_tail > 0 && Float.Array.length t.vprio < capacity t
  then t.vprio <- Float.Array.create (capacity t)

(* Every value slot is in use: adopt the spare when the queue has no
   storage yet, else double the arrays and push the new slots on the
   free stack, lowest on top. The run table is allocated with the first
   storage, so a queue that is never added to costs nothing. *)
let grow t =
  let cap = capacity t in
  let sp = Domain.DLS.get spare in
  if cap = 0 && capacity sp > 0 then begin
    transfer sp t;
    t.nfree <- capacity t;
    t.low <- t.nfree;
    t.extra <- 0
  end
  else begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let prio = Float.Array.create ncap in
    Float.Array.blit t.prio 0 prio 0 t.size;
    let extend a = Array.append a (Array.make (ncap - cap) 0) in
    t.prio <- prio;
    t.seq <- extend t.seq;
    t.slot <- extend t.slot;
    let npages = (ncap + page_slots - 1) lsr page_bits and have = Array.length t.pages in
    if npages > have then t.pages <- Array.append t.pages (new_pages (npages - have));
    t.vseq <- extend t.vseq;
    if Float.Array.length t.vprio > 0 then begin
      let vprio = Float.Array.create ncap in
      Float.Array.blit t.vprio 0 vprio 0 cap;
      t.vprio <- vprio
    end;
    t.next <- extend t.next;
    if Array.length t.mask > 0 then t.mask <- extend t.mask;
    t.free <- Array.init ncap (fun i -> ncap - 1 - i);
    t.nfree <- ncap - cap;
    t.low <- t.nfree;
    if cap = 0 then begin
      t.open_prio <- Float.Array.make buckets 0.0;
      t.open_tail <- Array.make buckets (-1)
    end
  end;
  fit_vprio t

let[@inline] less (p : float) (s : int) (q : float) (r : int) =
  p < q || (p = q && s < r)

(* Exactly equal: [=], which NaN never satisfies, and the same sign
   when both are zeros, so a run's priority is bit-for-bit the priority
   each of its values was added with. *)
let[@inline] same (p : float) (q : float) =
  p = q && (p <> 0.0 || Float.sign_bit p = Float.sign_bit q)

(* Take a vacant value slot for [value] with the next seq, outside
   every run. *)
let[@inline] take (t : 'a t) (value : 'a) =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  if t.nfree < t.low then t.low <- t.nfree;
  let sl = t.free.(t.nfree) in
  Array.unsafe_set (page t sl) (cell sl) (Obj.repr value);
  let s = t.next_seq in
  t.next_seq <- s + 1;
  t.count <- t.count + 1;
  Array.unsafe_set t.vseq sl s;
  Array.unsafe_set t.next sl (-1);
  sl

(* Sift a new run head (priority, seq [s], slot [sl]) up into the heap. *)
let[@inline] push (t : 'a t) ~priority s sl =
  let prio = t.prio and seq = t.seq and slot = t.slot in
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Float.Array.unsafe_get prio parent in
    let ps = Array.unsafe_get seq parent in
    if less priority s pp ps then begin
      Float.Array.unsafe_set prio !i pp;
      Array.unsafe_set seq !i ps;
      Array.unsafe_set slot !i (Array.unsafe_get slot parent);
      i := parent
    end
    else moving := false
  done;
  Float.Array.unsafe_set prio !i priority;
  Array.unsafe_set seq !i s;
  Array.unsafe_set slot !i sl

(* Append the taken slot [sl] (seq [s]) to its priority's open run, or
   open a new run for it, evicting any other priority's open run from
   the bucket. *)
let[@inline] place (t : 'a t) ~priority s sl =
  let b = bucket priority in
  let tail = Array.unsafe_get t.open_tail b in
  if tail >= 0 && same (Float.Array.unsafe_get t.open_prio b) priority then begin
    (* Append to the open run: the heap is not touched. *)
    Array.unsafe_set t.next tail sl;
    Array.unsafe_set t.open_tail b sl
  end
  else begin
    Float.Array.unsafe_set t.open_prio b priority;
    Array.unsafe_set t.open_tail b sl;
    push t ~priority s sl
  end

(* Queue [value] and return its value slot. *)
let[@inline] insert (t : 'a t) ~priority (value : 'a) =
  let sl = take t value in
  place t ~priority (t.next_seq - 1) sl;
  sl

(* Room for channel [chan]; new channels have no run. *)
let grow_chans t chan =
  if chan < 0 then invalid_arg "Pqueue.Calls.add_call_on: negative channel";
  let len = Int.max (chan + 1) (2 * Array.length t.chan_tail) in
  let extend a fill = Array.append a (Array.make (len - Array.length a) fill) in
  t.chan_tail <- extend t.chan_tail (-1);
  t.chan_seq <- extend t.chan_seq 0;
  fit_vprio t

(* The slot of channel [chan]'s tail while it is still queued, else
   -1. It is queued when its slot holds a value (a value is a block:
   channels serve only {!Calls}, whose values are handlers) of the
   tail's seq; a popped tail's slot is vacant or holds a later seq. *)
let[@inline] live_tail t chan =
  let tl = Array.unsafe_get t.chan_tail chan in
  if tl >= 0
     && Array.unsafe_get t.vseq tl = Array.unsafe_get t.chan_seq chan
     && Obj.is_block (Array.unsafe_get (page t tl) (cell tl))
  then tl
  else -1

(* Queue [value] on channel [chan] and return its value slot: behind
   the channel's tail when it arrives no earlier, as a plain entry when
   it would overtake the tail, else as the head of the channel's new
   run. *)
let[@inline] insert_on (t : 'a t) ~chan ~priority (value : 'a) =
  if chan < 0 || chan >= Array.length t.chan_tail then grow_chans t chan;
  let sl = take t value in
  Float.Array.unsafe_set t.vprio sl priority;
  let s = t.next_seq - 1 in
  let tl = live_tail t chan in
  if tl >= 0 then begin
    if priority >= Float.Array.unsafe_get t.vprio tl then begin
      Array.unsafe_set t.next tl (-2 - sl);
      Array.unsafe_set t.chan_tail chan sl;
      Array.unsafe_set t.chan_seq chan s
    end
    else place t ~priority s sl
  end
  else begin
    Array.unsafe_set t.chan_tail chan sl;
    Array.unsafe_set t.chan_seq chan s;
    push t ~priority s sl
  end;
  sl

let add t ~priority value = ignore (insert t ~priority value : int)

let top_priority t = if t.size = 0 then Float.infinity else Float.Array.get t.prio 0

(* Sift the entry at heap position 0 down into place. The moving key is
   read from position 0 rather than passed in, so no float crosses the
   call boundary (it would be boxed). *)
let sift_down t =
  let prio = t.prio and seq = t.seq and slot = t.slot in
  let n = t.size in
  let mp = Float.Array.unsafe_get prio 0 in
  let ms = Array.unsafe_get seq 0 in
  let msl = Array.unsafe_get slot 0 in
  let i = ref 0 in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < n
           && less (Float.Array.unsafe_get prio r) (Array.unsafe_get seq r)
                (Float.Array.unsafe_get prio l) (Array.unsafe_get seq l)
        then r
        else l
      in
      let cp = Float.Array.unsafe_get prio c in
      let cs = Array.unsafe_get seq c in
      if less cp cs mp ms then begin
        Float.Array.unsafe_set prio !i cp;
        Array.unsafe_set seq !i cs;
        Array.unsafe_set slot !i (Array.unsafe_get slot c);
        i := c
      end
      else moving := false
    end
  done;
  if !i > 0 then begin
    Float.Array.unsafe_set prio !i mp;
    Array.unsafe_set seq !i ms;
    Array.unsafe_set slot !i msl
  end

(* The slot after [sl] in its run, of either kind; -1 at the tail. *)
let successor t sl =
  let n = Array.unsafe_get t.next sl in
  if n >= -1 then n else -2 - n

(* Remove the head of the root run and release its value slot. If the
   run goes on, its successor becomes the root entry with a larger seq
   and sifts down: in an equal-priority run it keeps the root's
   priority and the sift normally stops at once, in a channel run it
   brings its own, no smaller one. If the run is finished, its bucket
   is closed when it still points at it, and the last heap entry moves
   to the root and sifts down. The caller
   has read and cleared the slot's argument; a queue left empty hands
   its storage on. *)
let remove_top (t : 'a t) : 'a =
  let sl = Array.unsafe_get t.slot 0 in
  let pg = page t sl and c = cell sl in
  let v = Obj.obj (Array.unsafe_get pg c) in
  Array.unsafe_set pg c (vacant ());
  t.free.(t.nfree) <- sl;
  t.nfree <- t.nfree + 1;
  t.count <- t.count - 1;
  let succ = Array.unsafe_get t.next sl in
  if succ >= 0 then begin
    Array.unsafe_set t.seq 0 (Array.unsafe_get t.vseq succ);
    Array.unsafe_set t.slot 0 succ;
    sift_down t
  end
  else if succ < -1 then begin
    let succ = -2 - succ in
    Float.Array.unsafe_set t.prio 0 (Float.Array.unsafe_get t.vprio succ);
    Array.unsafe_set t.seq 0 (Array.unsafe_get t.vseq succ);
    Array.unsafe_set t.slot 0 succ;
    sift_down t
  end
  else begin
    let b = bucket (Float.Array.unsafe_get t.prio 0) in
    if Array.unsafe_get t.open_tail b = sl then Array.unsafe_set t.open_tail b (-1);
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      Float.Array.unsafe_set t.prio 0 (Float.Array.unsafe_get t.prio n);
      Array.unsafe_set t.seq 0 (Array.unsafe_get t.seq n);
      Array.unsafe_set t.slot 0 (Array.unsafe_get t.slot n);
      sift_down t
    end
  end;
  if t.count = 0 then release t;
  v

let pop_value t =
  if t.size = 0 then invalid_arg "Pqueue.pop_value: empty queue";
  remove_top t

let pop t =
  if t.size = 0 then None
  else begin
    let p = Float.Array.get t.prio 0 in
    let v = remove_top t in
    Some (p, v)
  end

(* Vacate every queued slot run by run, close the run table and hand
   the storage on, as a drain would. *)
let clear t =
  if t.count > 0 then begin
    for i = 0 to t.size - 1 do
      let sl = ref (Array.unsafe_get t.slot i) in
      while !sl >= 0 do
        let pg = page t !sl and c = cell !sl in
        Array.unsafe_set pg c (vacant ());
        Array.unsafe_set pg (c + 1) (vacant ());
        if t.fanouts > 0 then Array.unsafe_set t.mask !sl 0;
        t.free.(t.nfree) <- !sl;
        t.nfree <- t.nfree + 1;
        sl := successor t !sl
      done
    done;
    Array.fill t.open_tail 0 buckets (-1);
    t.size <- 0;
    t.count <- 0;
    t.fanouts <- 0;
    release t
  end

module Calls = struct
  type nonrec t = (Obj.t -> unit) t

  type clock = { mutable now : float }

  (* The minor-collection count when the spare's pages were last
     renewed. *)
  let renewed = Domain.DLS.new_key (fun () -> ref (-1))

  (* A queue starts at zero capacity and adopts the spare on its first
     [add], so a run writes its events into the spare's pages. Renew
     the pages the last run wrote (the next one likely writes as many)
     when a minor collection has run since they were made: it has
     promoted them, and young values written into old pages fill the
     remembered set. Their cells are all vacant, so the fresh pages
     hold the same. A run whose calls at their peak would fill more
     than a quarter of the minor heap at one cell each is left alone:
     a run that large collects early anyway, after which the values it
     writes are old too, so renewing would only copy the pages once
     more. The rule counts calls, not cells, because a fan-out takes
     one cell for many calls: a large run's pages are then small, but
     the run is no smaller. The peak cells plus the peak [extra] are
     at least the peak calls, and both are kept off the plain [add]
     path. *)
  let create () =
    let sp = Domain.DLS.get spare in
    let used = (capacity sp - sp.low + page_slots - 1) lsr page_bits in
    let calls = (capacity sp - sp.low + sp.extra + page_slots - 1) lsr page_bits in
    if used > 0 && 4 * calls * ((2 * page_slots) + 1) <= (Gc.get ()).Gc.minor_heap_size
    then begin
      let collections = (Gc.quick_stat ()).Gc.minor_collections in
      let last = Domain.DLS.get renewed in
      if collections <> !last then begin
        last := collections;
        for i = 0 to used - 1 do
          sp.pages.(i) <- new_page ()
        done
      end
    end;
    create ()

  let is_empty = is_empty

  let length = length

  let clear = clear

  let add t ~priority (f : unit -> unit) =
    ignore (insert t ~priority (Obj.magic f : Obj.t -> unit) : int)

  (* [insert] is inlined, so the sum reaches the heap unboxed. *)
  let add_after t clock ~delay (f : unit -> unit) =
    ignore (insert t ~priority:(clock.now +. delay) (Obj.magic f : Obj.t -> unit) : int)

  let add_call_after t clock ~delay (f : 'a -> unit) (x : 'a) =
    let sl = insert t ~priority:(clock.now +. delay) (Obj.magic f : Obj.t -> unit) in
    Array.unsafe_set (page t sl) (cell sl + 1) (Obj.repr x)

  (* Inlined through [Engine.schedule_call_on] into the send path, so
     a delay summed there reaches the heap unboxed. *)
  let[@inline] add_call_on t clock ~chan ~delay (f : 'a -> unit) (x : 'a) =
    let sl = insert_on t ~chan ~priority:(clock.now +. delay) (Obj.magic f : Obj.t -> unit) in
    Array.unsafe_set (page t sl) (cell sl + 1) (Obj.repr x)

  (* Set bits of a mask of at most 62 bits, by SWAR sums: no loop, no
     allocation. Each constant fits an OCaml int. *)
  let[@inline] popcount x =
    let x = x - ((x lsr 1) land 0x1555555555555555) in
    let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
    let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
    let x = x + (x lsr 8) in
    let x = x + (x lsr 16) in
    (x + (x lsr 32)) land 0x7F

  let cells t = capacity t - t.nfree

  type census = { entries : int; busy_channels : int; channel_calls : int }

  (* Mark the slots of the channels' queued tails, then walk each heap
     entry's run to its tail: a run that ends at a channel's tail is
     that channel's. *)
  let census t =
    let tails = Array.make (capacity t) false and busy = ref 0 in
    for chan = 0 to Array.length t.chan_tail - 1 do
      let tl = live_tail t chan in
      if tl >= 0 then begin
        tails.(tl) <- true;
        incr busy
      end
    done;
    let calls = ref 0 in
    for i = 0 to t.size - 1 do
      let len = ref 1 and sl = ref t.slot.(i) in
      while successor t !sl >= 0 do
        incr len;
        sl := successor t !sl
      done;
      if tails.(!sl) then calls := !calls + !len
    done;
    { entries = t.size; busy_channels = !busy; channel_calls = !calls }

  let add_fanout_after t clock ~delay (f : int -> 'a -> unit) (x : 'a) ~mask =
    if mask <= 0 then invalid_arg "Pqueue.Calls.add_fanout_after: empty mask";
    let sl = insert t ~priority:(clock.now +. delay) (Obj.magic f : Obj.t -> unit) in
    Array.unsafe_set (page t sl) (cell sl + 1) (Obj.repr x);
    if Array.length t.mask = 0 then t.mask <- Array.make (capacity t) 0;
    Array.unsafe_set t.mask sl mask;
    t.fanouts <- t.fanouts + 1;
    t.count <- t.count + popcount mask - 1;
    let extra = t.count - cells t in
    if extra > t.extra then t.extra <- extra

  (* A fan-out makes its lowest call and stays at the root, where no
     value added by the call can overtake it (each takes a larger seq
     at a priority no smaller), until its last call, which pops it as
     a plain entry is popped. Kept out of line, so that the plain path
     of [run_top] stays short. *)
  let run_fanout t sl pg c x m =
    let rest = m land (m - 1) in
    if rest = 0 then begin
      if Obj.is_block x then Array.unsafe_set pg c (vacant ());
      Array.unsafe_set t.mask sl 0;
      t.fanouts <- t.fanouts - 1;
      let f : int -> Obj.t -> unit = Obj.magic (remove_top t) in
      f (popcount (m - 1)) x
    end
    else begin
      Array.unsafe_set t.mask sl rest;
      t.count <- t.count - 1;
      let f : int -> Obj.t -> unit = Obj.magic (Array.unsafe_get pg (c - 1)) in
      f (popcount ((m land (-m)) - 1)) x
    end

  let run_top t clock =
    if t.size = 0 then invalid_arg "Pqueue.Calls.run_top: empty queue";
    clock.now <- Float.Array.unsafe_get t.prio 0;
    let sl = Array.unsafe_get t.slot 0 in
    let pg = page t sl and c = cell sl + 1 in
    let x = Array.unsafe_get pg c in
    (* Reading the mask on every pop cost faulted runs, which never
       fan out, about 3% of their time: read it only while the queue
       holds a fan-out. *)
    let m = if t.fanouts = 0 then 0 else Array.unsafe_get t.mask sl in
    if m = 0 then begin
      if Obj.is_block x then Array.unsafe_set pg c (vacant ());
      let f = remove_top t in
      f x
    end
    else run_fanout t sl pg c x m
end
