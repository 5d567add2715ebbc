(* The event list of the discrete-event engine: a binary min-heap of
   runs, popped in exact (priority, insertion seq) order, whose sifts
   never touch a boxed value.

   Runs. Every value slot keeps its own priority ([vprio]) and seq
   ([vseq]), the next slot of its run ([next], -1 at the end) and the
   channel of its run ([vchan]). A run is a chain of slots, each no
   earlier than the one before it; the heap holds one entry per run,
   its head, so popping the heap is a k-way merge of sorted runs. A
   channel has at most one open run, whose last slot is the channel's
   [tail]. An add on a channel is appended behind the tail when its
   priority is no smaller than the tail's, without touching the heap:
   it takes the newest seq, so the run stays sorted by (priority, seq),
   which is all the merge needs. Otherwise a plain add opens a new run
   and becomes its channel's tail, leaving the old run in the heap,
   closed; a copy on a link channel that would overtake the tail is
   queued as a plain add, and the link's run stays open.

   Channels [0, buckets) take plain adds, by a hash of the priority, so
   a flooding wave that lands many events on one time pushes and pops
   them in O(1) each. Channel [buckets + c] is {!Calls.add_call_on}'s
   channel [c] (a directed link of a simulated network): while each
   copy arrives no earlier than the one before it, a link's pending
   copies take one heap entry between them.

   A pop hands the root to the run's successor, which brings its own
   priority and seq and sifts down. A finished run closes its channel
   when it is still the tail, so a drained queue has every channel
   closed, and a tail always names a queued slot.

   Heap position [i] is three parallel unboxed cells — [prio] (a flat
   [Float.Array]), [seq] and [slot] — so moving an entry is three
   stores of immediates: no [caml_modify], no write barrier, nothing
   for the minor GC to scan. Sifts carry the moving entry in locals and
   write the hole once per level. The heap arrays grow with the runs,
   not with the values: a run of many values costs one heap position.

   Values live apart, in [pages], indexed by [slot]: each value is
   written once by an add and cleared once by the pop that removes it,
   and vacant slots are recycled through the [free] stack. A popped
   value is therefore never retained past its pop — the queue's
   high-water mark holds no stale references. A call keeps its
   argument beside its handler, in the next cell of the same page; the
   two are written, read and cleared together.

   Fan-outs. An entry may stand for several calls of one handler on one
   argument at one priority: [mask] holds, per value slot, the bits of
   the calls still to make (0 for a plain entry and for a vacant slot).
   Such an entry is counted once per bit in [count], and
   [Calls.run_top] makes one call per pop: it clears the lowest bit and
   leaves the entry where it is, at the heap's root, until its last
   bit. The calls of one fan-out take one seq, which is exact when the
   caller would have added them back to back: no other value can fall
   between consecutive seqs. The mask is an immediate in an
   [int array], so writing it runs no barrier.

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
   arrays, channel tails included, to a domain-local spare, which keeps
   the larger of its own and the handed ones up to [spare_bound] slots,
   and a queue growing from zero capacity adopts the spare instead of
   allocating. This is exact: an empty queue's storage holds only
   vacant slots, a full free stack and closed channels, and pop order
   depends only on (priority, seq), where seq belongs to the queue
   record, not to its storage. *)

type t = {
  mutable prio : Float.Array.t;  (* heap position -> priority of its run's head *)
  mutable seq : int array;  (* heap position -> seq of its run's head *)
  mutable slot : int array;  (* heap position -> slot of its run's head *)
  mutable pages : Obj.t array array;
      (* value slot s -> page s lsr 7, cells 2 (s land 127) (the
         handler) and the next one (its argument); vacant cells hold
         [vacant] *)
  mutable vprio : Float.Array.t;  (* value slot -> its priority *)
  mutable vseq : int array;  (* value slot -> its insertion seq *)
  mutable next : int array;  (* value slot -> next slot of its run, -1 at the end *)
  mutable vchan : int array;  (* value slot -> channel of its run *)
  mutable mask : int array;
      (* value slot -> calls left of a fan-out, 0 otherwise; empty
         until the storage's first fan-out *)
  mutable tail : int array;  (* channel -> last slot of its open run, -1 when closed *)
  mutable free : int array;  (* stack of vacant value slots *)
  mutable nfree : int;
  mutable low : int;
      (* the fewest vacant slots since the queue was last empty: its
         run has taken the free-stack positions [low, capacity) *)
  mutable extra : int;
      (* the most calls beyond one per cell that fan-outs held at once
         since the queue was last empty *)
  mutable size : int;  (* heap entries: one per run *)
  mutable count : int;  (* calls *)
  mutable fanouts : int;  (* cells with a non-zero [mask] *)
  mutable next_seq : int;
}

(* Filler for vacant value and argument cells. It is an immediate, so
   no page is ever created as a flat float array, and it is never read
   back as a handler. It is also [Obj.repr ()], the argument a plain
   closure is applied to. *)
let vacant : Obj.t = Obj.repr 0

let page_bits = 7

let page_slots = 1 lsl page_bits

let new_page () : Obj.t array = Array.make (2 * page_slots) vacant

(* [k] fresh pages. The array starts from the static [[||]], not from a
   young page: [Array.make] forces a minor collection to create more
   than 256 words from a young element. *)
let new_pages k =
  let a = Array.make k [||] in
  for i = 0 to k - 1 do
    a.(i) <- new_page ()
  done;
  a

(* The page of a value slot, and the cell of its handler there; its
   argument is in the next cell. *)
let[@inline] page t sl = Array.unsafe_get t.pages (sl lsr page_bits)

let[@inline] cell sl = 2 * (sl land (page_slots - 1))

let buckets = 64

(* The channel of a plain add at priority [p], by [int_of_float]
   arithmetic so that hashing a float never boxes it: scale so that
   fractional times keep 20 bits, then take bits of a Fibonacci
   product. Equal priorities (and 0.0 / -0.0) share a bucket. *)
let[@inline] bucket p =
  ((int_of_float (p *. 1048576.0) * 0x1E3779B97F4A7C15) lsr 40) land (buckets - 1)

let no_prio = Float.Array.create 0

let create () =
  {
    prio = no_prio;
    seq = [||];
    slot = [||];
    pages = [||];
    vprio = no_prio;
    vseq = [||];
    next = [||];
    vchan = [||];
    mask = [||];
    tail = [||];
    free = [||];
    nfree = 0;
    low = 0;
    extra = 0;
    size = 0;
    count = 0;
    fanouts = 0;
    next_seq = 0;
  }

let capacity t = Array.length t.vseq

(* The domain's spare storage: a queue record used only for its arrays,
   at zero capacity when there is none. *)
let spare = Domain.DLS.new_key create

(* Leave an empty queue at zero capacity. *)
let drop t =
  t.prio <- no_prio;
  t.seq <- [||];
  t.slot <- [||];
  t.pages <- [||];
  t.vprio <- no_prio;
  t.vseq <- [||];
  t.next <- [||];
  t.vchan <- [||];
  t.mask <- [||];
  t.tail <- [||];
  t.free <- [||];
  t.nfree <- 0;
  t.low <- 0;
  t.extra <- 0

(* Move an empty queue's storage to [dst] and leave [src] at zero
   capacity. *)
let transfer src dst =
  dst.prio <- src.prio;
  dst.seq <- src.seq;
  dst.slot <- src.slot;
  dst.pages <- src.pages;
  dst.vprio <- src.vprio;
  dst.vseq <- src.vseq;
  dst.next <- src.next;
  dst.vchan <- src.vchan;
  dst.mask <- src.mask;
  dst.tail <- src.tail;
  dst.free <- src.free;
  dst.low <- src.low;
  dst.extra <- src.extra;
  drop src

(* The most slots the spare keeps: seven words each in the slot arrays
   (eight once fan-outs have used the storage) and at most three more
   in the heap, so about 720 k words plus the channel tails outlive the
   runs that grew them. A larger queue's storage is
   dropped when it drains, so one large run does not pin its peak for
   the life of the domain. *)
let spare_bound = 1 lsl 16

let spare_capacity () = capacity (Domain.DLS.get spare)

(* The queue has just emptied, so every channel is closed: hand its
   storage to the spare if larger than the spare's and within
   [spare_bound], else drop it. Either way the queue is left at zero
   capacity, and its next add adopts the spare. Handed-on storage has
   its free stack sorted back, lowest slot on top: positions below
   [low] were never popped and still are, and the run's pushes and
   pops left the rest a permutation of the slots it took. Every run
   therefore takes the lowest slots, and a run that peaks at d values
   writes only the pages of slots [0, d). *)
let release t =
  let sp = Domain.DLS.get spare in
  let cap = capacity t in
  if cap > capacity sp && cap <= spare_bound then begin
    for i = t.low to cap - 1 do
      Array.unsafe_set t.free i (cap - 1 - i)
    done;
    transfer t sp
  end
  else drop t

(* Every value slot is in use: adopt the spare when the queue has no
   storage yet, else double the slot arrays and push the new slots on
   the free stack, lowest on top. The bucket channels come with the
   first storage, so a queue that is never added to costs nothing. *)
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
    let extend a = Array.append a (Array.make (ncap - cap) 0) in
    let npages = (ncap + page_slots - 1) lsr page_bits and have = Array.length t.pages in
    if npages > have then t.pages <- Array.append t.pages (new_pages (npages - have));
    let vprio = Float.Array.create ncap in
    Float.Array.blit t.vprio 0 vprio 0 cap;
    t.vprio <- vprio;
    t.vseq <- extend t.vseq;
    t.next <- extend t.next;
    t.vchan <- extend t.vchan;
    if Array.length t.mask > 0 then t.mask <- extend t.mask;
    t.free <- Array.init ncap (fun i -> ncap - 1 - i);
    t.nfree <- ncap - cap;
    t.low <- t.nfree;
    if cap = 0 then t.tail <- Array.make buckets (-1)
  end

(* Every heap position holds a run: double the heap arrays. *)
let grow_heap t =
  let n = t.size in
  let ncap = if n = 0 then 16 else 2 * n in
  let prio = Float.Array.create ncap in
  Float.Array.blit t.prio 0 prio 0 n;
  t.prio <- prio;
  t.seq <- Array.append t.seq (Array.make (ncap - n) 0);
  t.slot <- Array.append t.slot (Array.make (ncap - n) 0)

(* Room for channel [ch]; new channels are closed. *)
let grow_tail t ch =
  let len = Array.length t.tail in
  t.tail <- Array.append t.tail (Array.make (Int.max (ch + 1 - len) len) (-1))

let[@inline] less (p : float) (s : int) (q : float) (r : int) =
  p < q || (p = q && s < r)

(* Take a vacant value slot for [value] at [priority] with the next
   seq, outside every run. *)
let[@inline] take t ~priority value =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  if t.nfree < t.low then t.low <- t.nfree;
  let sl = t.free.(t.nfree) in
  Array.unsafe_set (page t sl) (cell sl) value;
  Float.Array.unsafe_set t.vprio sl priority;
  Array.unsafe_set t.vseq sl t.next_seq;
  t.next_seq <- t.next_seq + 1;
  Array.unsafe_set t.next sl (-1);
  t.count <- t.count + 1;
  sl

(* Sift a new run head (priority, seq [s], slot [sl]) up into the heap. *)
let[@inline] push t ~priority s sl =
  if t.size = Array.length t.seq then grow_heap t;
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

(* Make the taken slot [sl] channel [ch]'s tail: behind the tail [tl]
   when there is one, else as the head of a new run. *)
let[@inline] join t ch tl ~priority sl =
  Array.unsafe_set t.vchan sl ch;
  Array.unsafe_set t.tail ch sl;
  if tl >= 0 then Array.unsafe_set t.next tl sl
  else push t ~priority (Array.unsafe_get t.vseq sl) sl

(* Queue the taken slot [sl] as a plain add: behind its bucket's tail
   when it is no earlier, else at the head of the bucket's new run. *)
let[@inline] place t ~priority sl =
  let b = bucket priority in
  let tl = Array.unsafe_get t.tail b in
  if tl >= 0 && priority >= Float.Array.unsafe_get t.vprio tl then join t b tl ~priority sl
  else join t b (-1) ~priority sl

(* Queue [value] and return its value slot. *)
let[@inline] insert t ~priority value =
  let sl = take t ~priority value in
  place t ~priority sl;
  sl

(* Queue [value] on channel [chan] and return its value slot: behind
   the channel's tail when it arrives no earlier, as a plain add when
   it would overtake the tail, else as the head of the channel's new
   run. *)
let[@inline] insert_on t ~chan ~priority value =
  if chan < 0 then invalid_arg "Pqueue.Calls.add_call_on: negative channel";
  let sl = take t ~priority value in
  let ch = buckets + chan in
  if ch >= Array.length t.tail then grow_tail t ch;
  let tl = Array.unsafe_get t.tail ch in
  if tl < 0 || priority >= Float.Array.unsafe_get t.vprio tl then join t ch tl ~priority sl
  else place t ~priority sl;
  sl

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

(* Remove the head of the root run, release its value slot and return
   its handler. If the run goes on, its successor becomes the root
   entry with its own priority and seq, no smaller, and sifts down.
   If the run is finished, its channel is closed when it still ends
   there, and the last heap entry moves to the root and sifts down.
   The caller has read and cleared the slot's argument; a queue left
   empty hands its storage on. *)
let remove_top t : Obj.t =
  let sl = Array.unsafe_get t.slot 0 in
  let pg = page t sl and c = cell sl in
  let v = Array.unsafe_get pg c in
  Array.unsafe_set pg c vacant;
  t.free.(t.nfree) <- sl;
  t.nfree <- t.nfree + 1;
  t.count <- t.count - 1;
  let succ = Array.unsafe_get t.next sl in
  if succ >= 0 then begin
    Float.Array.unsafe_set t.prio 0 (Float.Array.unsafe_get t.vprio succ);
    Array.unsafe_set t.seq 0 (Array.unsafe_get t.vseq succ);
    Array.unsafe_set t.slot 0 succ;
    sift_down t
  end
  else begin
    let ch = Array.unsafe_get t.vchan sl in
    if Array.unsafe_get t.tail ch = sl then Array.unsafe_set t.tail ch (-1);
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

module Calls = struct
  type nonrec t = t

  type clock = { mutable now : float }

  (* The minor-collection count when the spare's pages were last
     renewed. *)
  let renewed = Domain.DLS.new_key (fun () -> ref (-1))

  (* A queue starts at zero capacity and adopts the spare on its first
     add, so a run writes its events into the spare's pages. Renew
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
     at least the peak calls, and both are kept off the plain add
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

  let is_empty t = t.size = 0

  let length t = t.count

  (* Vacate every queued slot run by run, closing each channel a run
     ends, and hand the storage on, as a drain would. *)
  let clear t =
    if t.count > 0 then begin
      for i = 0 to t.size - 1 do
        let sl = ref (Array.unsafe_get t.slot i) in
        while !sl >= 0 do
          let pg = page t !sl and c = cell !sl in
          Array.unsafe_set pg c vacant;
          Array.unsafe_set pg (c + 1) vacant;
          if t.fanouts > 0 then Array.unsafe_set t.mask !sl 0;
          t.free.(t.nfree) <- !sl;
          t.nfree <- t.nfree + 1;
          let ch = Array.unsafe_get t.vchan !sl in
          if Array.unsafe_get t.tail ch = !sl then Array.unsafe_set t.tail ch (-1);
          sl := Array.unsafe_get t.next !sl
        done
      done;
      t.size <- 0;
      t.count <- 0;
      t.fanouts <- 0;
      release t
    end

  let add t ~priority (f : unit -> unit) = ignore (insert t ~priority (Obj.repr f) : int)

  (* [insert] is inlined, so the sum reaches the heap unboxed. *)
  let add_after t clock ~delay (f : unit -> unit) =
    ignore (insert t ~priority:(clock.now +. delay) (Obj.repr f) : int)

  let add_call_after t clock ~delay (f : 'a -> unit) (x : 'a) =
    let sl = insert t ~priority:(clock.now +. delay) (Obj.repr f) in
    Array.unsafe_set (page t sl) (cell sl + 1) (Obj.repr x)

  (* Inlined through [Engine.schedule_call_on] into the send path, so
     a delay summed there reaches the heap unboxed. *)
  let[@inline] add_call_on t clock ~chan ~delay (f : 'a -> unit) (x : 'a) =
    let sl = insert_on t ~chan ~priority:(clock.now +. delay) (Obj.repr f) in
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

  (* Count the open link channels, then walk each heap entry's run: a
     run on a link channel is that channel's. *)
  let census t =
    let busy = ref 0 and calls = ref 0 in
    for ch = buckets to Array.length t.tail - 1 do
      if t.tail.(ch) >= 0 then incr busy
    done;
    for i = 0 to t.size - 1 do
      let sl = t.slot.(i) in
      if t.vchan.(sl) >= buckets then begin
        let sl = ref sl in
        while !sl >= 0 do
          incr calls;
          sl := t.next.(!sl)
        done
      end
    done;
    { entries = t.size; busy_channels = !busy; channel_calls = !calls }

  let add_fanout_after t clock ~delay (f : int -> 'a -> unit) (x : 'a) ~mask =
    if mask <= 0 then invalid_arg "Pqueue.Calls.add_fanout_after: empty mask";
    let sl = insert t ~priority:(clock.now +. delay) (Obj.repr f) in
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
      if Obj.is_block x then Array.unsafe_set pg c vacant;
      Array.unsafe_set t.mask sl 0;
      t.fanouts <- t.fanouts - 1;
      let f : int -> Obj.t -> unit = Obj.obj (remove_top t) in
      f (popcount (m - 1)) x
    end
    else begin
      Array.unsafe_set t.mask sl rest;
      t.count <- t.count - 1;
      let f : int -> Obj.t -> unit = Obj.obj (Array.unsafe_get pg (c - 1)) in
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
      if Obj.is_block x then Array.unsafe_set pg c vacant;
      let f : Obj.t -> unit = Obj.obj (remove_top t) in
      f x
    end
    else run_fanout t sl pg c x m
end
