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

   Heap position [i] is three parallel unboxed cells — [prio] (a flat
   [Float.Array]), [seq] and [slot] — so moving an entry is three
   stores of immediates: no [caml_modify], no write barrier, nothing
   for the minor GC to scan. Sifts carry the moving entry in locals and
   write the hole once per level.

   Values live apart, in [values], indexed by [slot]: each value is
   written once by [add] and cleared once by the pop that removes it,
   and vacant slots are recycled through the [free] stack. A popped
   value is therefore never retained past its pop — the queue's
   high-water mark holds no stale references. A call entry ({!Calls})
   keeps its argument beside its handler, in [args]; the two are
   written, read and cleared together.

   Storage outlives a drained queue. The queue that empties hands its
   arrays to a domain-local spare, which keeps the larger of its own
   and the handed ones, and a queue growing from zero capacity adopts
   the spare instead of allocating. This is exact: an empty queue's
   storage holds only vacant slots, a full free stack and closed run
   buckets, and pop order depends only on (priority, seq), where seq
   belongs to the queue record, not to its storage. *)

type 'a t = {
  mutable prio : Float.Array.t;  (* heap position -> priority of its run *)
  mutable seq : int array;  (* heap position -> insertion seq of the run head *)
  mutable slot : int array;  (* heap position -> value slot of the run head *)
  mutable values : 'a array;  (* value slot -> value; vacant slots hold [vacant] *)
  mutable args : Obj.t array;  (* value slot -> argument of a call entry, else [vacant] *)
  mutable vseq : int array;  (* value slot -> insertion seq *)
  mutable next : int array;  (* value slot -> next slot of its run; -1 at the tail *)
  mutable free : int array;  (* stack of vacant value slots *)
  mutable nfree : int;
  mutable size : int;  (* heap entries: one per run *)
  mutable count : int;  (* values *)
  mutable next_seq : int;
  mutable open_prio : Float.Array.t;  (* bucket -> priority of its open run *)
  mutable open_tail : int array;  (* bucket -> tail slot of its open run; -1 when none *)
}

(* Filler for vacant value and argument slots. It is an immediate, so
   neither array is ever created as a flat float array (the arrays
   start from it, even for ['a = float]), and it is never read back as
   an ['a]. It is also [Obj.repr ()], the argument a plain closure of a
   {!Calls} queue is applied to. *)
let vacant () : 'a = Obj.magic 0

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
    values = [||];
    args = [||];
    vseq = [||];
    next = [||];
    free = [||];
    nfree = 0;
    size = 0;
    count = 0;
    next_seq = 0;
    open_prio = no_prio;
    open_tail = [||];
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
  t.values <- [||];
  t.args <- [||];
  t.vseq <- [||];
  t.next <- [||];
  t.free <- [||];
  t.open_prio <- no_prio;
  t.open_tail <- [||];
  t.nfree <- 0

(* Move an empty queue's storage to [dst] and leave [src] at zero
   capacity. The values array holds only vacant slots, so its element
   type is moot. *)
let transfer (src : 'a t) (dst : 'b t) =
  dst.prio <- src.prio;
  dst.seq <- src.seq;
  dst.slot <- src.slot;
  dst.values <- (Obj.magic (src.values : 'a array) : 'b array);
  dst.args <- src.args;
  dst.vseq <- src.vseq;
  dst.next <- src.next;
  dst.free <- src.free;
  dst.open_prio <- src.open_prio;
  dst.open_tail <- src.open_tail;
  drop src

(* The queue has just emptied: hand its storage to the spare if larger
   than the spare's, else drop it. Either way the queue is left at zero
   capacity, and its next [add] adopts the spare. *)
let release t =
  let sp = Domain.DLS.get spare in
  if capacity t > capacity sp then transfer t sp else drop t

(* Every value slot is in use: adopt the spare when the queue has no
   storage yet, else double the arrays and push the new slots on the
   free stack, lowest on top. The run table is allocated with the first
   storage, so a queue that is never added to costs nothing. *)
let grow t =
  let cap = capacity t in
  let sp = Domain.DLS.get spare in
  if cap = 0 && capacity sp > 0 then begin
    transfer sp t;
    t.nfree <- capacity t
  end
  else begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let prio = Float.Array.create ncap in
    Float.Array.blit t.prio 0 prio 0 t.size;
    let extend a = Array.append a (Array.make (ncap - cap) 0) in
    t.prio <- prio;
    t.seq <- extend t.seq;
    t.slot <- extend t.slot;
    t.values <- Array.append t.values (Array.make (ncap - cap) (vacant ()));
    t.args <- Array.append t.args (Array.make (ncap - cap) (vacant ()));
    t.vseq <- extend t.vseq;
    t.next <- extend t.next;
    t.free <- Array.init ncap (fun i -> ncap - 1 - i);
    t.nfree <- ncap - cap;
    if cap = 0 then begin
      t.open_prio <- Float.Array.make buckets 0.0;
      t.open_tail <- Array.make buckets (-1)
    end
  end

let[@inline] less (p : float) (s : int) (q : float) (r : int) =
  p < q || (p = q && s < r)

(* Exactly equal: [=], which NaN never satisfies, and the same sign
   when both are zeros, so a run's priority is bit-for-bit the priority
   each of its values was added with. *)
let[@inline] same (p : float) (q : float) =
  p = q && (p <> 0.0 || Float.sign_bit p = Float.sign_bit q)

(* Queue [value] and return its value slot. *)
let[@inline] insert t ~priority value =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  let sl = t.free.(t.nfree) in
  t.values.(sl) <- value;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  t.count <- t.count + 1;
  Array.unsafe_set t.vseq sl s;
  Array.unsafe_set t.next sl (-1);
  let b = bucket priority in
  let tail = Array.unsafe_get t.open_tail b in
  if tail >= 0 && same (Float.Array.unsafe_get t.open_prio b) priority then begin
    (* Append to the open run: the heap is not touched. *)
    Array.unsafe_set t.next tail sl;
    Array.unsafe_set t.open_tail b sl
  end
  else begin
    (* Open a new run (evicting any other priority's open run from the
       bucket) and sift its head up into the heap. *)
    Float.Array.unsafe_set t.open_prio b priority;
    Array.unsafe_set t.open_tail b sl;
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

(* Remove the head of the root run and release its value slot. If the
   run goes on, its successor becomes the root entry (same priority, a
   larger seq) and sifts down, which normally stops at once. If the run
   is finished, its bucket is closed when it still points at it, and
   the last heap entry moves to the root and sifts down. The caller
   has read and cleared the slot's argument; a queue left empty hands
   its storage on. *)
let remove_top t =
  let sl = Array.unsafe_get t.slot 0 in
  let v = t.values.(sl) in
  t.values.(sl) <- vacant ();
  t.free.(t.nfree) <- sl;
  t.nfree <- t.nfree + 1;
  t.count <- t.count - 1;
  let succ = Array.unsafe_get t.next sl in
  if succ >= 0 then begin
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
        t.values.(!sl) <- vacant ();
        t.args.(!sl) <- vacant ();
        t.free.(t.nfree) <- !sl;
        t.nfree <- t.nfree + 1;
        sl := Array.unsafe_get t.next !sl
      done
    done;
    Array.fill t.open_tail 0 buckets (-1);
    t.size <- 0;
    t.count <- 0;
    release t
  end

module Calls = struct
  type nonrec t = (Obj.t -> unit) t

  let create = create

  let is_empty = is_empty

  let length = length

  let top_priority = top_priority

  let add t ~priority (f : unit -> unit) =
    ignore (insert t ~priority (Obj.magic f : Obj.t -> unit) : int)

  let add_call t ~priority (f : 'a -> unit) (x : 'a) =
    let sl = insert t ~priority (Obj.magic f : Obj.t -> unit) in
    t.args.(sl) <- Obj.repr x

  let run_top t =
    if t.size = 0 then invalid_arg "Pqueue.Calls.run_top: empty queue";
    let sl = Array.unsafe_get t.slot 0 in
    let x = Array.unsafe_get t.args sl in
    if Obj.is_block x then Array.unsafe_set t.args sl (vacant ());
    let f = remove_top t in
    f x
end

(* Indexed heap with decrease-key over a dense integer key space. Keys
   double as identities: at most one live entry per key, its heap slot
   tracked in [pos] so a priority improvement is an O(log n) sift-up
   instead of a duplicate insertion. Ties break on the smaller key, so
   pop order is a pure function of the (key, priority) multiset — no
   insertion-order state to keep deterministic across repairs. *)
module Keyed = struct
  type t = {
    heap : int array;  (* heap slot -> key *)
    pos : int array;  (* key -> heap slot; -1 when absent *)
    prio : int array;  (* key -> priority, meaningful while pos.(key) >= 0 *)
    mutable size : int;
  }

  let create ~capacity =
    if capacity < 0 then invalid_arg "Pqueue.Keyed.create: negative capacity";
    let cap = Stdlib.max capacity 1 in
    { heap = Array.make cap 0; pos = Array.make cap (-1); prio = Array.make cap 0; size = 0 }

  let is_empty t = t.size = 0

  let length t = t.size

  let mem t key = t.pos.(key) >= 0

  let priority t key = if t.pos.(key) >= 0 then Some t.prio.(key) else None

  let less t a b = t.prio.(a) < t.prio.(b) || (t.prio.(a) = t.prio.(b) && a < b)

  let swap t i j =
    let a = t.heap.(i) and b = t.heap.(j) in
    t.heap.(i) <- b;
    t.heap.(j) <- a;
    t.pos.(b) <- i;
    t.pos.(a) <- j

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less t t.heap.(i) t.heap.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && less t t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && less t t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let insert_or_decrease t key ~priority =
    let slot = t.pos.(key) in
    if slot < 0 then begin
      t.prio.(key) <- priority;
      t.heap.(t.size) <- key;
      t.pos.(key) <- t.size;
      t.size <- t.size + 1;
      sift_up t (t.size - 1);
      true
    end
    else if priority < t.prio.(key) then begin
      t.prio.(key) <- priority;
      sift_up t slot;
      true
    end
    else false

  let pop_min t =
    if t.size = 0 then -1
    else begin
      let top = t.heap.(0) in
      t.size <- t.size - 1;
      t.pos.(top) <- -1;
      if t.size > 0 then begin
        let last = t.heap.(t.size) in
        t.heap.(0) <- last;
        t.pos.(last) <- 0;
        sift_down t 0
      end;
      top
    end

  let pop t =
    let top = pop_min t in
    if top < 0 then None else Some (t.prio.(top), top)

  let clear t =
    for i = 0 to t.size - 1 do
      t.pos.(t.heap.(i)) <- -1
    done;
    t.size <- 0
end
