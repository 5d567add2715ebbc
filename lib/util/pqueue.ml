(* Binary min-heap ordered by (priority, insertion seq) whose sifts
   never touch a boxed value. Heap position [i] is three parallel
   unboxed cells — [prio] (a flat [Float.Array]), [seq] and [slot] —
   so moving an entry is three stores of immediates: no [caml_modify],
   no write barrier, nothing for the minor GC to scan. Sifts carry the
   moving entry in locals and write the hole once per level.

   Values live apart, in [values], indexed by [slot]: each value is
   written once by [add] and cleared once by the pop that removes it,
   and vacant slots are recycled through the [free] stack. A popped
   value is therefore never retained past its pop — the heap's
   high-water mark holds no stale references. *)

type 'a t = {
  mutable prio : Float.Array.t;  (* heap position -> priority *)
  mutable seq : int array;  (* heap position -> insertion seq *)
  mutable slot : int array;  (* heap position -> value slot *)
  mutable values : 'a array;  (* value slot -> value; vacant slots hold [vacant] *)
  mutable free : int array;  (* stack of vacant value slots *)
  mutable nfree : int;
  mutable size : int;
  mutable next_seq : int;
}

(* Filler for vacant value slots. It is an immediate, so [values] is
   never created as a flat float array (the arrays start from it, even
   for ['a = float]), and it is never read back as an ['a]. *)
let vacant () : 'a = Obj.magic 0

let create () =
  {
    prio = Float.Array.create 0;
    seq = [||];
    slot = [||];
    values = [||];
    free = [||];
    nfree = 0;
    size = 0;
    next_seq = 0;
  }

let is_empty t = t.size = 0

let length t = t.size

(* Drops the backing arrays entirely, releasing everything they held. *)
let clear t =
  t.prio <- Float.Array.create 0;
  t.seq <- [||];
  t.slot <- [||];
  t.values <- [||];
  t.free <- [||];
  t.nfree <- 0;
  t.size <- 0

(* Every value slot is in use exactly when the heap is full: double all
   five arrays and push the new slots on the free stack, lowest on
   top. *)
let grow t =
  let cap = Array.length t.seq in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let prio = Float.Array.create ncap in
  Float.Array.blit t.prio 0 prio 0 t.size;
  let extend a = Array.append a (Array.make (ncap - cap) 0) in
  t.prio <- prio;
  t.seq <- extend t.seq;
  t.slot <- extend t.slot;
  t.values <- Array.append t.values (Array.make (ncap - cap) (vacant ()));
  t.free <- Array.init ncap (fun i -> ncap - 1 - i);
  t.nfree <- ncap - cap

let[@inline] less (p : float) (s : int) (q : float) (r : int) =
  p < q || (p = q && s < r)

let add t ~priority value =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  let sl = t.free.(t.nfree) in
  t.values.(sl) <- value;
  let s = t.next_seq in
  t.next_seq <- s + 1;
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

let top_priority t = if t.size = 0 then Float.infinity else Float.Array.get t.prio 0

(* Remove the root: release its value slot, then sift the last entry
   down from the root, writing the hole once per level. *)
let remove_top t =
  let prio = t.prio and seq = t.seq and slot = t.slot in
  let sl = slot.(0) in
  let v = t.values.(sl) in
  t.values.(sl) <- vacant ();
  t.free.(t.nfree) <- sl;
  t.nfree <- t.nfree + 1;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let lp = Float.Array.unsafe_get prio n in
    let ls = Array.unsafe_get seq n in
    let lsl_ = Array.unsafe_get slot n in
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
        if less cp cs lp ls then begin
          Float.Array.unsafe_set prio !i cp;
          Array.unsafe_set seq !i cs;
          Array.unsafe_set slot !i (Array.unsafe_get slot c);
          i := c
        end
        else moving := false
      end
    done;
    Float.Array.unsafe_set prio !i lp;
    Array.unsafe_set seq !i ls;
    Array.unsafe_set slot !i lsl_
  end;
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

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc (Float.Array.get t.prio i) t.values.(t.slot.(i))
  done;
  !acc

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
