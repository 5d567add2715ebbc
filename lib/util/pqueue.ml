(* Binary min-heap in a growable array. Each entry carries the insertion
   sequence number so that equal priorities pop in FIFO order. *)

type 'a entry = { priority : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

(* Shared placeholder for vacant slots. Slots at index >= size must not
   retain the last entry stored in them, or every popped value stays
   reachable until the slot is overwritten — a space leak proportional
   to the heap's high-water mark. [Obj.magic] is safe here: the dummy is
   only ever written into vacant slots and never read as an ['a]. *)
let dummy_entry : unit entry = { priority = nan; seq = -1; value = () }

let dummy () : 'a entry = Obj.magic dummy_entry

let create () = { data = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let length t = t.size

(* Drops the backing array entirely, releasing everything it retained. *)
let clear t =
  t.data <- [||];
  t.size <- 0

let less a b =
  a.priority < b.priority || (a.priority = b.priority && a.seq < b.seq)

let ensure_capacity t =
  let cap = Array.length t.data in
  if t.size >= cap then begin
    let new_cap = if cap = 0 then 16 else 2 * cap in
    let data = Array.make new_cap (dummy ()) in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.data.(i) t.data.(parent) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.size && less t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let add t ~priority value =
  let entry = { priority; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  ensure_capacity t;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let min_priority t = if t.size = 0 then None else Some t.data.(0).priority

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    (* Clear the vacated slot so the popped entry (and, when the heap
       drains, the moved root) is not retained past its lifetime. *)
    t.data.(t.size) <- dummy ();
    Some (top.priority, top.value)
  end

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    let e = t.data.(i) in
    acc := f !acc e.priority e.value
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
