(* Indexed heap with decrease-key over a dense integer key space. Keys
   double as identities: at most one live entry per key, its heap slot
   tracked in [pos] so a priority improvement is an O(log n) sift-up
   instead of a duplicate insertion. Ties break on the smaller key, so
   pop order is a pure function of the (key, priority) multiset — no
   insertion-order state to keep deterministic across repairs. *)
type t = {
  heap : int array;  (* heap slot -> key *)
  pos : int array;  (* key -> heap slot; -1 when absent *)
  prio : int array;  (* key -> priority, meaningful while pos.(key) >= 0 *)
  mutable size : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Keyed.create: negative capacity";
  let cap = Stdlib.max capacity 1 in
  { heap = Array.make cap 0; pos = Array.make cap (-1); prio = Array.make cap 0; size = 0 }

let is_empty t = t.size = 0

let length t = t.size

let mem t key = t.pos.(key) >= 0

let priority t key = if t.pos.(key) >= 0 then Some t.prio.(key) else None

(* Hole-based sifts: the moving key rides in locals and each level
   writes one slot, instead of a swap (two slots, two positions) per
   level. The comparisons, and so the heap, are those of swapping
   sifts. *)
let[@inline] less (p : int) (a : int) (q : int) (b : int) = p < q || (p = q && a < b)

let sift_up t i key =
  let heap = t.heap and pos = t.pos and prio = t.prio in
  let p = prio.(key) and i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let above = heap.(parent) in
    if less p key prio.(above) above then begin
      heap.(!i) <- above;
      pos.(above) <- !i;
      i := parent
    end
    else moving := false
  done;
  heap.(!i) <- key;
  pos.(key) <- !i

let sift_down t key =
  let heap = t.heap and pos = t.pos and prio = t.prio and n = t.size in
  let p = prio.(key) and i = ref 0 and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && less prio.(heap.(r)) heap.(r) prio.(heap.(l)) heap.(l) then r else l
      in
      let below = heap.(c) in
      if less prio.(below) below p key then begin
        heap.(!i) <- below;
        pos.(below) <- !i;
        i := c
      end
      else moving := false
    end
  done;
  heap.(!i) <- key;
  pos.(key) <- !i

let insert_or_decrease t key ~priority =
  let slot = t.pos.(key) in
  if slot < 0 then begin
    t.prio.(key) <- priority;
    t.size <- t.size + 1;
    sift_up t (t.size - 1) key;
    true
  end
  else if priority < t.prio.(key) then begin
    t.prio.(key) <- priority;
    sift_up t slot key;
    true
  end
  else false

let pop_min t =
  if t.size = 0 then -1
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    t.pos.(top) <- -1;
    if t.size > 0 then sift_down t t.heap.(t.size);
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
