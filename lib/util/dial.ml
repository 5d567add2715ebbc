(* Bucket queue over integer keys (see dial.mli).

   While the queued keys span fewer keys than the ring has buckets, a
   bucket holds one key, and a pop scans up from the cursor [low] (the
   last pop's key) to the first non-empty bucket. A wider push doubles
   the ring until it fits, up to [max_ring] buckets; past that a bucket
   may hold several keys [max_ring] apart, and a pop takes the first
   item of the cursor's key in the list, in order, or jumps to the
   least queued key after a whole turn without one. *)

type t = {
  mutable key : int array;  (* item -> its bucket's key while queued, else -1 *)
  mutable next : int array;  (* item -> the next item in its bucket, or -1 *)
  mutable prev : int array;  (* ... and the previous one, or -1 *)
  mutable head : int array;  (* bucket -> its first item, -1 when empty *)
  mutable tail : int array;  (* bucket -> its last item, when not empty *)
  mutable low : int;  (* no queued key is below it: the last pop's key *)
  mutable high : int;  (* no queued key is above it *)
  mutable live : int;  (* queued items *)
}

let initial_ring = 64

let max_ring = 1 lsl 16

let create () =
  {
    key = [||];
    next = [||];
    prev = [||];
    head = Array.make initial_ring (-1);
    tail = Array.make initial_ring (-1);
    low = 0;
    high = 0;
    live = 0;
  }

(* What a search cut short left queued: only the buckets between their
   least and greatest keys can hold any. *)
let reserve t n =
  if t.live > 0 then begin
    let mask = Array.length t.head - 1 in
    if t.high - t.low <= mask then
      for k = t.low to t.high do
        t.head.(k land mask) <- -1
      done
    else Array.fill t.head 0 (mask + 1) (-1);
    t.live <- 0
  end;
  if Array.length t.key < n then begin
    t.key <- Array.make n (-1);
    t.next <- Array.make n (-1);
    t.prev <- Array.make n (-1)
  end

let[@inline] is_empty t = t.live = 0

let[@inline] key t i = t.key.(i)

let[@inline] last_key t = t.low

let[@inline] link t i k ~lifo =
  let b = k land (Array.length t.head - 1) in
  let h = t.head.(b) in
  t.key.(i) <- k;
  if h < 0 then begin
    t.head.(b) <- i;
    t.tail.(b) <- i;
    t.prev.(i) <- -1;
    t.next.(i) <- -1
  end
  else if lifo then begin
    t.prev.(i) <- -1;
    t.next.(i) <- h;
    t.prev.(h) <- i;
    t.head.(b) <- i
  end
  else begin
    let last = t.tail.(b) in
    t.next.(last) <- i;
    t.prev.(i) <- last;
    t.next.(i) <- -1;
    t.tail.(b) <- i
  end

let[@inline] remove t i =
  let b = t.key.(i) land (Array.length t.head - 1) in
  let p = t.prev.(i) and n = t.next.(i) in
  if p < 0 then t.head.(b) <- n else t.next.(p) <- n;
  if n < 0 then t.tail.(b) <- p else t.prev.(n) <- p;
  t.key.(i) <- -1;
  t.live <- t.live - 1

(* Double the ring until it spans [span] keys (or reaches [max_ring])
   and move every queued item over. A key's items share one bucket in
   their order, and each is appended to its new bucket in turn, so they
   keep that order. *)
let grow t span =
  let size = ref (2 * Array.length t.head) in
  while !size <= span && !size < max_ring do
    size := 2 * !size
  done;
  let old = t.head in
  t.head <- Array.make !size (-1);
  t.tail <- Array.make !size (-1);
  for b = 0 to Array.length old - 1 do
    let i = ref old.(b) in
    while !i >= 0 do
      let n = t.next.(!i) in
      link t !i t.key.(!i) ~lifo:false;
      i := n
    done
  done

(* An empty ring re-anchors at [k]; a key below [low] (an inconsistent
   bound's) moves the cursor back to it. *)
let[@inline] push t i k ~lifo =
  if t.live = 0 then begin
    t.low <- k;
    t.high <- k
  end
  else begin
    if k < t.low then t.low <- k;
    if k > t.high then t.high <- k;
    let span = t.high - t.low in
    if span >= Array.length t.head && Array.length t.head < max_ring then grow t span
  end;
  link t i k ~lifo;
  t.live <- t.live + 1

let rec find_key next key i k = if i < 0 || key.(i) = k then i else find_key next key next.(i) k

let min_key t =
  let m = ref max_int in
  for b = 0 to Array.length t.head - 1 do
    let i = ref t.head.(b) in
    while !i >= 0 do
      m := Int.min !m t.key.(!i);
      i := t.next.(!i)
    done
  done;
  !m

(* The first item queued under the least key, scanning up from [k]
   ([turn] buckets scanned so far); the ring must not be empty. *)
let rec scan t k turn =
  let mask = Array.length t.head - 1 in
  let i = find_key t.next t.key t.head.(k land mask) k in
  if i >= 0 then begin
    t.low <- k;
    i
  end
  else if turn >= mask then scan t (min_key t) 0
  else scan t (k + 1) (turn + 1)

let[@inline] pop t =
  let i = scan t t.low 0 in
  remove t i;
  i
