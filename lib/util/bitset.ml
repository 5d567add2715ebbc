type t = { capacity : int; words : Bytes.t }

(* One byte per 8 members; Bytes gives cheap copy and equality. *)

let words_for n = (n + 7) / 8

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { capacity = n; words = Bytes.make (words_for n) '\000' }

let capacity t = t.capacity

let copy t = { capacity = t.capacity; words = Bytes.copy t.words }

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  let b = Char.code (Bytes.get t.words (i lsr 3)) in
  b land (1 lsl (i land 7)) <> 0

let add t i =
  check t i;
  let idx = i lsr 3 in
  let b = Char.code (Bytes.get t.words idx) in
  Bytes.set t.words idx (Char.chr (b lor (1 lsl (i land 7))))

let remove t i =
  check t i;
  let idx = i lsr 3 in
  let b = Char.code (Bytes.get t.words idx) in
  Bytes.set t.words idx (Char.chr (b land lnot (1 lsl (i land 7)) land 0xff))

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun c -> table.(Char.code c)

let cardinal t =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_byte c) t.words;
  !n

let is_empty t =
  let empty = ref true in
  Bytes.iter (fun c -> if c <> '\000' then empty := false) t.words;
  !empty

let clear t = Bytes.fill t.words 0 (Bytes.length t.words) '\000'

let of_list n xs =
  let t = create n in
  List.iter (add t) xs;
  t

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let union_into dst src =
  same_capacity dst src;
  for i = 0 to Bytes.length dst.words - 1 do
    let b = Char.code (Bytes.get dst.words i) lor Char.code (Bytes.get src.words i) in
    Bytes.set dst.words i (Char.chr b)
  done

let union_compl_into dst src =
  same_capacity dst src;
  let bytes = Bytes.length dst.words in
  for i = 0 to bytes - 1 do
    let b = Char.code (Bytes.get dst.words i) lor (lnot (Char.code (Bytes.get src.words i)) land 0xff) in
    Bytes.set dst.words i (Char.chr b)
  done;
  (* Mask off the spare high bits of the final byte: members past
     [capacity] must never appear, or cardinal/equal would lie. *)
  if bytes > 0 && dst.capacity land 7 <> 0 then begin
    let mask = (1 lsl (dst.capacity land 7)) - 1 in
    let b = Char.code (Bytes.get dst.words (bytes - 1)) land mask in
    Bytes.set dst.words (bytes - 1) (Char.chr b)
  end

let inter_into dst src =
  same_capacity dst src;
  for i = 0 to Bytes.length dst.words - 1 do
    let b = Char.code (Bytes.get dst.words i) land Char.code (Bytes.get src.words i) in
    Bytes.set dst.words i (Char.chr b)
  done

let subset a b =
  same_capacity a b;
  let result = ref true in
  for i = 0 to Bytes.length a.words - 1 do
    let wa = Char.code (Bytes.get a.words i) and wb = Char.code (Bytes.get b.words i) in
    if wa land lnot wb <> 0 then result := false
  done;
  !result

let equal a b = a.capacity = b.capacity && Bytes.equal a.words b.words

(* Spare high bits are always zero, so equal sets have equal bytes. *)
let hash t = Hashtbl.hash t.words
