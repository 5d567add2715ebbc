(* Splitmix64: a small, fast, high-quality generator with trivially
   splittable state. Constants are the reference ones from Steele et al.,
   "Fast splittable pseudorandom number generators" (OOPSLA 2014). *)

(* The 64-bit state sits unboxed in 8 bytes, read and written with the
   native-endian primitives, so a draw updates it in place: a boxed
   [mutable state : int64] field would allocate a fresh box per draw.
   The stream is the same splitmix64 sequence either way. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (mix (Int64.of_int seed))

(* FNV-1a over the label, folded into the seed, then remixed: distinct
   labels give independent streams of the same seed, and adding draws
   to one stream cannot perturb another. *)
let derive seed label =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    label;
  of_state (mix (Int64.add (mix (Int64.of_int seed)) !h))

let copy = Bytes.copy

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let split t = of_state (mix (bits64 t))

let[@inline] positive_bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  positive_bits t mod bound

let int_in_range t ~min ~max =
  if min > max then invalid_arg "Rng.int_in_range: min > max";
  min + int t (max - min + 1)

let[@inline] float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  (* 53 significant bits, scaled to [0, 1). *)
  bound *. (x /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

(* [float t 1.0 < p] compares x / 2^53 with p, both exact, so it holds
   exactly when the integer x is below the ceiling of p * 2^53: the
   same decision without the conversion and the division, for loops
   that prepare it once. [chance] keeps the float form: preparing odds
   on every call slowed the fault interposer's per-message draws.
   Negative odds draw nothing: -1 never hits, -2 always does. *)
type odds = int

let odds p =
  if p <= 0.0 then -1
  else if p >= 1.0 then -2
  else if Float.is_nan p then 0
  else int_of_float (Float.ceil (p *. 9007199254740992.0))

let[@inline] hit t k =
  if k >= 0 then Int64.to_int (Int64.shift_right_logical (bits64 t) 11) < k else k = -2

let choose_array t a =
  if Array.length a = 0 then invalid_arg "Rng.choose_array: empty array";
  a.(int t (Array.length a))

let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t k xs =
  let a = Array.of_list xs in
  shuffle t a;
  let k = Stdlib.min k (Array.length a) in
  Array.to_list (Array.sub a 0 k)
