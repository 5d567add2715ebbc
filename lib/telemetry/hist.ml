(* Log2-bucket histograms: the fixed-cost accounting substrate behind
   the registry. All the arithmetic stays in native ints and floats —
   [record] performs no allocation and no hashing, so drivers and the
   serving loop can charge it per event/query. *)

module J = Pr_util.Json

let num_buckets = 64

type t = {
  buckets : int array; (* length num_buckets *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float; (* infinity when empty *)
  mutable max_v : float; (* neg_infinity when empty *)
}

let create () =
  {
    buckets = Array.make num_buckets 0;
    count = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let clear t =
  Array.fill t.buckets 0 num_buckets 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.min_v <- infinity;
  t.max_v <- neg_infinity

let copy t =
  {
    buckets = Array.copy t.buckets;
    count = t.count;
    sum = t.sum;
    min_v = t.min_v;
    max_v = t.max_v;
  }

(* 2^62 and 2^63 as floats: values at or above 2^62 cannot be pushed
   through [int_of_float] on 63-bit ints, so clamp them to the top two
   buckets directly. The comparison is written so NaN falls into the
   [else] branch of [not (v >= 1.0)] and lands in bucket 0. *)
let two_62 = 4.611686018427387904e18
let two_63 = 9.223372036854775808e18

let bucket_index_int n =
  (* floor(log2 n) for n >= 1 via shifts; allocation-free. *)
  let i = ref 0 in
  let m = ref n in
  while !m > 1 do
    m := !m lsr 1;
    incr i
  done;
  !i

let bucket_index v =
  if not (v >= 1.0) then 0
  else if v >= two_63 then num_buckets - 1
  else if v >= two_62 then num_buckets - 2
  else bucket_index_int (int_of_float v)

let record t v =
  let i = bucket_index v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let record_int t n =
  let i = if n < 1 then 0 else bucket_index_int n in
  let v = float_of_int n in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0.0 else t.min_v
let max_value t = if t.count = 0 then 0.0 else t.max_v

let bucket_bounds i =
  let lo = if i = 0 then 0.0 else ldexp 1.0 i in
  let hi = ldexp 1.0 (i + 1) in
  (lo, hi)

let buckets t =
  let acc = ref [] in
  for i = num_buckets - 1 downto 0 do
    if t.buckets.(i) > 0 then acc := (i, t.buckets.(i)) :: !acc
  done;
  !acc

(* Same rank convention as Stats.percentile: the p-th percentile of n
   samples sits at fractional rank p/100 * (n-1) of the sorted array.
   We locate the bucket holding that rank, interpolate linearly across
   it, and clamp to the exact extremes — the result is always within
   one log2 bucket of the true order statistic. *)
let quantile t p =
  if t.count = 0 then 0.0
  else begin
    let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
    let rank = p /. 100.0 *. float_of_int (t.count - 1) in
    let i = ref 0 in
    let below = ref 0 in
    (* smallest bucket i with cumulative count (inclusive) > rank *)
    while
      !i < num_buckets - 1
      && float_of_int (!below + t.buckets.(!i)) <= rank
    do
      below := !below + t.buckets.(!i);
      incr i
    done;
    let c = t.buckets.(!i) in
    let lo, hi = bucket_bounds !i in
    let est =
      if c = 0 then lo
      else
        let frac = (rank -. float_of_int !below) /. float_of_int c in
        lo +. (frac *. (hi -. lo))
    in
    let est = if est < t.min_v then t.min_v else est in
    if est > t.max_v then t.max_v else est
  end

let merge ~into src =
  for i = 0 to num_buckets - 1 do
    into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
  done;
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v

let diff ~after ~before =
  let t = create () in
  for i = 0 to num_buckets - 1 do
    let d = after.buckets.(i) - before.buckets.(i) in
    t.buckets.(i) <- (if d > 0 then d else 0);
    t.count <- t.count + t.buckets.(i)
  done;
  let ds = after.sum -. before.sum in
  t.sum <- (if ds > 0.0 then ds else 0.0);
  if t.count > 0 then begin
    (* Extremes of the delta are only known to bucket resolution. *)
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          let lo, hi = bucket_bounds i in
          if lo < t.min_v then t.min_v <- lo;
          if hi > t.max_v then t.max_v <- hi
        end)
      t.buckets
  end;
  t

let float_close a b =
  let m = Float.max (Float.abs a) (Float.abs b) in
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 m

let equal a b =
  a.count = b.count
  && a.buckets = b.buckets
  && float_close a.sum b.sum
  && (a.count = 0 || (a.min_v = b.min_v && a.max_v = b.max_v))

let to_json t =
  let bs =
    List.map (fun (i, c) -> J.List [ J.Int i; J.Int c ]) (buckets t)
  in
  J.Obj
    [
      ("count", J.Int t.count);
      ("sum", J.Float t.sum);
      ("min", J.Float (min_value t));
      ("max", J.Float (max_value t));
      ("buckets", J.List bs);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let num name =
    match J.member name j with
    | Some (J.Int v) -> Ok (float_of_int v)
    | Some (J.Float v) -> Ok v
    | _ -> Error (Printf.sprintf "hist: missing numeric %S" name)
  in
  let* count = num "count" in
  let* sum = num "sum" in
  let* mn = num "min" in
  let* mx = num "max" in
  let* bs =
    match J.member "buckets" j with
    | Some (J.List l) -> Ok l
    | _ -> Error "hist: missing \"buckets\" list"
  in
  let t = create () in
  let* () =
    List.fold_left
      (fun acc entry ->
        let* () = acc in
        match entry with
        | J.List [ J.Int i; J.Int c ] when i >= 0 && i < num_buckets && c >= 0
          ->
            t.buckets.(i) <- t.buckets.(i) + c;
            Ok ()
        | _ -> Error "hist: malformed bucket entry")
      (Ok ()) bs
  in
  let n = Array.fold_left ( + ) 0 t.buckets in
  if n <> int_of_float count then Error "hist: count/bucket mismatch"
  else begin
    t.count <- n;
    t.sum <- sum;
    if n > 0 then begin
      t.min_v <- mn;
      t.max_v <- mx
    end;
    Ok t
  end
