type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
  p99 : float;
}

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (sq /. float_of_int (List.length xs - 1))

let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n = 1 then a.(0)
    else begin
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
    end

let summary xs =
  match xs with
  | [] ->
    { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; median = 0.; p90 = 0.; p99 = 0. }
  | _ ->
    {
      count = List.length xs;
      mean = mean xs;
      stddev = stddev xs;
      min = List.fold_left Stdlib.min infinity xs;
      max = List.fold_left Stdlib.max neg_infinity xs;
      median = percentile xs 50.0;
      p90 = percentile xs 90.0;
      p99 = percentile xs 99.0;
    }

type histogram = { bucket_width : float; buckets : (float * int) list }

let histogram ~bucket_width xs =
  if bucket_width <= 0.0 then invalid_arg "Stats.histogram: bucket_width <= 0";
  match xs with
  | [] -> { bucket_width; buckets = [] }
  | _ ->
    let bucket x = int_of_float (Float.floor (x /. bucket_width)) in
    let lo = List.fold_left (fun acc x -> Stdlib.min acc (bucket x)) max_int xs in
    let hi = List.fold_left (fun acc x -> Stdlib.max acc (bucket x)) min_int xs in
    let counts = Array.make (hi - lo + 1) 0 in
    List.iter (fun x -> counts.(bucket x - lo) <- counts.(bucket x - lo) + 1) xs;
    let buckets =
      Array.to_list (Array.mapi (fun i c -> (float_of_int (lo + i) *. bucket_width, c)) counts)
    in
    { bucket_width; buckets }

let ratio a b = if b = 0.0 then 0.0 else a /. b
