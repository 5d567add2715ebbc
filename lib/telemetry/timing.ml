let now_ns () = Int64.to_float (Monotonic_clock.now ())

let batch_ns_per ~ops f =
  let reps = ref 0 and elapsed = ref 0.0 and t0 = now_ns () in
  while !reps < 2 || (!elapsed < 5e7 && !reps < 100) do
    f ();
    incr reps;
    elapsed := now_ns () -. t0
  done;
  !elapsed /. (float_of_int !reps *. float_of_int ops)

(* Each thunk's least batch over [rounds] rounds of one batch each. *)
let best_of ~rounds ~ops fs =
  List.iter (fun f -> f ()) fs;
  Gc.full_major ();
  let best = Array.make (List.length fs) infinity in
  for _round = 1 to rounds do
    List.iteri (fun i f -> best.(i) <- Float.min best.(i) (batch_ns_per ~ops f)) fs
  done;
  best

let ns_per ~ops f = (best_of ~rounds:5 ~ops [ f ]).(0)

let pair_ns_per ~ops fa fb =
  let best = best_of ~rounds:6 ~ops [ fa; fb ] in
  (best.(0), best.(1))
