(* Unit and property tests for the pr_util substrate. *)

module Rng = Pr_util.Rng
module Pqueue = Pr_util.Pqueue
module Bitset = Pr_util.Bitset
module Stats = Pr_util.Stats
module Texttable = Pr_util.Texttable

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng ----------------------------------------------------------- *)

let rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same sequence" (Rng.bits64 a) (Rng.bits64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let first_b = Rng.bits64 b in
  (* Drawing more from [a] must not change what [b] produces next. *)
  let a' = Rng.create 5 in
  let b' = Rng.split a' in
  ignore (Rng.bits64 a');
  ignore (Rng.bits64 a');
  Alcotest.(check int64) "split stream isolated" first_b (Rng.bits64 b')

let rng_copy () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let rng_int_in_range_bounds =
  QCheck.Test.make ~name:"Rng.int_in_range inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, width) ->
      let rng = Rng.create seed in
      let x = Rng.int_in_range rng ~min:lo ~max:(lo + width) in
      x >= lo && x <= lo + width)

let rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float in [0, bound)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let x = Rng.float rng 10.0 in
      x >= 0.0 && x < 10.0)

(* [hit t (odds p)] must be [chance t p], draw for draw: on random
   probabilities, on the clamped and NaN ones, and at the boundary,
   where p is the very value the next draw maps to or a neighbour. *)
let rng_hit_matches_chance =
  let open QCheck in
  let probability =
    Gen.oneof
      [
        Gen.float_range (-0.5) 1.5;
        Gen.oneofl [ 0.0; 1.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1e-300 ];
      ]
  in
  Test.make ~name:"Rng.hit (odds p) draws as Rng.chance p" ~count:500
    (pair small_nat (make ~print:Print.float probability))
    (fun (seed, p) ->
      let next_unit = Rng.float (Rng.create seed) 1.0 in
      List.for_all
        (fun p ->
          let a = Rng.create seed and b = Rng.create seed in
          let o = Rng.odds p in
          List.for_all (fun _ -> Rng.hit a o = Rng.chance b p) [ 1; 2; 3 ]
          && Rng.bits64 a = Rng.bits64 b)
        [ p; next_unit; Float.pred next_unit; Float.succ next_unit ])

let rng_invalid () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "choose []" (Invalid_argument "Rng.choose: empty list") (fun () ->
      ignore (Rng.choose rng []))

let rng_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Rng.create seed in
      let a = Array.of_list xs in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let rng_sample_distinct =
  QCheck.Test.make ~name:"sample draws distinct positions" ~count:200
    QCheck.(pair small_int (int_range 0 30))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let xs = List.init n (fun i -> i) in
      let k = n / 2 in
      let s = Rng.sample rng k xs in
      List.length s = min k n && List.sort_uniq compare s = List.sort compare s)

let rng_chance_extremes () =
  let rng = Rng.create 11 in
  for _ = 1 to 50 do
    check_bool "p=0 never" false (Rng.chance rng 0.0);
    check_bool "p=1 always" true (Rng.chance rng 1.0)
  done

(* The splitmix64 stream is part of every experiment's identity: these
   values were drawn before the generator's state moved into unboxed
   bytes, and must never change. *)
let rng_stream_pinned () =
  let stream name r ~bits ~floats ~ints ~chances =
    List.iteri
      (fun i want ->
        Alcotest.(check string)
          (Printf.sprintf "%s bits64 #%d" name i)
          want
          (Printf.sprintf "%Lx" (Rng.bits64 r)))
      bits;
    List.iteri
      (fun i want ->
        Alcotest.(check string)
          (Printf.sprintf "%s float #%d" name i)
          want
          (Printf.sprintf "%h" (Rng.float r 1.0)))
      floats;
    List.iteri
      (fun i want -> check_int (Printf.sprintf "%s int #%d" name i) want (Rng.int r 1000))
      ints;
    Alcotest.(check string)
      (name ^ " chance 0.3") chances
      (String.init 16 (fun _ -> if Rng.chance r 0.3 then '1' else '0'))
  in
  stream "create 42" (Rng.create 42)
    ~bits:[ "989b3f130a063869"; "290db4bf2570ded7"; "2a990be63a01b2d5" ]
    ~floats:[ "0x1.896d649de031p-5"; "0x1.f62d40dca5d82p-1"; "0x1.e187e2fea8348p-3" ]
    ~ints:[ 122; 996; 195 ] ~chances:"1000110111001000";
  stream "derive 7 faults" (Rng.derive 7 "faults")
    ~bits:[ "6fcec82a06a30559"; "bb3b9d64c96a4535"; "b918653f5d2f71b3" ]
    ~floats:[ "0x1.e883fe18fa3e8p-3"; "0x1.9d030f54fc46fp-1"; "0x1.55876591fcfd2p-2" ]
    ~ints:[ 458; 511; 702 ] ~chances:"0000000111110000";
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  stream "split child" child
    ~bits:[ "fb30a14cb4d06cf2"; "be91c7f6b12c4a00"; "300addfad643e97b" ]
    ~floats:[ "0x1.3c09a1716d698p-1"; "0x1.00850972d655p-2"; "0x1.07138e308e987p-1" ]
    ~ints:[ 797; 153; 274 ] ~chances:"1000100100000011";
  stream "split parent" parent
    ~bits:[ "7e449796d8a5423e"; "f2d0fc3f88b20d54"; "923347c1490bc641" ]
    ~floats:[ "0x1.487fe593c82d1p-1"; "0x1.4fa054b97a90ep-1"; "0x1.9beb2223b1408p-4" ]
    ~ints:[ 385; 935; 488 ] ~chances:"0000010010010010"

(* Draws update the state in place. [Rng.float]'s result is a float
   returned across a module boundary, which the native code generator
   boxes (2 words) unless the call is inlined; everything else —
   the state update included — allocates nothing. *)
let rng_draws_allocate_nothing () =
  let r = Rng.create 3 in
  let hits = ref 0 and sum = ref 0 in
  let n = 10_000 in
  let chance_words =
    Pr_telemetry.Alloc.words (fun () ->
        for _ = 1 to n do
          if Rng.chance r 0.3 then incr hits
        done)
  in
  let int_words =
    Pr_telemetry.Alloc.words (fun () ->
        for _ = 1 to n do
          sum := !sum + Rng.int r 1000
        done)
  in
  let float_words =
    Pr_telemetry.Alloc.words (fun () ->
        for _ = 1 to n do
          if Rng.float r 1.0 < 0.5 then incr hits
        done)
  in
  check_bool "draws happened" true (!hits > 0 && !sum > 0);
  Alcotest.(check (float 0.0)) "chance allocates nothing" 0.0 chance_words;
  Alcotest.(check (float 0.0)) "int allocates nothing" 0.0 int_words;
  check_bool
    (Printf.sprintf "float allocates at most its boxed result (%.1f words/draw)"
       (float_words /. float_of_int n))
    true
    (float_words <= 2.0 *. float_of_int n)

(* --- Pqueue -------------------------------------------------------- *)

module Calls = Pqueue.Calls

(* Every call these tests queue records an id in [made]: making the
   queue's next call tells the priority it popped at (the clock) and
   which call it was. *)
let made = ref (-1)

let record id = made := id

(* Queue [record id] at [priority], bit for bit (a closure per call). *)
let add_id q ~priority id = Calls.add q ~priority (fun () -> record id)

(* Queue [record id] at a priority no smaller than 0.0 without
   allocating: the delay is added to a clock that stays at 0.0. *)
let origin = { Calls.now = 0.0 }

let add_at q ~priority id = Calls.add_call_after q origin ~delay:priority record id

(* Make the next call and return (priority, id); [None] on an empty
   queue. *)
let pop_id q clock =
  if Calls.is_empty q then None
  else begin
    Calls.run_top q clock;
    Some (clock.Calls.now, !made)
  end

let drain_ids q clock =
  let rec go acc = match pop_id q clock with None -> List.rev acc | Some e -> go (e :: acc) in
  go []

let pqueue_basic () =
  let q = Calls.create () and clock = { Calls.now = 0.0 } in
  check_bool "empty" true (Calls.is_empty q);
  add_id q ~priority:2.0 1;
  add_id q ~priority:1.0 0;
  add_id q ~priority:3.0 2;
  check_int "length" 3 (Calls.length q);
  let check = Alcotest.(check (option (pair (float 0.0) int))) in
  check "pop a" (Some (1.0, 0)) (pop_id q clock);
  check "pop b" (Some (2.0, 1)) (pop_id q clock);
  check "pop c" (Some (3.0, 2)) (pop_id q clock);
  check "pop none" None (pop_id q clock)

let pqueue_fifo_ties () =
  let q = Calls.create () and clock = { Calls.now = 0.0 } in
  let names = [| "a0"; "b1"; "c0"; "d1"; "e0" |] in
  Array.iteri (fun i _ -> add_id q ~priority:(float_of_int (i mod 2)) i) names;
  Alcotest.(check (list string)) "FIFO among equal priorities"
    [ "a0"; "c0"; "e0"; "b1"; "d1" ]
    (List.map (fun (_, id) -> names.(id)) (drain_ids q clock))

(* Calls chained into a run still count one each, and a run stays FIFO
   while it is appended to between pops. *)
let pqueue_run_length () =
  let q = Calls.create () and clock = { Calls.now = 0.0 } in
  let names = [| "a"; "b"; "c"; "x"; "d"; "e" |] in
  List.iter (fun id -> add_id q ~priority:1.0 id) [ 0; 1; 2 ];
  add_id q ~priority:2.0 3;
  add_id q ~priority:1.0 4;
  check_int "every call counted" 5 (Calls.length q);
  Calls.run_top q clock;
  Alcotest.(check string) "run head" "a" names.(!made);
  add_id q ~priority:1.0 5;
  check_int "after a pop and an append" 5 (Calls.length q);
  Alcotest.(check (list string)) "FIFO within the run" [ "b"; "c"; "d"; "e"; "x" ]
    (List.map (fun (_, id) -> names.(id)) (drain_ids q clock));
  check_int "drained" 0 (Calls.length q);
  check_bool "empty" true (Calls.is_empty q)

let pqueue_sorted_output =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing priority" ~count:200
    QCheck.(list (float_bound_inclusive 100.0))
    (fun priorities ->
      let q = Calls.create () and clock = { Calls.now = 0.0 } in
      List.iter (fun p -> add_id q ~priority:p 0) priorities;
      List.map fst (drain_ids q clock) = List.sort compare priorities)

(* Model check: random interleavings of adds and pops against a list
   model popped by (priority, insertion seq). Priorities come from a
   tiny set, so most comparisons are ties and the FIFO tie-break
   carries the order. *)
type pq_op = Add of int | Pop

let pq_op_gen = QCheck.Gen.(frequency [ (6, map (fun p -> Add p) (int_range 0 3)); (6, return Pop) ])

let pq_op_print = function Add p -> Printf.sprintf "add %d" p | Pop -> "pop"

let pqueue_vs_model =
  QCheck.Test.make ~name:"pqueue = stable-sorted list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pq_op_print ops))
       QCheck.Gen.(list_size (int_range 0 400) pq_op_gen))
    (fun ops ->
      let q = Calls.create () and clock = { Calls.now = 0.0 } in
      (* The model: (priority, seq) pairs; the call records the seq. *)
      let model = ref [] and next = ref 0 in
      let model_min () =
        List.fold_left
          (fun best (p, s) ->
            match best with
            | Some (bp, bs) when bp < p || (bp = p && bs < s) -> best
            | _ -> Some (p, s))
          None !model
      in
      List.for_all
        (fun op ->
          (match op with
          | Add p ->
            add_id q ~priority:(float_of_int p) !next;
            model := (float_of_int p, !next) :: !model;
            incr next;
            true
          | Pop -> (
            match (pop_id q clock, model_min ()) with
            | None, None -> true
            | Some (p, v), Some (mp, ms) ->
              model := List.filter (fun e -> e <> (mp, ms)) !model;
              p = mp && v = ms
            | _ -> false))
          && Calls.length q = List.length !model)
        ops)

(* The run path against the same model. The tiny-set model above never
   has more distinct priorities pending than there are plain channels,
   so here priorities mix a few hot values (0.0 and -0.0 among them)
   with hundreds of distinct ones: channels are shared, runs close and
   stay in the heap, and a later run opens on a channel whose earlier
   run is still queued. Popped priorities are compared bit for bit, so
   a run whose successor took the wrong priority would show. *)
type pq_run_op = Add_prio of float | Pop_any

let pq_hot = [| 0.0; -0.0; 1.0; 2.0; 2.5 |]

let pq_run_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Add_prio pq_hot.(i)) (int_bound (Array.length pq_hot - 1)));
        (4, map (fun k -> Add_prio (float_of_int k /. 8.0)) (int_range 1 400));
        (5, return Pop_any);
      ])

let pq_run_op_print = function
  | Add_prio p -> Printf.sprintf "add %h" p
  | Pop_any -> "pop"

let pqueue_runs_vs_model =
  QCheck.Test.make ~name:"pqueue runs = stable-sorted list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pq_run_op_print ops))
       QCheck.Gen.(list_size (int_range 0 1500) pq_run_op_gen))
    (fun ops ->
      let q = Calls.create () and clock = { Calls.now = 0.0 } in
      let model = ref [] and next = ref 0 in
      let model_pop () =
        let min =
          List.fold_left
            (fun best (p, s) ->
              match best with
              | Some (bp, bs) when bp < p || (bp = p && bs < s) -> best
              | _ -> Some (p, s))
            None !model
        in
        Option.iter (fun (_, s) -> model := List.filter (fun (_, s') -> s' <> s) !model) min;
        min
      in
      let bits = Int64.bits_of_float in
      List.for_all
        (fun op ->
          (match op with
          | Add_prio p ->
            add_id q ~priority:p !next;
            model := (p, !next) :: !model;
            incr next;
            true
          | Pop_any -> (
            match (pop_id q clock, model_pop ()) with
            | None, None -> true
            | Some (p, v), Some (mp, ms) -> bits p = bits mp && v = ms
            | _ -> false))
          && Calls.length q = List.length !model)
        ops)

(* Once the arrays have grown to the working size, an add and a call
   allocate nothing. The priorities are boxed up front: a float passed
   to a function in another module is boxed by the caller, and that
   box is the caller's allocation, not the queue's. *)
let pqueue_steady_state_allocates_nothing () =
  let q = Calls.create () and clock = { Calls.now = 0.0 } in
  let prios = List.init 64 (fun i -> float_of_int (i mod 7)) in
  List.iteri (fun i p -> add_at q ~priority:p i) prios;
  let sum = ref 0 in
  let rec round i = function
    | [] -> ()
    | p :: rest ->
      add_at q ~priority:p i;
      Calls.run_top q clock;
      sum := !sum + !made;
      round (i + 1) rest
  in
  let rounds () =
    for _ = 1 to 100 do
      round 0 prios
    done
  in
  rounds ();
  let words = Pr_telemetry.Alloc.words rounds in
  check_int "queue size unchanged" 64 (Calls.length q);
  Alcotest.(check (float 0.0)) "add + run_top allocate nothing" 0.0 words

(* A call made must not stay reachable from the queue: neither a value
   its handler closes over nor its argument. *)
let pqueue_no_retention () =
  let q = Calls.create () and clock = { Calls.now = 0.0 } in
  let w = Weak.create 2 in
  (let v = Bytes.make 64 'x' and x = Bytes.make 64 'x' in
   Weak.set w 0 (Some v);
   Weak.set w 1 (Some x);
   Calls.add q ~priority:1.0 (fun () -> record (Bytes.length v));
   Calls.add_call_after q origin ~delay:1.5 (fun b -> record (Bytes.length b)) x);
  for i = 1 to 40 do
    let y = Bytes.make 8 'y' in
    Calls.add q ~priority:(float_of_int (i + 1)) (fun () -> record (Bytes.length y))
  done;
  let popped = List.init 2 (fun _ -> pop_id q clock) in
  Gc.full_major ();
  Alcotest.(check (list (option (pair (float 0.0) int)))) "made the tracked calls"
    [ Some (1.0, 64); Some (1.5, 64) ] popped;
  check_bool "closed-over value collected" false (Weak.check w 0);
  check_bool "argument collected" false (Weak.check w 1);
  check_int "rest still queued" 40 (Calls.length q)

(* Storage handover. Two queues whose calls carry arguments of
   different types alternate filling and draining, the first to drain
   alternating by round, so each adopts the storage the other handed
   on; round sizes vary, so adoption meets a spare both larger and
   smaller than the queue's last storage. Every drain must pop in the
   stable-sorted (priority, seq) order of a list model, and [clear]
   must leave a queue that refills in the same order. *)
let pqueue_handover_vs_model =
  let prios = QCheck.Gen.(list_size (int_range 0 120) (int_bound 4)) in
  QCheck.Test.make ~name:"pqueue storage handover = stable-sorted list model" ~count:200
    (QCheck.make
       ~print:(fun rounds ->
         String.concat " | "
           (List.map
              (fun (a, b, c) ->
                Printf.sprintf "%d/%d/%b" (List.length a) (List.length b) c)
              rounds))
       QCheck.Gen.(list_size (int_range 1 8) (triple prios prios bool)))
    (fun rounds ->
      let qa = Calls.create () and qb = Calls.create () and clock = { Calls.now = 0.0 } in
      let model ps =
        List.stable_sort (fun (p, _) (q, _) -> compare p q)
          (List.mapi (fun i p -> (float_of_int p, i)) ps)
      in
      let fill_a ps =
        List.iteri
          (fun i p ->
            Calls.add_call_after qa origin ~delay:(float_of_int p)
              (fun s -> record (int_of_string s))
              (string_of_int i))
          ps
      and fill_b ps =
        List.iteri
          (fun i p ->
            Calls.add_call_after qb origin ~delay:(float_of_int p)
              (fun x -> record (int_of_float x))
              (float_of_int i))
          ps
      in
      List.for_all
        (fun (pa, pb, clear_b) ->
          fill_a pa;
          fill_b pb;
          let a, b =
            if clear_b then begin
              (* Abandon b's calls, then refill it. *)
              Calls.clear qb;
              fill_b pb;
              let b = drain_ids qb clock in
              (drain_ids qa clock, b)
            end
            else
              let a = drain_ids qa clock in
              (a, drain_ids qb clock)
          in
          a = model pa && b = model pb && Calls.is_empty qa && Calls.is_empty qb)
        rounds)

(* The storage a drained queue hands on holds none of its calls: a
   queue that adopts it does not keep their arguments reachable. *)
let pqueue_handover_no_retention () =
  let q = Calls.create () and clock = { Calls.now = 0.0 } in
  let w = Weak.create 50 in
  for i = 0 to 49 do
    let v = Bytes.make 64 'x' in
    Weak.set w i (Some v);
    Calls.add_call_after q origin ~delay:(float_of_int (i mod 3)) ignore v
  done;
  ignore (drain_ids q clock);
  let adopter = Calls.create () in
  Calls.add_call_after adopter origin ~delay:0.0 ignore (Bytes.make 8 'y');
  Gc.full_major ();
  for i = 0 to 49 do
    check_bool (Printf.sprintf "value %d collected" i) false (Weak.check w i)
  done;
  check_int "adopter holds its own call" 1 (Calls.length adopter)

(* A fresh queue refilled up to the size of the last one drained adopts
   its storage and allocates nothing. Priorities are boxed up front, as
   in the steady-state test. *)
let pqueue_refill_allocates_nothing () =
  let size = 1000 in
  let prios = List.init size (fun i -> float_of_int (i mod 13)) in
  let rec fill q = function
    | [] -> ()
    | p :: rest ->
      add_at q ~priority:p 7;
      fill q rest
  in
  let first = Calls.create () in
  fill first prios;
  ignore (drain_ids first { Calls.now = 0.0 });
  let fresh = Calls.create () in
  let words = Pr_telemetry.Alloc.words (fun () -> fill fresh prios) in
  check_int "refilled" size (Calls.length fresh);
  Alcotest.(check (float 0.0)) "refill allocates nothing" 0.0 words

(* Channel runs of a call queue. Random programs add plain calls, at
   delays from the clock and at absolute priorities, calls on a few
   channels and fan-outs, pop them, and clear the queue (which leaves
   channels to refill). The delays make channel copies overtake their
   channel's tail. The absolute priorities are 0.0, -0.0 and multiples
   of 2^26, which the queue's hash puts on one plain channel, above
   and below that channel's tail. Each pop must make the call a sorted
   model names: the smallest (priority, seq), a fan-out's calls in bit
   order under its one seq, at the priority the call was added with,
   bit for bit. After every step no more channels may be busy than
   have calls queued; after every drain a queue that adopts the
   handed-on storage must find every channel closed. *)
type chan_op =
  | C_plain of float
  | C_at of float
  | C_on of int * float
  | C_fan of float * int
  | C_pop
  | C_clear

let chan_delays = [| 0.0; 0.0; 0.25; 0.5; 1.0; 1.0; 1.5; 3.0 |]

let chan_absolute = Array.append [| 0.0; -0.0 |] (Array.init 6 (fun k -> Float.ldexp (float_of_int k) 26))

let chan_op_gen =
  QCheck.Gen.(
    let pick a = map (fun i -> a.(i)) (int_bound (Array.length a - 1)) in
    let delay = pick chan_delays in
    frequency
      [
        (2, map (fun d -> C_plain d) delay);
        (1, map (fun p -> C_at p) (pick chan_absolute));
        (8, map2 (fun c d -> C_on (c, d)) (int_bound 5) delay);
        (1, map2 (fun d m -> C_fan (d, m)) delay (int_range 1 15));
        (8, return C_pop);
        (1, return C_clear);
      ])

let chan_op_print = function
  | C_plain d -> Printf.sprintf "plain %g" d
  | C_at p -> Printf.sprintf "at %h" p
  | C_on (c, d) -> Printf.sprintf "chan %d %g" c d
  | C_fan (d, m) -> Printf.sprintf "fan %g %x" d m
  | C_pop -> "pop"
  | C_clear -> "clear"

let channel_runs_vs_model =
  QCheck.Test.make ~name:"channel runs = sorted (priority, seq) model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map chan_op_print ops))
       QCheck.Gen.(list_size (int_range 0 800) chan_op_gen))
    (fun ops ->
      let q = Calls.create () and clock = { Calls.now = 0.0 } in
      (* Model entries: (priority, seq, bit, call id, channel or -1). *)
      let model = ref [] and seq = ref 0 and made = ref (0L, -1) in
      let record id = made := (Int64.bits_of_float clock.Calls.now, id) in
      let queued ?(chan = -1) ?(bit = 0) p id = model := (p, !seq, bit, id, chan) :: !model in
      let busy () = (Calls.census q).Calls.busy_channels in
      (* A probe queue adopts the storage a drain handed on. *)
      let closed_after_drain () =
        let probe = Calls.create () in
        Calls.add probe ~priority:0.0 ignore;
        let busy = (Calls.census probe).Calls.busy_channels in
        Calls.clear probe;
        busy = 0
      in
      let ok = ref true in
      List.iteri
        (fun id op ->
          (match op with
          | C_plain d ->
            Calls.add_after q clock ~delay:d (fun () -> record id);
            queued (clock.Calls.now +. d) id;
            incr seq
          | C_at p ->
            Calls.add q ~priority:p (fun () -> record id);
            queued p id;
            incr seq
          | C_on (chan, d) ->
            Calls.add_call_on q clock ~chan ~delay:d record id;
            queued ~chan (clock.Calls.now +. d) id;
            incr seq
          | C_fan (d, mask) ->
            Calls.add_fanout_after q clock ~delay:d (fun i id -> record ((id * 16) + i)) id ~mask;
            for bit = 0 to 3 do
              if mask land (1 lsl bit) <> 0 then queued ~bit (clock.Calls.now +. d) ((id * 16) + bit)
            done;
            incr seq
          | C_pop -> (
            let key (p, s, b, _, _) = (p, s, b) in
            match List.sort (fun a b -> compare (key a) (key b)) !model with
            | [] -> ok := !ok && Calls.is_empty q
            | ((p, _, _, want, _) as top) :: _ ->
              Calls.run_top q clock;
              model := List.filter (fun e -> e != top) !model;
              ok := !ok && !made = (Int64.bits_of_float p, want);
              if !model = [] then ok := !ok && busy () = 0 && closed_after_drain ())
          | C_clear ->
            Calls.clear q;
            model := [];
            ok := !ok && busy () = 0 && closed_after_drain ());
          let chans =
            List.sort_uniq compare
              (List.filter_map (fun (_, _, _, _, c) -> if c >= 0 then Some c else None) !model)
          in
          ok := !ok && Calls.length q = List.length !model && busy () <= List.length chans)
        ops;
      !ok)

(* A queue that grew past the spare's bound drops its storage when it
   drains, so the spare keeps at most 2^16 slots; storage within the
   bound is still handed on. *)
let pqueue_spare_bound () =
  let bound = 1 lsl 16 in
  let fill k =
    let q = Calls.create () and clock = { Calls.now = 0.0 } in
    for i = 1 to k do
      add_at q ~priority:(float_of_int (i land 1023)) i
    done;
    while not (Calls.is_empty q) do
      Calls.run_top q clock
    done
  in
  fill 1000;
  check_bool "storage within the bound is kept" true (Pqueue.spare_capacity () >= 1000);
  fill (bound + 1);
  check_bool
    (Printf.sprintf "spare of %d slots after a larger queue drained (bound %d)"
       (Pqueue.spare_capacity ()) bound)
    true
    (Pqueue.spare_capacity () <= bound)

(* --- Bitset -------------------------------------------------------- *)

let bitset_basic () =
  let b = Bitset.create 100 in
  check_bool "empty" true (Bitset.is_empty b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 99;
  check_bool "mem 0" true (Bitset.mem b 0);
  check_bool "mem 63" true (Bitset.mem b 63);
  check_bool "mem 99" true (Bitset.mem b 99);
  check_bool "not mem 50" false (Bitset.mem b 50);
  check_int "cardinal" 3 (Bitset.cardinal b);
  Bitset.remove b 63;
  check_bool "removed" false (Bitset.mem b 63);
  check_int "cardinal after remove" 2 (Bitset.cardinal b);
  Alcotest.(check (list int)) "members" [ 0; 99 ]
    (List.filter (Bitset.mem b) (List.init 100 Fun.id))

let bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add b 8)

let bitset_vs_reference =
  let open QCheck in
  Test.make ~name:"bitset agrees with list-set reference" ~count:300
    (pair (list (int_range 0 63)) (list (int_range 0 63)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 64 xs and b = Bitset.of_list 64 ys in
      let sa = List.sort_uniq compare xs and sb = List.sort_uniq compare ys in
      let u = Bitset.copy a in
      Bitset.union_into u b;
      let i = Bitset.copy a in
      Bitset.inter_into i b;
      let members s = List.filter (Bitset.mem s) (List.init 64 Fun.id) in
      members u = List.sort_uniq compare (sa @ sb)
      && members i = List.filter (fun x -> List.mem x sb) sa
      && Bitset.subset i a)

let bitset_equal_copy =
  QCheck.Test.make ~name:"copy is equal; mutation breaks equality" ~count:200
    QCheck.(list (int_range 0 31))
    (fun xs ->
      let a = Bitset.of_list 32 xs in
      let b = Bitset.copy a in
      let eq_before = Bitset.equal a b in
      Bitset.add b 0;
      Bitset.remove b 0;
      let eq_mid = Bitset.equal a b || List.mem 0 xs in
      eq_before && eq_mid)

let bitset_clear () =
  let b = Bitset.of_list 16 [ 1; 2; 3 ] in
  Bitset.clear b;
  check_bool "cleared" true (Bitset.is_empty b)

(* --- Stats --------------------------------------------------------- *)

let stats_mean () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "mean empty" 0.0 (Stats.mean [])

let stats_stddev () =
  check_float "stddev of constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check_float "sample stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ])

let stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p50" 3.0 (Stats.percentile xs 50.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25 interpolates" 2.0 (Stats.percentile xs 25.0)

let stats_summary () =
  let s = Stats.summary [ 4.0; 1.0; 3.0; 2.0 ] in
  check_int "count" 4 s.Stats.count;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 4.0 s.Stats.max;
  check_float "median" 2.5 s.Stats.median

let stats_summary_empty () =
  let s = Stats.summary [] in
  check_int "count" 0 s.Stats.count;
  check_float "mean" 0.0 s.Stats.mean

let stats_percentile_sorted =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let p q = Stats.percentile xs q in
      p 10.0 <= p 50.0 && p 50.0 <= p 90.0)

let stats_histogram () =
  let h = Stats.histogram ~bucket_width:1.0 [ 0.5; 1.5; 1.7; 3.2 ] in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "buckets" [ (0.0, 1); (1.0, 2); (2.0, 0); (3.0, 1) ] h.Stats.buckets

let stats_ratio () =
  check_float "ratio" 2.0 (Stats.ratio 4.0 2.0);
  check_float "ratio by zero" 0.0 (Stats.ratio 4.0 0.0)

(* --- Texttable ----------------------------------------------------- *)

let texttable_render () =
  let t = Texttable.create ~columns:[ ("name", Texttable.Left); ("n", Texttable.Right) ] in
  Texttable.add_row t [ "alpha"; "1" ];
  Texttable.add_row t [ "b"; "22" ];
  let out = Texttable.render t in
  check_bool "contains header" true (String.length out > 0);
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: rule :: _ ->
    check_int "rule same width" (String.length header) (String.length rule)
  | _ -> Alcotest.fail "expected at least two lines");
  check_bool "right aligned digits line up" true
    (List.exists (fun l -> String.length l > 0 && l.[String.length l - 1] = '1') lines)

let texttable_bad_row () =
  let t = Texttable.create ~columns:[ ("a", Texttable.Left) ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Texttable.add_row: wrong number of cells") (fun () ->
      Texttable.add_row t [ "x"; "y" ])

let texttable_cells () =
  Alcotest.(check string) "int" "42" (Texttable.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Texttable.cell_float 3.1415);
  Alcotest.(check string) "pct" "50.0%" (Texttable.cell_pct 0.5)

(* --- Sexp ----------------------------------------------------------- *)

module Sexp = Pr_util.Sexp

let sexp_print_parse () =
  let cases =
    [
      Sexp.Atom "hello";
      Sexp.List [];
      Sexp.List [ Sexp.Atom "a"; Sexp.Atom "b c"; Sexp.List [ Sexp.int 42 ] ];
      Sexp.Atom "with \"quotes\" and \\slashes";
      Sexp.Atom "";
    ]
  in
  List.iter
    (fun case ->
      match Sexp.of_string (Sexp.to_string case) with
      | Ok parsed -> check_bool "roundtrip" true (parsed = case)
      | Error e -> Alcotest.failf "parse error on %s: %s" (Sexp.to_string case) e)
    cases

let sexp_parse_errors () =
  List.iter
    (fun bad ->
      match Sexp.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should not parse: %s" bad)
    [ "("; "(a))"; "\"unterminated"; ""; "a b" ]

let sexp_helpers () =
  let s = Sexp.List [ Sexp.field "x" [ Sexp.int 3 ]; Sexp.field "y" [] ] in
  (match Sexp.assoc "x" s with
  | Ok [ v ] -> Alcotest.(check (result int string)) "to_int" (Ok 3) (Sexp.to_int v)
  | _ -> Alcotest.fail "assoc x");
  check_bool "assoc_opt present" true (Sexp.assoc_opt "y" s = Some []);
  check_bool "assoc_opt absent" true (Sexp.assoc_opt "z" s = None);
  check_bool "assoc absent errors" true (Result.is_error (Sexp.assoc "z" s));
  check_bool "to_int of list errors" true (Result.is_error (Sexp.to_int s))

let sexp_roundtrip_prop =
  let rec gen_sexp depth =
    let open QCheck.Gen in
    if depth = 0 then map (fun s -> Sexp.Atom s) (string_size (int_range 0 8))
    else
      frequency
        [
          (2, map (fun s -> Sexp.Atom s) (string_size (int_range 0 8)));
          ( 1,
            map (fun l -> Sexp.List l) (list_size (int_range 0 4) (gen_sexp (depth - 1)))
          );
        ]
  in
  QCheck.Test.make ~name:"sexp print/parse roundtrip" ~count:300
    (QCheck.make (gen_sexp 3))
    (fun s ->
      match Sexp.of_string (Sexp.to_string s) with
      | Ok parsed -> parsed = s
      | Error _ -> false)

let sexp_pretty_parses =
  QCheck.Test.make ~name:"pretty output parses to the same value" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 20) (pair small_string small_int))
    (fun pairs ->
      let s =
        Sexp.List
          (List.map (fun (k, v) -> Sexp.List [ Sexp.Atom k; Sexp.int v ]) pairs)
      in
      match Sexp.of_string (Sexp.to_string_pretty s) with
      | Ok parsed -> parsed = s
      | Error _ -> false)

(* --- Filler ---------------------------------------------------------- *)

module Filler = Pr_util.Filler

let filler_equals_array_init =
  QCheck.Test.make ~name:"init equals Array.init" ~count:100
    QCheck.(pair (int_range 0 600) small_nat)
    (fun (n, k) ->
      let f i = (i * k) + 1 in
      Filler.init ~filler:0 n f = Array.init n f)

(* A per-AD array of fresh records above 256 slots: [Array.init] forces
   a minor collection to make it (the reason the helper exists), the
   helper forces none, and none of its slots is the filler. *)
let filler_forces_no_collection () =
  let n = 304 in
  let make i = ref i in
  let filler = ref (-1) in
  let warm = Filler.init ~filler n make in
  ignore (Sys.opaque_identity warm);
  let by_init = ref [||] in
  check_bool "Array.init forces a collection" true
    (Pr_telemetry.Alloc.minor_collections (fun () -> by_init := Array.init n make) > 0);
  let by_filler = ref [||] in
  check_int "Filler.init forces none" 0
    (Pr_telemetry.Alloc.minor_collections (fun () -> by_filler := Filler.init ~filler n make));
  check_bool "same contents" true (Array.map ( ! ) !by_filler = Array.map ( ! ) !by_init);
  check_bool "the filler is never handed out" true
    (Array.for_all (fun r -> r != filler) !by_filler)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "pr_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick rng_split_independent;
          Alcotest.test_case "copy" `Quick rng_copy;
          Alcotest.test_case "invalid args" `Quick rng_invalid;
          Alcotest.test_case "chance extremes" `Quick rng_chance_extremes;
          Alcotest.test_case "stream pinned" `Quick rng_stream_pinned;
          Alcotest.test_case "draws allocate nothing" `Quick rng_draws_allocate_nothing;
        ]
        @ qsuite
            [
              rng_hit_matches_chance;
              rng_int_bounds;
              rng_int_in_range_bounds;
              rng_float_bounds;
              rng_shuffle_permutation;
              rng_sample_distinct;
            ] );
      ( "pqueue",
        [
          Alcotest.test_case "basic order" `Quick pqueue_basic;
          Alcotest.test_case "FIFO ties" `Quick pqueue_fifo_ties;
          Alcotest.test_case "length counts run members" `Quick pqueue_run_length;
        ]
        @ qsuite [ pqueue_runs_vs_model ]
        @ [
            Alcotest.test_case "steady state allocates nothing" `Quick
              pqueue_steady_state_allocates_nothing;
            Alcotest.test_case "no retention after pop" `Quick pqueue_no_retention;
            Alcotest.test_case "handed-on storage retains nothing" `Quick
              pqueue_handover_no_retention;
            Alcotest.test_case "refill to the spare's size allocates nothing" `Quick
              pqueue_refill_allocates_nothing;
          ]
        @ qsuite [ pqueue_sorted_output; pqueue_vs_model; pqueue_handover_vs_model ]
        @ [ Alcotest.test_case "spare bound" `Quick pqueue_spare_bound ]
        @ qsuite [ channel_runs_vs_model ] );
      ( "filler",
        [ Alcotest.test_case "forces no collection" `Quick filler_forces_no_collection ]
        @ qsuite [ filler_equals_array_init ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick bitset_basic;
          Alcotest.test_case "bounds" `Quick bitset_bounds;
          Alcotest.test_case "clear" `Quick bitset_clear;
        ]
        @ qsuite [ bitset_vs_reference; bitset_equal_copy ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick stats_mean;
          Alcotest.test_case "stddev" `Quick stats_stddev;
          Alcotest.test_case "percentile" `Quick stats_percentile;
          Alcotest.test_case "summary" `Quick stats_summary;
          Alcotest.test_case "summary empty" `Quick stats_summary_empty;
          Alcotest.test_case "histogram" `Quick stats_histogram;
          Alcotest.test_case "ratio" `Quick stats_ratio;
        ]
        @ qsuite [ stats_percentile_sorted ] );
      ( "sexp",
        [
          Alcotest.test_case "print/parse" `Quick sexp_print_parse;
          Alcotest.test_case "parse errors" `Quick sexp_parse_errors;
          Alcotest.test_case "helpers" `Quick sexp_helpers;
        ]
        @ qsuite [ sexp_roundtrip_prop; sexp_pretty_parses ] );
      ( "texttable",
        [
          Alcotest.test_case "render" `Quick texttable_render;
          Alcotest.test_case "bad row" `Quick texttable_bad_row;
          Alcotest.test_case "cell formatting" `Quick texttable_cells;
        ] );
    ]
