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
      let shuffled = Rng.shuffle_list rng xs in
      List.sort compare shuffled = List.sort compare xs)

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

let pqueue_basic () =
  let q = Pqueue.create () in
  check_bool "empty" true (Pqueue.is_empty q);
  Pqueue.add q ~priority:2.0 "b";
  Pqueue.add q ~priority:1.0 "a";
  Pqueue.add q ~priority:3.0 "c";
  check_int "length" 3 (Pqueue.length q);
  Alcotest.(check (float 0.0)) "min" 1.0 (Pqueue.top_priority q);
  Alcotest.(check (option (pair (float 0.0) string))) "pop a" (Some (1.0, "a")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "pop b" (Some (2.0, "b")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "pop c" (Some (3.0, "c")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "pop none" None (Pqueue.pop q)

let pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iteri (fun i name -> Pqueue.add q ~priority:(float_of_int (i mod 2)) name)
    [ "a0"; "b1"; "c0"; "d1"; "e0" ];
  let popped = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (_, v) ->
      popped := v :: !popped;
      drain ()
  in
  drain ();
  Alcotest.(check (list string)) "FIFO among equal priorities"
    [ "a0"; "c0"; "e0"; "b1"; "d1" ] (List.rev !popped)

(* Values chained into an equal-priority run still count one each, and
   a run stays FIFO while it is appended to between pops. *)
let pqueue_run_length () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.add q ~priority:1.0 v) [ "a"; "b"; "c" ];
  Pqueue.add q ~priority:2.0 "x";
  Pqueue.add q ~priority:1.0 "d";
  check_int "every value counted" 5 (Pqueue.length q);
  Alcotest.(check string) "run head" "a" (Pqueue.pop_value q);
  Pqueue.add q ~priority:1.0 "e";
  check_int "after a pop and an append" 5 (Pqueue.length q);
  let rest = List.init 5 (fun _ -> Pqueue.pop_value q) in
  Alcotest.(check (list string)) "FIFO within the run" [ "b"; "c"; "d"; "e"; "x" ] rest;
  check_int "drained" 0 (Pqueue.length q);
  check_bool "empty" true (Pqueue.is_empty q)

let pqueue_sorted_output =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing priority" ~count:200
    QCheck.(list (float_bound_inclusive 100.0))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.add q ~priority:p ()) priorities;
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some (p, ()) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare priorities)

(* Model check: random interleavings of add / pop / pop_value against
   a list model popped by (priority, insertion seq). Priorities come
   from a tiny set, so most comparisons are ties and the FIFO tie-break
   carries the order. *)
type pq_op = Add of int | Pop | Pop_value

let pq_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map (fun p -> Add p) (int_range 0 3)); (3, return Pop); (3, return Pop_value) ])

let pq_op_print = function
  | Add p -> Printf.sprintf "add %d" p
  | Pop -> "pop"
  | Pop_value -> "pop_value"

let pqueue_vs_model =
  QCheck.Test.make ~name:"pqueue = stable-sorted list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pq_op_print ops))
       QCheck.Gen.(list_size (int_range 0 400) pq_op_gen))
    (fun ops ->
      let q = Pqueue.create () in
      (* The model: (priority, seq) pairs; the value is the seq. *)
      let model = ref [] and next = ref 0 in
      let model_min () =
        List.fold_left
          (fun best (p, s) ->
            match best with
            | Some (bp, bs) when bp < p || (bp = p && bs < s) -> best
            | _ -> Some (p, s))
          None !model
      in
      let take (p, s) = model := List.filter (fun e -> e <> (p, s)) !model in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Add p ->
              Pqueue.add q ~priority:(float_of_int p) !next;
              model := (float_of_int p, !next) :: !model;
              incr next;
              true
            | Pop -> (
              match (Pqueue.pop q, model_min ()) with
              | None, None -> true
              | Some (p, v), Some (mp, ms) ->
                take (mp, ms);
                p = mp && v = ms
              | _ -> false)
            | Pop_value -> (
              match model_min () with
              | None -> Pqueue.is_empty q && Pqueue.top_priority q = Float.infinity
              | Some (mp, ms) ->
                let p = Pqueue.top_priority q in
                let v = Pqueue.pop_value q in
                take (mp, ms);
                p = mp && v = ms)
          in
          ok
          && Pqueue.length q = List.length !model
          && Pqueue.top_priority q
             = Option.fold ~none:Float.infinity ~some:fst (model_min ()))
        ops)

(* The run path against the same model. The tiny-set model above never
   has more distinct priorities pending than the run table has buckets,
   so here priorities mix a few hot values (0.0 and -0.0 among them)
   with hundreds of distinct ones: buckets collide, open runs are
   evicted and left in the heap closed, and a later run opens for a
   priority whose earlier run is still queued. Popped priorities are
   compared bit for bit, so a run that swallowed a -0.0 behind a 0.0
   head would show. *)
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
      let q = Pqueue.create () in
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
            Pqueue.add q ~priority:p !next;
            model := (p, !next) :: !model;
            incr next;
            true
          | Pop_any -> (
            match (Pqueue.pop q, model_pop ()) with
            | None, None -> true
            | Some (p, v), Some (mp, ms) -> bits p = bits mp && v = ms
            | _ -> false))
          && Pqueue.length q = List.length !model)
        ops)

(* Once the arrays have grown to the working size, add + pop_value
   allocate nothing. The priorities are boxed up front: a float passed
   to a function in another module is boxed by the caller, and that
   box is the caller's allocation, not the queue's. *)
let pqueue_steady_state_allocates_nothing () =
  let q = Pqueue.create () in
  let prios = List.init 64 (fun i -> float_of_int (i mod 7)) in
  List.iteri (fun i p -> Pqueue.add q ~priority:p i) prios;
  let sum = ref 0 in
  let rec round i = function
    | [] -> ()
    | p :: rest ->
      Pqueue.add q ~priority:p i;
      sum := !sum + Pqueue.pop_value q;
      round (i + 1) rest
  in
  let rounds () =
    for _ = 1 to 100 do
      round 0 prios
    done
  in
  rounds ();
  let words = Pr_telemetry.Alloc.words rounds in
  check_int "queue size unchanged" 64 (Pqueue.length q);
  Alcotest.(check (float 0.0)) "add + pop_value allocate nothing" 0.0 words

(* A popped value must not stay reachable from the queue. *)
let pqueue_no_retention () =
  let q = Pqueue.create () in
  let w = Weak.create 1 in
  let popped = ref 0 in
  (let v = Bytes.make 64 'x' in
   Weak.set w 0 (Some v);
   Pqueue.add q ~priority:1.0 v);
  for i = 1 to 40 do
    Pqueue.add q ~priority:(float_of_int (i + 1)) (Bytes.make 8 'y')
  done;
  (match Pqueue.pop q with Some (1.0, _) -> incr popped | _ -> ());
  Gc.full_major ();
  check_int "popped the tracked value" 1 !popped;
  check_bool "popped value collected" false (Weak.check w 0);
  check_int "rest still queued" 40 (Pqueue.length q)

(* Storage handover. Two queues with different value types alternate
   filling and draining, the first to drain alternating by round, so
   each adopts the storage the other handed on; round sizes vary, so
   adoption meets a spare both larger and smaller than the queue's last
   storage. Every drain must pop in the stable-sorted (priority, seq)
   order of a list model, and [clear] must leave a queue that refills
   in the same order. *)
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
      let qa : string Pqueue.t = Pqueue.create () and qb : float Pqueue.t = Pqueue.create () in
      let model ps =
        List.stable_sort (fun (p, _) (q, _) -> compare p q)
          (List.mapi (fun i p -> (float_of_int p, i)) ps)
      in
      let drain q value =
        let rec go acc =
          match Pqueue.pop q with
          | None -> List.rev acc
          | Some (p, v) -> go ((p, value v) :: acc)
        in
        go []
      in
      let fill q value ps =
        List.iteri (fun i p -> Pqueue.add q ~priority:(float_of_int p) (value i)) ps
      in
      List.for_all
        (fun (pa, pb, clear_b) ->
          fill qa string_of_int pa;
          fill qb float_of_int pb;
          let a, b =
            if clear_b then begin
              (* Abandon b's entries, then refill it. *)
              Pqueue.clear qb;
              fill qb float_of_int pb;
              let b = drain qb int_of_float in
              (drain qa int_of_string, b)
            end
            else
              let a = drain qa int_of_string in
              (a, drain qb int_of_float)
          in
          a = model pa && b = model pb && Pqueue.is_empty qa && Pqueue.is_empty qb)
        rounds)

(* The storage a drained queue hands on holds none of its values: a
   queue that adopts it does not keep them reachable. *)
let pqueue_handover_no_retention () =
  let q = Pqueue.create () in
  let w = Weak.create 50 in
  for i = 0 to 49 do
    let v = Bytes.make 64 'x' in
    Weak.set w i (Some v);
    Pqueue.add q ~priority:(float_of_int (i mod 3)) v
  done;
  while not (Pqueue.is_empty q) do
    ignore (Pqueue.pop_value q)
  done;
  let adopter = Pqueue.create () in
  Pqueue.add adopter ~priority:0.0 (Bytes.make 8 'y');
  Gc.full_major ();
  for i = 0 to 49 do
    check_bool (Printf.sprintf "value %d collected" i) false (Weak.check w i)
  done;
  check_int "adopter holds its own value" 1 (Pqueue.length adopter)

(* A fresh queue refilled up to the size of the last one drained adopts
   its storage and allocates nothing. Priorities are boxed up front, as
   in the steady-state test. *)
let pqueue_refill_allocates_nothing () =
  let size = 1000 in
  let prios = List.init size (fun i -> float_of_int (i mod 13)) in
  let rec fill q = function
    | [] -> ()
    | p :: rest ->
      Pqueue.add q ~priority:p 7;
      fill q rest
  in
  let first = Pqueue.create () in
  fill first prios;
  while not (Pqueue.is_empty first) do
    ignore (Pqueue.pop_value first)
  done;
  let fresh = Pqueue.create () in
  let words = Pr_telemetry.Alloc.words (fun () -> fill fresh prios) in
  check_int "refilled" size (Pqueue.length fresh);
  Alcotest.(check (float 0.0)) "refill allocates nothing" 0.0 words

(* --- Pqueue.Keyed --------------------------------------------------- *)

let keyed_basic () =
  let q = Pqueue.Keyed.create ~capacity:8 in
  check_bool "empty" true (Pqueue.Keyed.is_empty q);
  check_bool "insert 3" true (Pqueue.Keyed.insert_or_decrease q 3 ~priority:30);
  check_bool "insert 1" true (Pqueue.Keyed.insert_or_decrease q 1 ~priority:10);
  check_bool "insert 5" true (Pqueue.Keyed.insert_or_decrease q 5 ~priority:20);
  check_int "length" 3 (Pqueue.Keyed.length q);
  check_bool "mem 3" true (Pqueue.Keyed.mem q 3);
  check_bool "not mem 0" false (Pqueue.Keyed.mem q 0);
  Alcotest.(check (option int)) "priority of 3" (Some 30) (Pqueue.Keyed.priority q 3);
  check_bool "worse priority ignored" false (Pqueue.Keyed.insert_or_decrease q 3 ~priority:40);
  Alcotest.(check (option int)) "still 30" (Some 30) (Pqueue.Keyed.priority q 3);
  check_bool "decrease 3" true (Pqueue.Keyed.insert_or_decrease q 3 ~priority:5);
  Alcotest.(check (option (pair int int))) "pop 3 first after decrease" (Some (5, 3))
    (Pqueue.Keyed.pop q);
  check_bool "popped not mem" false (Pqueue.Keyed.mem q 3);
  Alcotest.(check (option (pair int int))) "pop 1" (Some (10, 1)) (Pqueue.Keyed.pop q);
  Alcotest.(check (option (pair int int))) "pop 5" (Some (20, 5)) (Pqueue.Keyed.pop q);
  Alcotest.(check (option (pair int int))) "pop none" None (Pqueue.Keyed.pop q)

let keyed_key_ties () =
  let q = Pqueue.Keyed.create ~capacity:8 in
  List.iter
    (fun k -> ignore (Pqueue.Keyed.insert_or_decrease q k ~priority:7))
    [ 6; 2; 4; 0 ];
  let popped = ref [] in
  let rec drain () =
    match Pqueue.Keyed.pop q with
    | None -> ()
    | Some (_, k) ->
      popped := k :: !popped;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "equal priorities pop by key" [ 0; 2; 4; 6 ] (List.rev !popped)

(* The decrease-key analog of the vacated-slot path: popping moves the
   last heap entry into the root, so the pos bookkeeping must stay
   exact through pop/reinsert cycles that reuse freed keys. *)
let keyed_vacated_reuse () =
  let q = Pqueue.Keyed.create ~capacity:4 in
  for k = 0 to 3 do
    ignore (Pqueue.Keyed.insert_or_decrease q k ~priority:(10 + k))
  done;
  Alcotest.(check (option (pair int int))) "pop 0" (Some (10, 0)) (Pqueue.Keyed.pop q);
  (* key 0 reinserted after its slot was vacated and backfilled *)
  check_bool "reinsert popped key" true (Pqueue.Keyed.insert_or_decrease q 0 ~priority:25);
  check_bool "decrease reinserted" true (Pqueue.Keyed.insert_or_decrease q 0 ~priority:9);
  Alcotest.(check (option (pair int int))) "reinserted pops first" (Some (9, 0))
    (Pqueue.Keyed.pop q);
  Pqueue.Keyed.clear q;
  check_bool "cleared" true (Pqueue.Keyed.is_empty q);
  check_bool "cleared keys absent" false (Pqueue.Keyed.mem q 2);
  check_bool "usable after clear" true (Pqueue.Keyed.insert_or_decrease q 2 ~priority:1);
  Alcotest.(check (option (pair int int))) "pop after clear" (Some (1, 2)) (Pqueue.Keyed.pop q)

(* Model check: a sequence of insert_or_decrease operations against a
   reference map, then drain — pops must come out exactly in
   (priority, key) order of the final model state. *)
let keyed_vs_model =
  QCheck.Test.make ~name:"keyed heap drains in (priority, key) order of the model"
    ~count:300
    QCheck.(list (pair (int_range 0 31) (int_range 0 50)))
    (fun ops ->
      let q = Pqueue.Keyed.create ~capacity:32 in
      let model = Hashtbl.create 32 in
      List.iter
        (fun (k, p) ->
          let changed = Pqueue.Keyed.insert_or_decrease q k ~priority:p in
          (match Hashtbl.find_opt model k with
          | None ->
            if not changed then raise Exit;
            Hashtbl.replace model k p
          | Some old ->
            if changed <> (p < old) then raise Exit;
            if p < old then Hashtbl.replace model k p))
        ops;
      let expect =
        Hashtbl.fold (fun k p acc -> (p, k) :: acc) model [] |> List.sort compare
      in
      let rec drain acc =
        match Pqueue.Keyed.pop q with None -> List.rev acc | Some pk -> drain (pk :: acc)
      in
      drain [] = expect)

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
  Alcotest.(check (list int)) "elements" [ 0; 99 ] (Bitset.elements b)

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
      Bitset.elements u = List.sort_uniq compare (sa @ sb)
      && Bitset.elements i = List.filter (fun x -> List.mem x sb) sa
      && Bitset.disjoint a b = (Bitset.elements i = [])
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
        @ qsuite [ pqueue_sorted_output; pqueue_vs_model; pqueue_handover_vs_model ] );
      ( "pqueue-keyed",
        [
          Alcotest.test_case "basic + decrease-key" `Quick keyed_basic;
          Alcotest.test_case "key ties" `Quick keyed_key_ties;
          Alcotest.test_case "vacated slot reuse + clear" `Quick keyed_vacated_reuse;
        ]
        @ qsuite [ keyed_vs_model ] );
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
