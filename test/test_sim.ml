(* Unit tests for the pr_sim discrete-event substrate. *)

module Rng = Pr_util.Rng
module Graph = Pr_topology.Graph
module Link = Pr_topology.Link
module Figure1 = Pr_topology.Figure1
module Generator = Pr_topology.Generator
module Engine = Pr_sim.Engine
module Metrics = Pr_sim.Metrics
module Network = Pr_sim.Network

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_float = Alcotest.(check (float 1e-9))

(* --- Engine -------------------------------------------------------- *)

let engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log);
  check_int "pending" 3 (Engine.pending e);
  Alcotest.(check bool) "drained" true (Engine.run e = Engine.Drained);
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3.0 (Engine.now e)

let engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter
    (fun name -> Engine.schedule e ~delay:1.0 (fun () -> log := name :: !log))
    [ "x"; "y"; "z" ];
  ignore (Engine.run e);
  Alcotest.(check (list string)) "insertion order at equal time" [ "x"; "y"; "z" ]
    (List.rev !log)

let engine_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:1.0 (fun () ->
      incr fired;
      Engine.schedule e ~delay:1.0 (fun () -> incr fired));
  ignore (Engine.run e);
  check_int "nested event fired" 2 !fired;
  check_float "time accumulated" 2.0 (Engine.now e)

let engine_event_budget () =
  let e = Engine.create () in
  (* A self-perpetuating event chain must hit the budget, not hang. *)
  let rec renew () = Engine.schedule e ~delay:1.0 renew in
  renew ();
  Alcotest.(check bool) "budget stops runaway" true
    (Engine.run ~max_events:100 e = Engine.Reached_limit);
  check_int "executed counted" 100 (Engine.events_executed e)

let engine_bad_schedule () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule e ~delay:(-1.0) (fun () -> ()));
  Alcotest.check_raises "negative channel"
    (Invalid_argument "Pqueue.Calls.add_call_on: negative channel") (fun () ->
      Engine.schedule_call_on e ~chan:(-1) ~delay:1.0 ignore ());
  check_int "nothing queued" 0 (Engine.pending e)

(* NaN compares false both ways, so a plain [delay < 0.0] guard let it
   through into the queue, where it has no place in the time order. *)
let engine_rejects_nan () =
  let e = Engine.create () in
  Alcotest.check_raises "NaN delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule e ~delay:Float.nan (fun () -> ()));
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> Engine.schedule_at e ~time:Float.nan (fun () -> ()));
  check_int "nothing queued" 0 (Engine.pending e)

let engine_schedule_at () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e ~time:5.0 (fun () ->
      log := Engine.now e :: !log;
      (* Absolute times are absolute, not offsets from the clock. *)
      Engine.schedule_at e ~time:7.0 (fun () -> log := Engine.now e :: !log));
  Engine.schedule e ~delay:2.0 (fun () -> log := Engine.now e :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list (float 1e-9))) "fired at their times" [ 2.0; 5.0; 7.0 ]
    (List.rev !log);
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> Engine.schedule_at e ~time:6.0 (fun () -> ()))

let engine_resume_after_budget () =
  (* A run cut by the budget leaves the rest queued; the next run
     picks up where it stopped and the lifetime count accumulates. *)
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 150 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired)
  done;
  check_bool "cut" true (Engine.run ~max_events:100 e = Engine.Reached_limit);
  check_int "fired before the cut" 100 !fired;
  check_int "left pending" 50 (Engine.pending e);
  check_float "clock at the cut" 100.0 (Engine.now e);
  check_bool "drains on resume" true (Engine.run e = Engine.Drained);
  check_int "all fired" 150 !fired;
  check_int "lifetime count" 150 (Engine.events_executed e);
  check_float "clock at the end" 150.0 (Engine.now e)

let engine_observer () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.set_observer e (Some (fun ~time ~pending -> seen := (time, pending) :: !seen));
  Engine.schedule e ~delay:1.0 (fun () -> Engine.schedule e ~delay:1.0 (fun () -> ()));
  Engine.schedule e ~delay:3.0 (fun () -> ());
  ignore (Engine.run e);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "one call per event, after it ran" [ (1.0, 2); (2.0, 1); (3.0, 0) ] (List.rev !seen);
  (* Removing the observer stops the calls; the queue still drains. *)
  Engine.set_observer e None;
  Engine.schedule e ~delay:1.0 (fun () -> ());
  check_bool "drained" true (Engine.run e = Engine.Drained);
  check_int "no further calls" 3 (List.length !seen);
  check_int "observer adds no events" 4 (Engine.events_executed e)

(* A fan-out is one queue cell but one event per call: the budget,
   [pending], [events_executed] and the observer count its calls, a
   budget can stop a run between two of them, and an event scheduled
   by one of its calls, even at no delay, runs after the last. *)
let engine_budget_inside_fanout () =
  let e = Engine.create () and log = ref [] and seen = ref [] in
  Engine.set_observer e (Some (fun ~time ~pending -> seen := (time, pending) :: !seen));
  let copy i tag =
    log := Printf.sprintf "%s%d" tag i :: !log;
    if i = 1 then Engine.schedule e ~delay:0.0 (fun () -> log := "after" :: !log)
  in
  Engine.schedule e ~delay:2.0 (fun () -> log := "later" :: !log);
  Engine.schedule_fanout e ~delay:1.0 copy "m" ~mask:0b10110;
  check_int "pending counts calls" 4 (Engine.pending e);
  check_int "cells count entries" 2 (Engine.queue_cells e);
  check_bool "budget stops inside the fan-out" true
    (Engine.run ~max_events:2 e = Engine.Reached_limit);
  Alcotest.(check (list string)) "lowest bits first" [ "m1"; "m2" ] (List.rev !log);
  check_int "executed" 2 (Engine.events_executed e);
  check_int "one call and two events left" 3 (Engine.pending e);
  check_int "the fan-out keeps its cell" 3 (Engine.queue_cells e);
  check_bool "drained" true (Engine.run e = Engine.Drained);
  Alcotest.(check (list string))
    "the rest, then what its calls scheduled" [ "m1"; "m2"; "m4"; "after"; "later" ]
    (List.rev !log);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "observer after every call"
    [ (1.0, 4); (1.0, 3); (1.0, 2); (1.0, 1); (2.0, 0) ]
    (List.rev !seen);
  check_int "nothing left" 0 (Engine.queue_cells e);
  Alcotest.check_raises "empty mask" (Invalid_argument "Pqueue.Calls.add_fanout_after: empty mask")
    (fun () -> Engine.schedule_fanout e ~delay:1.0 copy "m" ~mask:0);
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule_fanout: negative delay")
    (fun () -> Engine.schedule_fanout e ~delay:(-1.0) copy "m" ~mask:1)

(* Random event programs against a (time, seq) model. Event [i] (ids
   follow scheduling order) schedules the children listed in
   [program.(i)], each at a delay drawn from {0, 0.25, 1, a random
   fraction} either relative ([schedule]), absolute ([schedule_at]
   now + d), as a closure-free call of one shared handler on the
   child's id ([schedule_call]), or as a fan-out of one to five calls
   on random bits of a mask ([schedule_fanout]), which the model takes
   for as many children scheduled one after another. Integer times
   give long equal-time runs, fractional ones near-singletons, so the
   queue's run path and its plain heap path interleave, and calls
   share runs with closures and fan-outs. The engine runs with a
   budget cut part-way, possibly inside a fan-out, and resumes; the
   executed ids must be exactly the model's order. *)
type child = Rel of float | Abs of float | Call of float | Fan of float * int

(* The children a scheduled child stands for: one per bit of a fan-out. *)
let copies = function
  | Rel _ | Abs _ | Call _ -> 1
  | Fan (_, mask) ->
    let n = ref 0 in
    for i = 0 to 61 do
      if mask land (1 lsl i) <> 0 then incr n
    done;
    !n

let child_gen =
  QCheck.Gen.(
    let delay =
      oneof
        [
          return 0.0;
          return 0.25;
          return 1.0;
          map (fun k -> float_of_int k /. 97.0) (int_range 1 300);
        ]
    in
    let mask =
      map
        (List.fold_left (fun m i -> m lor (1 lsl i)) 0)
        (list_size (int_range 1 5) (oneof [ int_bound 7; int_bound 61; return 61 ]))
    in
    map3
      (fun k d m -> match k with 0 -> Rel d | 1 -> Abs d | 2 -> Call d | _ -> Fan (d, m))
      (int_bound 3) delay mask)

let engine_program_matches_model =
  QCheck.Test.make ~name:"engine executes random programs in (time, seq) order" ~count:200
    (QCheck.make
       ~print:(fun (roots, program, cut) ->
         Printf.sprintf "roots %d, cut %d, %d events with children" roots cut
           (Array.length program))
       QCheck.Gen.(
         triple (int_range 1 4)
           (map Array.of_list (list_size (int_range 0 300) (list_size (int_range 0 3) child_gen)))
           (int_range 0 400)))
    (fun (roots, program, cut) ->
      let children i = if i < Array.length program then program.(i) else [] in
      (* The engine under test. *)
      let e = Engine.create () in
      let executed = ref [] and next_id = ref 0 in
      let fresh () =
        let id = !next_id in
        incr next_id;
        id
      in
      let rec fire id =
        executed := id :: !executed;
        List.iter
          (function
            | Rel d ->
              let child = fresh () in
              Engine.schedule e ~delay:d (fun () -> fire child)
            | Abs d ->
              let child = fresh () in
              Engine.schedule_at e ~time:(Engine.now e +. d) (fun () -> fire child)
            | Call d -> Engine.schedule_call e ~delay:d fire (fresh ())
            | Fan (d, mask) ->
              (* Bit [i] fires [ids.(i)]; ids follow the bits upward. *)
              let ids = Array.make 62 (-1) in
              for i = 0 to 61 do
                if mask land (1 lsl i) <> 0 then ids.(i) <- fresh ()
              done;
              Engine.schedule_fanout e ~delay:d (fun i ids -> fire ids.(i)) ids ~mask)
          (children id)
      in
      for i = 1 to roots do
        let id = fresh () in
        if i mod 2 = 0 then Engine.schedule_call e ~delay:0.0 fire id
        else Engine.schedule e ~delay:0.0 (fun () -> fire id)
      done;
      let first = Engine.run ~max_events:cut e in
      let cut_ok = first = Engine.Drained || Engine.events_executed e = cut in
      let rest = Engine.run e in
      (* The model: (time, id) pairs popped by (time, id); ids are the
         scheduling order, so they double as seqs. *)
      let pending = ref (List.init roots (fun id -> (0.0, id))) in
      let next = ref roots and order = ref [] in
      let rec drain () =
        match !pending with
        | [] -> ()
        | p0 :: ps ->
          let now, id =
            List.fold_left
              (fun ((bt, bi) as b) ((t, i) as c) -> if t < bt || (t = bt && i < bi) then c else b)
              p0 ps
          in
          pending := List.filter (fun (_, i) -> i <> id) !pending;
          order := id :: !order;
          List.iter
            (fun ((Rel d | Abs d | Call d | Fan (d, _)) as c) ->
              for _ = 1 to copies c do
                pending := (now +. d, !next) :: !pending;
                incr next
              done)
            (children id);
          drain ()
      in
      drain ();
      cut_ok && rest = Engine.Drained && !executed = !order)

(* [schedule_call] hands the handler its payload unchanged, whatever
   the payload's representation (a boxed float, an immediate, a
   block), and rejects what [schedule] rejects. *)
let engine_schedule_call_payloads () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_call e ~delay:2.0
    (fun (x : float) -> log := Printf.sprintf "%g" x :: !log)
    2.5;
  Engine.schedule_call e ~delay:1.0 (fun (s : string) -> log := s :: !log) "one";
  Engine.schedule_call e ~delay:2.0 (fun n -> log := string_of_int n :: !log) 7;
  Engine.schedule e ~delay:2.0 (fun () -> log := "closure" :: !log);
  Engine.schedule_call e ~delay:3.0 (fun (a, b) -> log := (a ^ b) :: !log) ("pa", "ir");
  check_int "pending" 5 (Engine.pending e);
  check_bool "drained" true (Engine.run e = Engine.Drained);
  Alcotest.(check (list string))
    "time order, FIFO ties across calls and closures"
    [ "one"; "2.5"; "7"; "closure"; "pair" ] (List.rev !log);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_call: negative delay") (fun () ->
      Engine.schedule_call e ~delay:(-1.0) ignore ());
  Alcotest.check_raises "NaN delay"
    (Invalid_argument "Engine.schedule_call: negative delay") (fun () ->
      Engine.schedule_call e ~delay:Float.nan ignore ())

let engine_empty_run () =
  let e = Engine.create () in
  check_bool "nothing to do" true (Engine.run e = Engine.Drained);
  check_int "nothing executed" 0 (Engine.events_executed e);
  check_float "clock untouched" 0.0 (Engine.now e);
  Engine.schedule e ~delay:1.0 (fun () -> ());
  check_bool "zero budget stops at once" true
    (Engine.run ~max_events:0 e = Engine.Reached_limit);
  check_int "nothing executed on a zero budget" 0 (Engine.events_executed e);
  check_int "still pending" 1 (Engine.pending e)

(* --- Metrics ------------------------------------------------------- *)

(* Metrics' per-AD column [name] ("bytes", "losses", ...), read from
   its JSON document. *)
let json_column m name =
  let open Pr_util.Json in
  match Option.map to_list (member name (Metrics.to_json m)) with
  | Some (Ok l) -> List.map (fun v -> Result.get_ok (to_int v)) l
  | _ -> Alcotest.fail ("no metrics column " ^ name)

let metrics_counters () =
  let m = Metrics.create ~n:3 in
  Metrics.record_sends m 0 ~copies:1 ~bytes:100;
  Metrics.record_sends m 0 ~copies:1 ~bytes:50;
  Metrics.record_sends m 2 ~copies:1 ~bytes:10;
  Metrics.record_computation m 1 ~work:5 ();
  check_int "messages" 3 (Metrics.messages m);
  check_int "bytes" 160 (Metrics.bytes m);
  check_int "computations" 5 (Metrics.computations m);
  check_int "per-node messages" 2 (Metrics.messages_of m 0);
  check_int "per-node bytes" 10 (List.nth (json_column m "bytes") 2);
  check_int "per-node computations" 5 (Metrics.computations_of m 1)

(* One recording operation on a 4-AD recorder: a send of [v] bytes,
   [v] units of computation, or one loss, at AD [ad mod 4]. *)
let metrics_op =
  QCheck.(
    map
      (fun (which, ad, v) ->
        let ad = ad mod 4 and v = 1 + (v mod 50) in
        match which mod 3 with
        | 0 -> `Send (ad, v)
        | 1 -> `Compute (ad, v)
        | _ -> `Lose ad)
      (triple small_nat small_nat small_nat))

let apply_op m = function
  | `Send (ad, bytes) -> Metrics.record_sends m ad ~copies:1 ~bytes
  | `Compute (ad, work) -> Metrics.record_computation m ad ~work ()
  | `Lose ad -> Metrics.record_loss m ad

(* Each total is its column's sum, and each column is what a plain
   per-AD model of the same operations counts. *)
let metrics_totals_sum_columns =
  QCheck.Test.make ~name:"totals are the per-AD columns' sums" ~count:100
    QCheck.(list metrics_op)
    (fun ops ->
      let m = Metrics.create ~n:4 in
      List.iter (apply_op m) ops;
      let model f = List.init 4 (fun ad -> List.fold_left (fun acc op -> acc + f ad op) 0 ops) in
      let msgs = model (fun ad -> function `Send (a, _) when a = ad -> 1 | _ -> 0)
      and bytes = model (fun ad -> function `Send (a, b) when a = ad -> b | _ -> 0)
      and comps = model (fun ad -> function `Compute (a, w) when a = ad -> w | _ -> 0)
      and lost = model (fun ad -> function `Lose a when a = ad -> 1 | _ -> 0) in
      let column f = List.init 4 (f m) in
      let total = List.fold_left ( + ) 0 in
      column Metrics.messages_of = msgs
      && json_column m "bytes" = bytes
      && column Metrics.computations_of = comps
      && json_column m "losses" = lost
      && Metrics.messages m = total msgs
      && Metrics.bytes m = total bytes
      && Metrics.computations m = total comps
      && Metrics.msgs_lost m = total lost)

let sample_metrics () =
  let m = Metrics.create ~n:3 in
  Metrics.record_sends m 0 ~copies:1 ~bytes:100;
  Metrics.record_sends m 2 ~copies:1 ~bytes:10;
  Metrics.record_computation m 1 ~work:5 ();
  Metrics.record_loss m 2;
  m

(* The JSON document holds the four columns, in this key order, and
   nothing else. *)
let metrics_to_json () =
  let open Pr_util.Json in
  let ints l = List (List.map (fun i -> Int i) l) in
  Alcotest.(check string)
    "document"
    (to_string
       (Obj
          [
            ("n", Int 3);
            ("messages", ints [ 1; 0; 1 ]);
            ("bytes", ints [ 100; 0; 10 ]);
            ("computations", ints [ 0; 5; 0 ]);
            ("losses", ints [ 0; 0; 1 ]);
          ]))
    (to_string (Metrics.to_json (sample_metrics ())))

let metrics_load_series () =
  let series = Metrics.load_series (sample_metrics ()) in
  Alcotest.(check (list string))
    "series names" [ "messages"; "bytes"; "computations" ] (List.map fst series);
  Alcotest.(check (list (array (float 0.0))))
    "per-AD vectors"
    [ [| 1.; 0.; 1. |]; [| 100.; 0.; 10. |]; [| 0.; 5.; 0. |] ]
    (List.map snd series)

(* --- Network ------------------------------------------------------- *)

let make_net () =
  let g = Figure1.graph () in
  let e = Engine.create () in
  let m = Metrics.create ~n:(Graph.n g) in
  (Network.create e g m, e, m, g)

let network_delivery () =
  let net, e, m, _ = make_net () in
  let received = ref [] in
  Network.set_message_handler net (fun ~at ~from msg -> received := (at, from, msg) :: !received);
  Network.send net ~src:0 ~dst:1 ~bytes:42 "hello";
  check_int "charged on send" 1 (Metrics.messages m);
  check_int "nothing delivered yet" 0 (List.length !received);
  ignore (Engine.run e);
  Alcotest.(check (list (triple int int string))) "delivered" [ (1, 0, "hello") ] !received

let network_no_link_drop () =
  let net, e, m, _ = make_net () in
  let received = ref 0 in
  Network.set_message_handler net (fun ~at:_ ~from:_ _ -> incr received);
  (* 7 and 8 are not adjacent. *)
  Network.send net ~src:7 ~dst:8 ~bytes:10 "x";
  ignore (Engine.run e);
  check_int "not delivered" 0 !received;
  check_int "not charged either" 0 (Metrics.messages m)

let network_down_link () =
  let net, e, m, g = make_net () in
  let received = ref 0 in
  let link_events = ref [] in
  Network.set_message_handler net (fun ~at:_ ~from:_ _ -> incr received);
  Network.set_link_handler net (fun ~at ~link ~up -> link_events := (at, link, up) :: !link_events);
  let lid = Option.get (Graph.find_link g 0 1) in
  Network.set_link_state net lid ~up:false;
  check_int "both endpoints notified" 2 (List.length !link_events);
  check_bool "reported down" true (List.for_all (fun (_, _, up) -> not up) !link_events);
  check_bool "link reported down" false (Network.link_is_up net lid);
  check_bool "not adjacent anymore" false (Network.adjacent_and_up net 0 1);
  Network.send net ~src:0 ~dst:1 ~bytes:10 "x";
  ignore (Engine.run e);
  check_int "dropped" 0 !received;
  check_int "no send charged" 0 (Metrics.messages m);
  (* Restore and retry. *)
  Network.set_link_state net lid ~up:true;
  Network.send net ~src:0 ~dst:1 ~bytes:10 "x";
  ignore (Engine.run e);
  check_int "delivered after restore" 1 !received

let network_in_flight_loss () =
  let net, e, _, g = make_net () in
  let received = ref 0 in
  Network.set_message_handler net (fun ~at:_ ~from:_ _ -> incr received);
  let lid = Option.get (Graph.find_link g 0 1) in
  Network.send net ~src:0 ~dst:1 ~bytes:10 "x";
  (* The message is in flight; the link fails before delivery. *)
  Network.set_link_state net lid ~up:false;
  ignore (Engine.run e);
  check_int "in-flight message lost" 0 !received

let network_broadcast () =
  let net, e, m, g = make_net () in
  let received = ref [] in
  Network.set_message_handler net (fun ~at ~from:_ _ -> received := at :: !received);
  (* The best-connected AD, so [except] and [filter] leave some. *)
  let src = ref 0 in
  for ad = 1 to Graph.n g - 1 do
    if Graph.degree g ad > Graph.degree g !src then src := ad
  done;
  let src = !src in
  let nbrs = Graph.neighbor_ids g src in
  Network.broadcast net ~src ~except:(-1) ~filter:(fun _ -> true) ~bytes:10 "x";
  check_int "one send per neighbor" (List.length nbrs) (Metrics.messages m);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "each neighbor once, in order" nbrs (List.rev !received);
  received := [];
  let except = List.hd nbrs and skipped = List.nth nbrs (List.length nbrs - 1) in
  Network.broadcast net ~src ~except ~filter:(fun v -> v <> skipped) ~bytes:10 "x";
  ignore (Engine.run e);
  Alcotest.(check (list int)) "except and filter honoured"
    (List.filter (fun v -> v <> except && v <> skipped) nbrs)
    (List.rev !received);
  (* A crashed AD broadcasts nothing, charges nothing. *)
  received := [];
  let before = Metrics.messages m in
  Network.set_node_state net src ~up:false;
  Network.broadcast net ~src ~except:(-1) ~filter:(fun _ -> true) ~bytes:10 "x";
  ignore (Engine.run e);
  check_int "crashed sender silent" 0 (List.length !received);
  check_int "crashed sender uncharged" before (Metrics.messages m)

(* [broadcast] walks the sender's unique-neighbor row; the loop it
   replaced searched each up neighbor's slot again through [send]. On
   random multigraphs (parallel links of different cost and delay),
   random down links, crashed ADs and random [except] and [filter],
   with an interposer that keeps, duplicates, delays or drops copies,
   both must make the same sends on the same slots and links, deliver
   the same messages at the same times in the same order, and leave
   equal per-AD metrics. *)
let reference_broadcast net ~src ~except ~filter ~bytes msg =
  Network.iter_up_neighbors net src ~f:(fun nbr ->
      if nbr <> except && filter nbr then Network.send net ~src ~dst:nbr ~bytes msg)

let random_multigraph rng =
  let n = 2 + Rng.int rng 9 in
  let ads =
    Array.init n (fun id ->
        Pr_topology.Ad.make ~id ~name:(Printf.sprintf "N%d" id) ~klass:Pr_topology.Ad.Hybrid
          ~level:Pr_topology.Ad.Metro)
  in
  let delays = [| 0.25; 0.5; 1.0; 1.75 |] in
  let links =
    Array.init (Rng.int rng (3 * n)) (fun id ->
        let a = Rng.int rng n in
        let b = (a + 1 + Rng.int rng (n - 1)) mod n in
        Link.make ~id ~a ~b ~cost:(1 + Rng.int rng 3)
          ~delay:delays.(Rng.int rng (Array.length delays))
          Link.Lateral)
  in
  Graph.create ads links

let broadcast_matches_reference =
  QCheck.Test.make ~name:"slot fan-out = per-neighbor send loop" ~count:300 QCheck.small_nat
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_multigraph rng in
      let n = Graph.n g in
      let down = Array.init (Graph.num_links g) (fun _ -> Rng.int rng 4 = 0) in
      let crashed = Array.init n (fun _ -> Rng.int rng 5 = 0) in
      let rounds =
        List.init (1 + Rng.int rng 4) (fun _ ->
            let src = Rng.int rng n in
            let except = if Rng.bool rng then Rng.int rng n else -1 in
            let keep = Array.init n (fun _ -> Rng.int rng 4 <> 0) in
            (src, except, keep))
      in
      let run fan_out =
        let e = Engine.create () in
        let m = Metrics.create ~n in
        let net = Network.create e g m in
        Array.iteri (fun lid d -> if d then Network.set_link_state net lid ~up:false) down;
        Array.iteri (fun ad c -> if c then Network.set_node_state net ad ~up:false) crashed;
        let sends = ref [] and deliveries = ref [] in
        Network.set_delivery_interposer net ~copies:2
          (Some
             (fun ~src ~dst ~slot ~link ~extras ->
               sends := (src, dst, slot, link) :: !sends;
               let copy i x = Float.Array.set extras i x in
               match (dst + link) mod 4 with
               | 0 -> 0
               | 1 ->
                 copy 0 0.0;
                 copy 1 0.5;
                 2
               | 2 ->
                 copy 0 0.25;
                 1
               | _ ->
                 copy 0 0.0;
                 1));
        Network.set_message_handler net (fun ~at ~from msg ->
            deliveries := (at, from, msg, Engine.now e) :: !deliveries);
        List.iteri
          (fun i (src, except, keep) ->
            let filter v = keep.(v) in
            if fan_out then
              Network.broadcast net ~src ~except ~filter ~bytes:(10 + i) i
            else reference_broadcast net ~src ~except ~filter ~bytes:(10 + i) i;
            ignore (Engine.run e))
          rounds;
        (List.rev !sends, List.rev !deliveries, Pr_util.Json.to_string (Metrics.to_json m))
      in
      run true = run false)

(* A broadcast from an AD whose row holds one link per neighbor, all of
   one delay, queues one fan-out per 62 slots; an interposer that keeps
   every copy as it is (one copy of extra 0.0) sends the same broadcast
   copy by copy, on channel runs. On random networks (parallel links,
   rows of one delay or of mixed ones, a hub whose row needs two
   fan-outs), with floods that re-broadcast on delivery, link and node
   flaps timed between sends and arrivals, and a budget cut that may
   fall inside a fan-out, both must log the same sends, deliveries and
   losses, each with its (src, dst) pair, at the same times, run the
   same events, show the observer the same (time, pending) stream and
   leave equal per-AD metrics. *)
type flood_action = Flood of int * int | Flip_link of int | Flip_node of int

let flood_graph rng =
  let wide = Rng.int rng 4 = 0 in
  let n = if wide then 64 + Rng.int rng 8 else 2 + Rng.int rng 9 in
  let ads =
    Array.init n (fun id ->
        Pr_topology.Ad.make ~id ~name:(Printf.sprintf "N%d" id) ~klass:Pr_topology.Ad.Hybrid
          ~level:Pr_topology.Ad.Metro)
  in
  let uniform = Rng.bool rng in
  let delays = [| 0.25; 0.5; 1.0; 1.75 |] in
  (* A wide graph's hub 0 neighbors every other AD over one link each. *)
  let hub = if wide then List.init (n - 1) (fun i -> (0, i + 1)) else [] in
  let lo = if wide then 1 else 0 in
  let pairs =
    List.init (Rng.int rng (3 * n)) (fun _ ->
        let a = lo + Rng.int rng (n - lo) in
        (a, lo + ((a - lo + 1 + Rng.int rng (n - lo - 1)) mod (n - lo))))
  in
  let links =
    List.mapi
      (fun id (a, b) ->
        Link.make ~id ~a ~b ~cost:(1 + Rng.int rng 3)
          ~delay:(if uniform then 1.0 else delays.(Rng.int rng (Array.length delays)))
          Link.Lateral)
      (hub @ pairs)
  in
  Graph.create ads (Array.of_list links)

let fanout_matches_per_copy =
  QCheck.Test.make ~name:"fan-out = copy-by-copy broadcast" ~count:300 QCheck.small_nat
    (fun seed ->
      let rng = Rng.create seed in
      let g = flood_graph rng in
      let n = Graph.n g and links = Graph.num_links g in
      let keep = Array.init n (fun _ -> Rng.int rng 6 <> 0) in
      let script =
        List.init (1 + Rng.int rng 12) (fun _ ->
            let at = float_of_int (Rng.int rng 40) /. 8.0 in
            let action =
              match Rng.int rng 4 with
              | 0 when links > 0 -> Flip_link (Rng.int rng links)
              | 1 -> Flip_node (Rng.int rng n)
              | _ -> Flood (Rng.int rng n, Rng.int rng 3)
            in
            (at, action))
      in
      let cut = Rng.int rng 400 in
      let run per_copy =
        let e = Engine.create () in
        let m = Metrics.create ~n in
        let net = Network.create e g m in
        if per_copy then
          Network.set_delivery_interposer net ~copies:1
            (Some
               (fun ~src:_ ~dst:_ ~slot:_ ~link:_ ~extras ->
                 Float.Array.set extras 0 0.0;
                 1));
        let log = ref [] and seen = ref [] in
        Logs.set_reporter
          {
            Logs.report =
              (fun _ _ ~over k msgf ->
                msgf (fun ?header:_ ?tags:_ fmt ->
                    Format.kasprintf
                      (fun line ->
                        log := Printf.sprintf "%h %s" (Engine.now e) line :: !log;
                        over ();
                        k ())
                      fmt));
          };
        let filter v = keep.(v) in
        Network.set_message_handler net (fun ~at ~from ttl ->
            log := Printf.sprintf "%h deliver %d -> %d ttl %d" (Engine.now e) from at ttl :: !log;
            if ttl > 0 then Network.broadcast net ~src:at ~except:from ~filter ~bytes:8 (ttl - 1));
        Engine.set_observer e (Some (fun ~time ~pending -> seen := (time, pending) :: !seen));
        List.iter
          (fun (at, action) ->
            Engine.schedule_at e ~time:at (fun () ->
                match action with
                | Flood (src, ttl) ->
                  Network.broadcast net ~src ~except:(-1) ~filter ~bytes:(10 + ttl) ttl
                | Flip_link lid ->
                  Network.set_link_state net lid ~up:(not (Network.link_is_up net lid))
                | Flip_node ad ->
                  Network.set_node_state net ad ~up:(not (Network.node_is_up net ad))))
          script;
        let first = Engine.run ~max_events:cut e in
        let at_cut = (Engine.events_executed e, Engine.pending e) in
        let last = Engine.run e in
        ( (first, at_cut, last, Engine.events_executed e),
          List.rev !log,
          List.rev !seen,
          Pr_util.Json.to_string (Metrics.to_json m) )
      in
      let level = Logs.Src.level Network.log_src and reporter = Logs.reporter () in
      Logs.Src.set_level Network.log_src (Some Logs.Debug);
      Fun.protect
        ~finally:(fun () ->
          Logs.Src.set_level Network.log_src level;
          Logs.set_reporter reporter)
        (fun () -> run false = run true))

(* Charged work agrees per AD at the network layer. Random scripts of
   unicasts and floods land on random networks while link and node
   flips take copies in flight; a delivery at the end of a flood
   charges a reply it does not carry ({!Network.charge}). Each script
   runs traced on the fan-out path (no interposer) and on the
   per-copy path, where an interposer drops, duplicates and delays
   copies. For each AD, Metrics' messages must equal the net.send
   instants on its track and its losses the net.lost instants on its
   track (a loss is charged to the receiver), and the registry's
   net.sends and net.losses must gain the totals. *)
type charge_step = Unicast of int | Broadcast of int * int | Link_flip of int | Node_flip of int

let charges_agree_per_ad =
  QCheck.Test.make ~name:"charged work agrees per AD: metrics, trace, registry" ~count:300
    QCheck.small_nat
    (fun seed ->
      let rng = Rng.create seed in
      let g = flood_graph rng in
      let n = Graph.n g and links = Graph.num_links g in
      let script =
        List.init (1 + Rng.int rng 16) (fun _ ->
            let at = float_of_int (Rng.int rng 40) /. 8.0 in
            let step =
              match Rng.int rng 5 with
              | 0 when links > 0 -> Link_flip (Rng.int rng links)
              | 1 -> Node_flip (Rng.int rng n)
              | 2 -> Unicast (Rng.int rng n)
              | _ -> Broadcast (Rng.int rng n, Rng.int rng 3)
            in
            (at, step))
      in
      let module Reg = Pr_telemetry.Registry in
      let module Trace = Pr_obs.Trace in
      let count name = Reg.count (Reg.counter Reg.default name) in
      let run per_copy =
        let trace = Trace.create () in
        let e = Engine.create ~trace () in
        let m = Metrics.create ~n in
        let net = Network.create e g m in
        let sends = count "net.sends" and losses = count "net.losses" in
        if per_copy then begin
          let k = ref 0 in
          Network.set_delivery_interposer net ~copies:2
            (Some
               (fun ~src:_ ~dst ~slot:_ ~link ~extras ->
                 incr k;
                 match (dst + link + !k) mod 5 with
                 | 0 -> 0
                 | 1 ->
                   Float.Array.set extras 0 0.0;
                   Float.Array.set extras 1 0.5;
                   2
                 | 2 ->
                   Float.Array.set extras 0 0.25;
                   1
                 | _ ->
                   Float.Array.set extras 0 0.0;
                   1))
        end;
        Network.set_message_handler net (fun ~at ~from ttl ->
            if ttl > 0 then
              Network.broadcast net ~src:at ~except:from ~filter:(fun _ -> true) ~bytes:8
                (ttl - 1)
            else Network.charge net ~src:at ~dst:from ~bytes:4);
        List.iter
          (fun (at, step) ->
            Engine.schedule_at e ~time:at (fun () ->
                match step with
                | Unicast src ->
                  List.iter
                    (fun dst -> Network.send net ~src ~dst ~bytes:(12 + dst) 0)
                    (Graph.neighbor_ids g src)
                | Broadcast (src, ttl) ->
                  Network.broadcast net ~src ~except:(-1) ~filter:(fun _ -> true) ~bytes:10 ttl
                | Link_flip lid ->
                  Network.set_link_state net lid ~up:(not (Network.link_is_up net lid))
                | Node_flip ad ->
                  Network.set_node_state net ad ~up:(not (Network.node_is_up net ad))))
          script;
        ignore (Engine.run e);
        let sent = Array.make n 0 and lost = Array.make n 0 in
        (match Pr_util.Json.member "traceEvents" (Trace.to_json trace) with
        | Some (Pr_util.Json.List l) ->
          List.iter
            (fun ev ->
              match (Pr_util.Json.string_member "name" ev, Pr_util.Json.int_member "tid" ev) with
              | Ok "net.send", Ok tid -> sent.(tid) <- sent.(tid) + 1
              | Ok "net.lost", Ok tid -> lost.(tid) <- lost.(tid) + 1
              | _ -> ())
            l
        | _ -> QCheck.Test.fail_report "no traceEvents list");
        let path = if per_copy then "per-copy" else "fan-out" in
        if Trace.dropped trace > 0 then QCheck.Test.fail_reportf "%s: trace dropped events" path;
        let losses_of = Array.of_list (json_column m "losses") in
        for ad = 0 to n - 1 do
          if Metrics.messages_of m ad <> sent.(ad) || losses_of.(ad) <> lost.(ad) then
            QCheck.Test.fail_reportf "%s: AD %d: %d messages, %d net.send; %d losses, %d net.lost"
              path ad (Metrics.messages_of m ad) sent.(ad) losses_of.(ad) lost.(ad)
        done;
        if count "net.sends" - sends <> Metrics.messages m then
          QCheck.Test.fail_reportf "%s: net.sends gained %d for %d messages" path
            (count "net.sends" - sends) (Metrics.messages m);
        if count "net.losses" - losses <> Metrics.msgs_lost m then
          QCheck.Test.fail_reportf "%s: net.losses gained %d for %d losses" path
            (count "net.losses" - losses) (Metrics.msgs_lost m);
        true
      in
      run false && run true)

let network_up_neighbors () =
  let net, _, _, g = make_net () in
  Alcotest.(check (list int)) "all up initially" (Graph.neighbor_ids g 0)
    (Network.up_neighbors net 0);
  let lid = Option.get (Graph.find_link g 0 1) in
  Network.set_link_state net lid ~up:false;
  check_bool "1 no longer a neighbor" true (not (List.mem 1 (Network.up_neighbors net 0)))

let network_fail_random () =
  let net, _, _, g = make_net () in
  let rng = Rng.create 3 in
  match Network.fail_random_link net rng () with
  | None -> Alcotest.fail "expected a link to fail"
  | Some lid ->
    check_bool "failed" false (Network.link_is_up net lid);
    let count = ref 0 in
    Graph.fold_links g ~init:() ~f:(fun () l ->
        if not (Network.link_is_up net l.Link.id) then incr count);
    check_int "exactly one failed" 1 !count

let network_fail_random_kind () =
  let net, _, _, g = make_net () in
  let rng = Rng.create 3 in
  match Network.fail_random_link net rng ~kind:Link.Bypass () with
  | None -> Alcotest.fail "expected the bypass link"
  | Some lid ->
    check_bool "bypass kind" true ((Graph.link g lid).Link.kind = Link.Bypass)

(* --- Virtual gateways (paper footnote 8) ----------------------------- *)

(* "A virtual gateway may be comprised of multiple PGs in the interest
   of reliability and performance": modelled as parallel links between
   one AD pair. The network rides over individual PG failures without
   the connection disappearing. *)
let parallel_graph () =
  let module Ad = Pr_topology.Ad in
  let ads =
    Array.init 2 (fun id ->
        Ad.make ~id ~name:(Printf.sprintf "N%d" id) ~klass:Ad.Hybrid ~level:Ad.Metro)
  in
  let links =
    [|
      Link.make ~id:0 ~a:0 ~b:1 ~cost:1 Link.Lateral;
      Link.make ~id:1 ~a:0 ~b:1 ~cost:2 Link.Lateral;
    |]
  in
  Graph.create ads links

let virtual_gateway_failover () =
  let g = parallel_graph () in
  let e = Engine.create () in
  let m = Metrics.create ~n:2 in
  let net = Network.create e g m in
  let received = ref 0 in
  Network.set_message_handler net (fun ~at:_ ~from:_ _ -> incr received);
  (* Both PGs up: traffic rides the cheap one. *)
  Network.send net ~src:0 ~dst:1 ~bytes:10 "x";
  ignore (Engine.run e);
  check_int "delivered over cheap PG" 1 !received;
  (* The cheap PG fails: the connection survives over the other. *)
  Network.set_link_state net 0 ~up:false;
  check_bool "still adjacent" true (Network.adjacent_and_up net 0 1);
  Network.send net ~src:0 ~dst:1 ~bytes:10 "x";
  ignore (Engine.run e);
  check_int "failover delivery" 2 !received;
  (* Both down: the virtual gateway is gone. *)
  Network.set_link_state net 1 ~up:false;
  check_bool "gone when all PGs fail" false (Network.adjacent_and_up net 0 1)

let virtual_gateway_protocol_transparent () =
  (* A routing protocol keeps its adjacency (and routes) across the
     failure of one of two parallel PGs. *)
  let g = parallel_graph () in
  let module R = Pr_proto.Runner.Make (Pr_ls.Ls) in
  let r = R.setup g (Pr_policy.Config.defaults g) in
  ignore (R.converge r);
  R.fail_link r 0;
  let c = R.converge r in
  check_bool "reconverged" true c.Pr_proto.Runner.converged;
  check_bool "adjacency survives one PG failure" true
    (Pr_proto.Forwarding.delivered
       (R.send_flow r (Pr_policy.Flow.make ~src:0 ~dst:1 ())))

(* --- Churn ---------------------------------------------------------- *)

let churn_restores_links () =
  let net, e, _, g = make_net () in
  let rng = Rng.create 5 in
  Pr_sim.Churn.schedule net rng ~events:6 ~spacing:2.0 ();
  check_int "events queued" 6 (Engine.pending e);
  ignore (Engine.run e);
  (* Even number of events: every churn-failed link was restored. *)
  let down = ref 0 in
  Graph.fold_links g ~init:() ~f:(fun () l ->
      if not (Network.link_is_up net l.Link.id) then incr down);
  check_int "all links restored" 0 !down

let churn_leaves_last_failure () =
  let net, e, _, g = make_net () in
  let rng = Rng.create 5 in
  Pr_sim.Churn.schedule net rng ~events:5 ~spacing:1.0 ();
  ignore (Engine.run e);
  let down = ref 0 in
  Graph.fold_links g ~init:() ~f:(fun () l ->
      if not (Network.link_is_up net l.Link.id) then incr down);
  check_int "odd event count leaves one link down" 1 !down

let churn_interleaves_with_protocol () =
  (* Schedule churn before converging a real protocol: the reactions
     interleave with the flips and the system still quiesces. *)
  let g = Pr_topology.Figure1.graph () in
  let module R = Pr_proto.Runner.Make (Pr_ls.Ls) in
  let r = R.setup g (Pr_policy.Config.defaults g) in
  let rng = Rng.create 11 in
  Pr_sim.Churn.schedule (R.network r) rng ~events:8 ~spacing:3.0 ();
  let c = R.converge ~max_events:5_000_000 r in
  check_bool "converged through churn" true c.Pr_proto.Runner.converged;
  (* All links are back; routing must be fully functional. *)
  let flow = Pr_policy.Flow.make ~src:7 ~dst:12 () in
  check_bool "delivers after churn" true
    (Pr_proto.Forwarding.delivered (R.send_flow r flow))

let churn_no_up_links () =
  (* Every link already down: the failure events find nothing to fail
     and the restore events nothing churn-failed to restore — the
     schedule must drain without raising or resurrecting links it did
     not fail. *)
  let net, e, _, g = make_net () in
  Graph.fold_links g ~init:() ~f:(fun () l ->
      Network.set_link_state net l.Link.id ~up:false);
  Pr_sim.Churn.schedule net (Rng.create 3) ~events:6 ~spacing:1.0 ();
  check_bool "drained" true (Engine.run e = Engine.Drained);
  let up = ref 0 in
  Graph.fold_links g ~init:() ~f:(fun () l ->
      if Network.link_is_up net l.Link.id then incr up);
  check_int "no link resurrected" 0 !up

let churn_kind_matches_nothing () =
  (* The parallel graph has only Lateral links: churn restricted to
     Hierarchical links must be a no-op that still drains. *)
  let g = parallel_graph () in
  let e = Engine.create () in
  let net = Network.create e g (Metrics.create ~n:2) in
  Pr_sim.Churn.schedule net (Rng.create 7) ~events:5 ~spacing:1.0
    ~kind:Pr_topology.Link.Hierarchical ();
  check_bool "drained" true (Engine.run e = Engine.Drained);
  check_bool "both links untouched" true
    (Network.link_is_up net 0 && Network.link_is_up net 1)

let churn_bad_spacing () =
  let net, _, _, _ = make_net () in
  Alcotest.check_raises "spacing" (Invalid_argument "Churn.schedule: spacing <= 0")
    (fun () -> Pr_sim.Churn.schedule net (Rng.create 1) ~events:2 ~spacing:0.0 ())

(* One converge under churn summarized by everything a golden file of
   the run would pin: the convergence record, the full metrics document
   (per-AD sends, bytes, computations, table entries), and the delivery
   outcome of one flow per AD. *)
let converge_summary ~seed ~size =
  let g = Generator.generate (Rng.create seed) (Generator.scaled ~target_ads:size) in
  let module R = Pr_proto.Runner.Make (Pr_ls.Ls) in
  let r = R.setup g (Pr_policy.Config.defaults g) in
  Pr_sim.Churn.schedule (R.network r) (Rng.derive seed "churn") ~events:6 ~spacing:4.0 ();
  let c = R.converge r in
  let metrics = Pr_util.Json.to_string (Metrics.to_json (R.metrics r)) in
  let n = Graph.n g in
  let routes =
    List.init n (fun src ->
        let dst = (src + (n / 2)) mod n in
        Pr_proto.Forwarding.delivered (R.send_flow r (Pr_policy.Flow.make ~src ~dst ())))
  in
  (c, metrics, routes)

let converge_reproducible =
  QCheck.Test.make ~name:"converge under churn is reproducible (any topology)" ~count:8
    QCheck.(pair small_int small_int)
    (fun (seed, size) ->
      let seed = 1 + (seed mod 1000) and size = 8 + (size mod 33) in
      converge_summary ~seed ~size = converge_summary ~seed ~size)

(* The event loop allocates nothing per event once the queue's storage
   is warm: the queue adds the delay to the clock and advances the
   clock itself, so no event time is boxed. Returning the top priority
   and passing [now +. delay] across the module boundary boxed two
   floats, 4 words per event. *)
let engine_loop_allocates_nothing () =
  let e = Engine.create () and count = ref 0 in
  let rec tick x =
    incr count;
    if !count land 1023 <> 0 then Engine.schedule_call e ~delay:0.5 tick x
  in
  let events () =
    count := 0;
    for i = 1 to 16 do
      Engine.schedule_call e ~delay:(float_of_int i) tick ()
    done;
    ignore (Engine.run e)
  in
  events ();
  let words = Pr_telemetry.Alloc.words events in
  let per_event = words /. float_of_int !count in
  check_bool (Printf.sprintf "%.3f words/event (budget 0.1)" per_event) true (per_event <= 0.1)

(* With a fault interposer, each copy queues on its directed pair's
   channel run; the order must be the one per-message queueing gives.
   Floods over random multigraphs (parallel links, mixed delays) run
   under random drop, duplicate, delay and reorder rules, delay
   FIFO-clamped per directed pair as the nemesis clamps it, reorder
   not. One run hands the rules' copies to the network; the other
   queues each copy itself with [Engine.schedule_call], one queue
   entry per copy, and hands the network none. Both must deliver the
   same copies at the same times in the same order, and run as many
   events. *)
let channel_runs_match_per_message =
  QCheck.Test.make ~name:"channel runs = per-message delivery" ~count:300 QCheck.small_nat
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_multigraph rng in
      let n = Graph.n g in
      let odds () = float_of_int (Rng.int rng 4) /. 8.0 in
      let p_drop = odds () and p_dup = odds () and p_delay = odds () in
      let p_reorder = odds () in
      let floods =
        List.init (1 + Rng.int rng 4) (fun _ ->
            (float_of_int (Rng.int rng 8) /. 4.0, Rng.int rng n, Rng.int rng 3))
      in
      let run per_message =
        let e = Engine.create () in
        let net = Network.create e g (Metrics.create ~n) in
        let draws = Rng.create (seed + 1) in
        let floor = Array.make (Array.length (snd (Graph.unique_csr g))) 0.0 in
        let log = ref [] and ids = ref 0 in
        let flood ~src ttl =
          let id = !ids in
          incr ids;
          Network.broadcast net ~src ~except:(-1) ~filter:(fun _ -> true) ~bytes:8 (id, ttl)
        in
        let deliver ~at ~from (id, ttl) =
          log := (Int64.bits_of_float (Engine.now e), id, from, at) :: !log;
          if ttl > 0 then flood ~src:at (ttl - 1)
        in
        Network.set_message_handler net deliver;
        (* The interposer is not told the message; the tamper hook,
           consulted just before it, is. *)
        let sending = ref (0, 0) in
        Network.set_message_tamper net
          (Some
             (fun ~src:_ ~dst:_ ~bytes:_ msg ->
               sending := msg;
               None));
        Network.set_delivery_interposer net ~copies:2
          (Some
             (fun ~src ~dst ~slot ~link ~extras ->
               let now = Engine.now e and delay = (Graph.link g link).Link.delay in
               let copies =
                 if Rng.chance draws p_drop then 0
                 else begin
                   let base = now +. delay in
                   let extra_d = if Rng.chance draws p_delay then Rng.float draws 2.0 else 0.0 in
                   let extra_r = if Rng.chance draws p_reorder then Rng.float draws 3.0 else 0.0 in
                   let arrival =
                     if extra_r > 0.0 then base +. extra_d +. extra_r
                     else if p_delay > 0.0 then begin
                       let a = Float.max (base +. extra_d) floor.(slot) in
                       floor.(slot) <- a;
                       a
                     end
                     else base
                   in
                   Float.Array.set extras 0 (arrival -. base);
                   if Rng.chance draws p_dup then begin
                     Float.Array.set extras 1 (arrival -. base +. (0.25 *. delay));
                     2
                   end
                   else 1
                 end
               in
               if not per_message then copies
               else begin
                 let msg = !sending in
                 for i = 0 to copies - 1 do
                   let x = Float.Array.get extras i in
                   Engine.schedule_call e
                     ~delay:(if x = 0.0 then delay else delay +. x)
                     (fun msg -> deliver ~at:dst ~from:src msg)
                     msg
                 done;
                 0
               end));
        List.iter
          (fun (at, src, ttl) -> Engine.schedule_at e ~time:at (fun () -> flood ~src ttl))
          floods;
        ignore (Engine.run e);
        (List.rev !log, Engine.events_executed e)
      in
      run false = run true)

let () =
  Alcotest.run "pr_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick engine_time_order;
          Alcotest.test_case "FIFO ties" `Quick engine_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick engine_nested_scheduling;
          Alcotest.test_case "event budget" `Quick engine_event_budget;
          Alcotest.test_case "bad schedule" `Quick engine_bad_schedule;
          Alcotest.test_case "absolute schedule" `Quick engine_schedule_at;
          Alcotest.test_case "resume after budget" `Quick engine_resume_after_budget;
          Alcotest.test_case "observer" `Quick engine_observer;
          Alcotest.test_case "budget inside a fan-out" `Quick engine_budget_inside_fanout;
          Alcotest.test_case "empty run" `Quick engine_empty_run;
          Alcotest.test_case "schedule_call payloads" `Quick engine_schedule_call_payloads;
          Alcotest.test_case "NaN schedule" `Quick engine_rejects_nan;
          Alcotest.test_case "event loop allocation" `Quick engine_loop_allocates_nothing;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ engine_program_matches_model ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick metrics_counters;
          Alcotest.test_case "json document" `Quick metrics_to_json;
          Alcotest.test_case "load series" `Quick metrics_load_series;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ metrics_totals_sum_columns ] );
      ( "network",
        [
          Alcotest.test_case "delivery" `Quick network_delivery;
          Alcotest.test_case "no link drop" `Quick network_no_link_drop;
          Alcotest.test_case "down link" `Quick network_down_link;
          Alcotest.test_case "in-flight loss" `Quick network_in_flight_loss;
          Alcotest.test_case "broadcast" `Quick network_broadcast;
          Alcotest.test_case "up neighbors" `Quick network_up_neighbors;
          Alcotest.test_case "fail random link" `Quick network_fail_random;
          Alcotest.test_case "fail random by kind" `Quick network_fail_random_kind;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              broadcast_matches_reference;
              fanout_matches_per_copy;
              charges_agree_per_ad;
              channel_runs_match_per_message;
            ] );
      ( "virtual-gateway",
        [
          Alcotest.test_case "failover" `Quick virtual_gateway_failover;
          Alcotest.test_case "protocol transparent" `Quick virtual_gateway_protocol_transparent;
        ] );
      ( "churn",
        [
          Alcotest.test_case "restores links" `Quick churn_restores_links;
          Alcotest.test_case "odd count leaves one down" `Quick churn_leaves_last_failure;
          Alcotest.test_case "interleaves with protocol" `Quick churn_interleaves_with_protocol;
          Alcotest.test_case "no up links" `Quick churn_no_up_links;
          Alcotest.test_case "kind matches nothing" `Quick churn_kind_matches_nothing;
          Alcotest.test_case "bad spacing" `Quick churn_bad_spacing;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ converge_reproducible ] );
    ]
