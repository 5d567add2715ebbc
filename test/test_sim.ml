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
    (fun () -> Engine.schedule e ~delay:(-1.0) (fun () -> ()))

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

(* Random event programs against a (time, seq) model. Event [i] (ids
   follow scheduling order) schedules the children listed in
   [program.(i)], each at a delay drawn from {0, 0.25, 1, a random
   fraction} either relative ([schedule]), absolute ([schedule_at]
   now + d) or as a closure-free call of one shared handler on the
   child's id ([schedule_call]). Integer times give long equal-time
   runs, fractional ones near-singletons, so the queue's run path and
   its plain heap path interleave, and calls share runs with closures.
   The engine runs with a budget cut part-way and resumes; the executed
   ids must be exactly the model's order. *)
type child = Rel of float | Abs of float | Call of float

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
    map2 (fun k d -> match k with 0 -> Rel d | 1 -> Abs d | _ -> Call d) (int_bound 2) delay)

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
          (fun c ->
            let child = fresh () in
            match c with
            | Rel d -> Engine.schedule e ~delay:d (fun () -> fire child)
            | Abs d -> Engine.schedule_at e ~time:(Engine.now e +. d) (fun () -> fire child)
            | Call d -> Engine.schedule_call e ~delay:d fire child)
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
            (fun (Rel d | Abs d | Call d) ->
              pending := (now +. d, !next) :: !pending;
              incr next)
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

let metrics_counters () =
  let m = Metrics.create ~n:3 in
  Metrics.record_send m 0 ~bytes:100;
  Metrics.record_send m 0 ~bytes:50;
  Metrics.record_send m 2 ~bytes:10;
  Metrics.record_computation m 1 ~work:5 ();
  Metrics.set_table_entries m 2 7;
  check_int "messages" 3 (Metrics.messages m);
  check_int "bytes" 160 (Metrics.bytes m);
  check_int "computations" 5 (Metrics.computations m);
  check_int "per-node messages" 2 (Metrics.messages_of m 0);
  check_int "per-node bytes" 10 (Metrics.bytes_of m 2);
  check_int "tables" 7 (Metrics.table_entries m);
  check_int "max table" 7 (Metrics.max_table_entries m);
  Metrics.add_table_entries m 2 3;
  check_int "add gauge" 10 (Metrics.table_entries_of m 2)

let metrics_diff () =
  let m = Metrics.create ~n:2 in
  Metrics.record_send m 0 ~bytes:10;
  let before = Metrics.snapshot m in
  Metrics.record_send m 0 ~bytes:10;
  Metrics.record_send m 1 ~bytes:5;
  let d = Metrics.diff ~after:m ~before in
  check_int "delta messages" 2 (Metrics.messages d);
  check_int "delta bytes" 15 (Metrics.bytes d)

let metrics_reset () =
  let m = Metrics.create ~n:2 in
  Metrics.record_send m 0 ~bytes:10;
  Metrics.reset m;
  check_int "reset" 0 (Metrics.messages m)

let metrics_merge () =
  let a = Metrics.create ~n:3 and b = Metrics.create ~n:3 in
  Metrics.record_send a 0 ~bytes:100;
  Metrics.record_computation a 1 ~work:4 ();
  Metrics.add_table_entries a 2 5;
  Metrics.record_send b 0 ~bytes:50;
  Metrics.record_send b 2 ~bytes:10;
  Metrics.add_table_entries b 2 3;
  Metrics.merge a b;
  check_int "merged messages" 3 (Metrics.messages a);
  check_int "merged bytes" 160 (Metrics.bytes a);
  check_int "merged computations" 4 (Metrics.computations a);
  check_int "merged per-node bytes" 150 (Metrics.bytes_of a 0);
  check_int "merged gauge" 8 (Metrics.table_entries_of a 2);
  (* [from] is read, not written. *)
  check_int "source untouched" 2 (Metrics.messages b)

let metrics_merge_size_mismatch () =
  let a = Metrics.create ~n:2 and b = Metrics.create ~n:3 in
  Alcotest.check_raises "n mismatch" (Invalid_argument "Metrics.merge: size mismatch")
    (fun () -> Metrics.merge a b)

(* Recording operations whose effect is additive per AD — the ones
   workers perform — so that splitting a recording across workers and
   merging must equal recording sequentially. *)
let metrics_op =
  QCheck.(
    map
      (fun (which, ad, v) ->
        let ad = ad mod 4 and v = 1 + (v mod 50) in
        match which mod 3 with
        | 0 -> `Send (ad, v)
        | 1 -> `Compute (ad, v)
        | _ -> `Table (ad, v))
      (triple small_int small_int small_int))

let apply_op m = function
  | `Send (ad, bytes) -> Metrics.record_send m ad ~bytes
  | `Compute (ad, work) -> Metrics.record_computation m ad ~work ()
  | `Table (ad, k) -> Metrics.add_table_entries m ad k

let metrics_equal a b =
  let per_node f = List.init 4 (fun ad -> f a ad = f b ad) in
  Metrics.messages a = Metrics.messages b
  && Metrics.bytes a = Metrics.bytes b
  && Metrics.computations a = Metrics.computations b
  && Metrics.table_entries a = Metrics.table_entries b
  && Metrics.max_table_entries a = Metrics.max_table_entries b
  && List.for_all Fun.id (per_node Metrics.messages_of)
  && List.for_all Fun.id (per_node Metrics.bytes_of)
  && List.for_all Fun.id (per_node Metrics.computations_of)
  && List.for_all Fun.id (per_node Metrics.table_entries_of)

let metrics_merge_matches_sequential =
  QCheck.Test.make ~name:"merged worker metrics equal sequential recording" ~count:100
    QCheck.(pair (list metrics_op) (list metrics_op))
    (fun (ops1, ops2) ->
      let sequential = Metrics.create ~n:4 in
      List.iter (apply_op sequential) (ops1 @ ops2);
      let w1 = Metrics.create ~n:4 and w2 = Metrics.create ~n:4 in
      List.iter (apply_op w1) ops1;
      List.iter (apply_op w2) ops2;
      Metrics.merge w1 w2;
      metrics_equal sequential w1)

let metrics_json_roundtrip =
  QCheck.Test.make ~name:"metrics survive a JSON round-trip" ~count:100
    QCheck.(list metrics_op)
    (fun ops ->
      let m = Metrics.create ~n:4 in
      List.iter (apply_op m) ops;
      match Pr_util.Json.parse (Pr_util.Json.to_string (Metrics.to_json m)) with
      | Error _ -> false
      | Ok doc -> (
        match Metrics.of_json doc with
        | Error _ -> false
        | Ok m' -> metrics_equal m m'))

let metrics_of_json_rejects_garbage () =
  List.iter
    (fun doc ->
      check_bool "rejected" true (Result.is_error (Metrics.of_json doc)))
    Pr_util.Json.
      [
        Null;
        Obj [];
        Obj [ ("n", Int 2); ("messages", List [ Int 1 ]) ] (* wrong length *);
        Obj [ ("n", Int 2); ("messages", String "x") ];
      ]

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
        Network.set_delivery_interposer net
          (Some
             (fun ~src ~dst ~slot ~link ->
               sends := (src, dst, slot, link) :: !sends;
               match (dst + link) mod 4 with
               | 0 -> []
               | 1 -> [ 0.0; 0.5 ]
               | 2 -> [ 0.25 ]
               | _ -> [ 0.0 ]));
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
          Alcotest.test_case "empty run" `Quick engine_empty_run;
          Alcotest.test_case "schedule_call payloads" `Quick engine_schedule_call_payloads;
          Alcotest.test_case "NaN schedule" `Quick engine_rejects_nan;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ engine_program_matches_model ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick metrics_counters;
          Alcotest.test_case "diff" `Quick metrics_diff;
          Alcotest.test_case "reset" `Quick metrics_reset;
          Alcotest.test_case "merge" `Quick metrics_merge;
          Alcotest.test_case "merge size mismatch" `Quick metrics_merge_size_mismatch;
          Alcotest.test_case "of_json rejects garbage" `Quick metrics_of_json_rejects_garbage;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ metrics_merge_matches_sequential; metrics_json_roundtrip ] );
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
        @ List.map QCheck_alcotest.to_alcotest [ broadcast_matches_reference ] );
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
