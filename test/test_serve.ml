(* Tests for the serving layer: the policy decision diagram (diagram
   admit must agree with the compiled bitsets and the interpreted
   Policy Terms on every crossing, and the hash-cons store must never
   hold two structurally equal live nodes), the generic LRU behind the
   handle table and route caches, the never-mix snapshot guarantee
   under set_transit churn, workload determinism, and one short
   daemon session end to end. *)

module Rng = Pr_util.Rng
module Lru = Pr_util.Lru
module Graph = Pr_topology.Graph
module Path = Pr_topology.Path
module Figure1 = Pr_topology.Figure1
module Flow = Pr_policy.Flow
module Qos = Pr_policy.Qos
module Uci = Pr_policy.Uci
module Policy_term = Pr_policy.Policy_term
module Transit_policy = Pr_policy.Transit_policy
module Config = Pr_policy.Config
module Gen = Pr_policy.Gen
module Compiled = Pr_policy.Compiled
module Policy_store = Pr_policy.Policy_store
module Scenario = Pr_core.Scenario
module Pdd = Pr_serve.Pdd
module Serve = Pr_serve.Serve
module Workload = Pr_serve.Workload
module Daemon = Pr_serve.Daemon
module Link = Pr_topology.Link
module Validate = Pr_policy.Validate
module Lsdb = Pr_proto.Lsdb
module Policy_route = Pr_proto.Policy_route
module Policy_search = Pr_topology.Policy_search
module Qos_metric = Pr_proto.Qos_metric

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* --- generators (the compilation edge cases of test_policy) -------- *)

let universe = 14

let gen_pred_full =
  QCheck.Gen.(
    frequency
      [
        (3, return Policy_term.Any);
        (1, return (Policy_term.Only [||]));
        (1, return (Policy_term.Except [||]));
        ( 3,
          map
            (fun l -> Policy_term.Only (Array.of_list l))
            (list_size (int_range 1 6) (int_range 0 20)) );
        ( 3,
          map
            (fun l -> Policy_term.Except (Array.of_list l))
            (list_size (int_range 1 6) (int_range 0 20)) );
      ])

let gen_subset all =
  QCheck.Gen.(
    map
      (fun mask ->
        match List.filteri (fun i _ -> (mask lsr i) land 1 = 1) all with
        | [] -> all
        | l -> l)
      (int_range 0 ((1 lsl List.length all) - 1)))

let gen_hours =
  QCheck.Gen.(
    frequency
      [
        (2, return None);
        ( 3,
          map2
            (fun a b -> if a = b then None else Some (a, b))
            (int_range 0 23) (int_range 0 23) );
      ])

let gen_term_for owner =
  QCheck.Gen.(
    map
      (fun ((src, dst, prev, next), qos, ucis, (hours, auth)) ->
        Policy_term.make ~owner ~sources:src ~destinations:dst ~prev_hops:prev
          ~next_hops:next ~qos ~ucis ?hours ~auth_required:auth ())
      (tup4
         (tup4 gen_pred_full gen_pred_full gen_pred_full gen_pred_full)
         (gen_subset Qos.all) (gen_subset Uci.all)
         (tup2 gen_hours bool)))

let gen_term = gen_term_for 5

let gen_terms = QCheck.Gen.(list_size (int_range 0 5) gen_term)

let gen_ctx =
  QCheck.Gen.(
    let id = int_range 0 13 in
    map
      (fun (src, dst, (qi, ui, hour, auth), prev, next) ->
        {
          Policy_term.flow =
            Flow.make ~src ~dst ~qos:(Qos.of_index qi) ~uci:(Uci.of_index ui) ~hour
              ~authenticated:auth ();
          prev = (if prev < 0 then None else Some prev);
          next = (if next < 0 then None else Some next);
        })
      (tup5 id id
         (tup4 (int_range 0 3) (int_range 0 2) (int_range 0 23) bool)
         (int_range (-1) 13) (int_range (-1) 13)))

(* --- decision diagram: observational equivalence ------------------- *)

let diagram_matches_compiled_and_interpreted =
  QCheck.Test.make
    ~name:"diagram admit = Compiled.allows = Transit_policy.allows" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_terms gen_ctx))
    (fun (terms, ctx) ->
      let compiled = Compiled.compile ~n:universe terms in
      let root = Pdd.compile (Pdd.store_create ()) compiled in
      let d =
        Pdd.admit_node root ctx.Policy_term.flow ~prev:(Compiled.hop ctx.Policy_term.prev)
          ~next:(Compiled.hop ctx.Policy_term.next)
      in
      let policy = Transit_policy.make 5 terms in
      d = Compiled.allows compiled ctx && d = Transit_policy.allows policy ctx)

let flow_entry_matches_full_walk =
  QCheck.Test.make ~name:"flow_entry + entry_admit = the full walk" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_terms gen_ctx))
    (fun (terms, ctx) ->
      let compiled = Compiled.compile ~n:universe terms in
      let root = Pdd.compile (Pdd.store_create ()) compiled in
      let entry = Pdd.flow_entry root ctx.Policy_term.flow in
      let prev = Compiled.hop ctx.Policy_term.prev and next = Compiled.hop ctx.Policy_term.next in
      let e = Pdd.entry_admit entry ~prev ~next in
      e = Pdd.admit_node root ctx.Policy_term.flow ~prev ~next
      && e = Transit_policy.allows (Transit_policy.make 5 terms) ctx)

(* Shared store, many policies, churn — and the hash-cons invariant
   (no two structurally equal live nodes) must survive it all. *)
let hash_cons_invariant_under_churn =
  QCheck.Test.make ~name:"hash-cons invariant survives set_transit churn" ~count:30
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 6)
              (int_range 0 13 >>= fun ad ->
               map
                 (fun terms -> (ad, terms))
                 (list_size (int_range 0 5) (gen_term_for ad))))
           gen_ctx))
    (fun (flips, ctx) ->
      let g = Figure1.graph () in
      let store = Policy_store.create (Config.defaults g) in
      let db = Pdd.db_create store in
      (match Pdd.check db with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "initial check: %s" e);
      List.iter
        (fun (ad, terms) ->
          Policy_store.set_transit store ad (Transit_policy.make ad terms);
          ignore (Pdd.refresh db);
          (match Pdd.check db with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "after flip: %s" e);
          let snap = Pdd.snapshot db in
          let d =
            Pdd.admit snap ~ad ctx.Policy_term.flow ~prev:(Compiled.hop ctx.Policy_term.prev)
              ~next:(Compiled.hop ctx.Policy_term.next)
          in
          if d <> Policy_store.allows store ad ctx then
            QCheck.Test.fail_reportf "diagram disagrees with store after flip")
        flips;
      true)

(* --- decision diagram: the route server's policies at scale --------- *)

let serve_policy = Daemon.default_config.Daemon.policy

(* At 300 ADs under the route server's restrictive fine-grained
   policies the store interns exactly the predicates and nodes that
   interning by element lists did, passes its own audit, and answers
   every crossing as the compiled policy does. *)
let pdd_at_300_ads () =
  let sc = Scenario.for_size ~policy:serve_policy ~target_ads:300 ~seed:11 () in
  let n = Graph.n sc.Scenario.graph in
  let store = Policy_store.create sc.Scenario.config in
  let db = Pdd.db_create store in
  check_int "interned predicates" 120 (Pdd.store_preds (Pdd.db_store db));
  check_int "interned nodes" 336 (Pdd.store_nodes (Pdd.db_store db));
  (match Pdd.check db with Ok () -> () | Error e -> Alcotest.fail e);
  let snap = Pdd.snapshot db in
  let rng = Rng.create 3 in
  for _ = 1 to 5000 do
    let ad = Rng.int rng n in
    let flow =
      Flow.make ~src:(Rng.int rng n) ~dst:(Rng.int rng n)
        ~qos:(Qos.of_index (Rng.int rng Qos.count))
        ~uci:(Uci.of_index (Rng.int rng Uci.count))
        ~hour:(Rng.int rng 24) ~authenticated:(Rng.bool rng) ()
    in
    let hop () = Rng.int rng (n + 1) - 1 in
    let prev = hop () and next = hop () in
    let ctx =
      {
        Policy_term.flow;
        prev = (if prev < 0 then None else Some prev);
        next = (if next < 0 then None else Some next);
      }
    in
    let compiled = Compiled.allows (Policy_store.compiled store ad) ctx in
    if Pdd.admit snap ~ad flow ~prev ~next <> compiled then
      Alcotest.failf "AD %d: diagram and compiled policy disagree" ad
  done

(* Allocation budgets of the 2 000-AD route server's setup, in words
   (deterministic): generating its policies, compiling every AD's
   diagram, and the refresh after its largest policy is flipped closed
   and back. Each budget is 1.5x what the setup allocates; the
   list-per-kept-id generator and element-list interning allocated
   more than three times as much, so a return to either fails here. *)
let setup_words =
  lazy
    (let rng = Rng.create 1 in
     let g =
       Pr_topology.Generator.generate (Rng.split rng)
         (Pr_topology.Generator.scaled ~target_ads:2000)
     in
     let config = ref None in
     let gen_words =
       Pr_telemetry.Alloc.words (fun () -> config := Some (Gen.generate rng g serve_policy))
     in
     let store = Policy_store.create (Option.get !config) in
     let db = ref None in
     let db_words = Pr_telemetry.Alloc.words (fun () -> db := Some (Pdd.db_create store)) in
     let db = Option.get !db in
     let largest =
       List.fold_left
         (fun best ad ->
           let terms ad = Transit_policy.term_count (Policy_store.transit store ad) in
           if terms ad > terms best then ad else best)
         0 (Graph.transit_ids g)
     in
     let original = Policy_store.transit store largest in
     Policy_store.set_transit store largest (Transit_policy.no_transit largest);
     ignore (Pdd.refresh db);
     Policy_store.set_transit store largest original;
     let refresh_words = Pr_telemetry.Alloc.words (fun () -> ignore (Pdd.refresh db)) in
     (gen_words, db_words, refresh_words))

let within_budget name budget pick () =
  let words = pick (Lazy.force setup_words) in
  check_bool (Printf.sprintf "%s: %.0f words (budget %.0f)" name words budget) true
    (words <= budget)

(* --- Lru ----------------------------------------------------------- *)

(* Model: MRU-first association list, bounded at the capacity. *)
let lru_matches_model =
  let gen_ops =
    QCheck.Gen.(
      list_size (int_range 0 120)
        (frequency
           [
             (4, map2 (fun k v -> `Put (k, v)) (int_range 0 9) small_int);
             (3, map (fun k -> `Find k) (int_range 0 9));
             (1, map (fun k -> `Remove k) (int_range 0 9));
           ]))
  in
  QCheck.Test.make ~name:"Lru agrees with a bounded MRU-list model" ~count:300
    (QCheck.make gen_ops) (fun ops ->
      let cap = 4 in
      let t = Lru.create ~capacity:(Some cap) () in
      let model = ref [] in
      let evicted = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Put (k, v) ->
            let existed = List.mem_assoc k !model in
            model := (k, v) :: List.remove_assoc k !model;
            if (not existed) && List.length !model > cap then begin
              match List.rev !model with
              | (victim, _) :: _ ->
                model := List.remove_assoc victim !model;
                incr evicted
              | [] -> ()
            end;
            ignore (Lru.put t k v)
          | `Find k -> (
            let got = Lru.find t k in
            match List.assoc_opt k !model with
            | Some v ->
              model := (k, v) :: List.remove_assoc k !model;
              if got <> Some v then ok := false
            | None -> if got <> None then ok := false)
          | `Remove k ->
            model := List.remove_assoc k !model;
            Lru.remove t k)
        ops;
      !ok
      && Lru.self_check t = Ok ()
      && Lru.length t = List.length !model
      && Lru.evictions t = !evicted
      && Lru.fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc) = List.rev !model)

let lru_eviction_order () =
  let t = Lru.create ~capacity:(Some 2) () in
  check_bool "no eviction below capacity" true (Lru.put t 1 "a" = None);
  check_bool "no eviction at capacity" true (Lru.put t 2 "b" = None);
  check_bool "lru key evicted" true (Lru.put t 3 "c" = Some 1);
  (* Touch 2, then overflow: 3 (now least recent) goes. *)
  check_bool "find touches" true (Lru.find t 2 = Some "b");
  check_bool "touched key survives" true (Lru.put t 4 "d" = Some 3);
  check_int "two evictions" 2 (Lru.evictions t);
  (* Updating a resident key never evicts. *)
  check_bool "update in place" true (Lru.put t 2 "b2" = None);
  check_bool "updated value visible" true (Lru.peek t 2 = Some "b2");
  Lru.clear t;
  check_int "clear keeps the eviction count" 2 (Lru.evictions t);
  check_int "clear empties" 0 (Lru.length t);
  check_bool "self-check" true (Lru.self_check t = Ok ())

let lru_unbounded_and_bad_capacity () =
  let t = Lru.create () in
  for i = 0 to 999 do
    ignore (Lru.put t i i)
  done;
  check_int "unbounded never evicts" 0 (Lru.evictions t);
  check_int "all resident" 1000 (Lru.length t);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Lru.create: capacity < 1") (fun () ->
      ignore (Lru.create ~capacity:(Some 0) ()))

(* ORWG makes two caches per AD per run, and most are never written:
   such a cache allocates its record, not a hash table, whatever it is
   asked. The first [put] makes the table. *)
let lru_unwritten_allocates_no_table () =
  let t = ref (Lru.create ()) in
  let capacity = Some 1024 in
  let words =
    Pr_telemetry.Alloc.words (fun () ->
        let c = Lru.create ~capacity () in
        ignore (Lru.find c 1);
        ignore (Lru.peek c 2);
        ignore (Lru.mem c 3);
        Lru.remove c 4;
        Lru.clear c;
        t := c)
  in
  check_int "empty" 0 (Lru.length !t);
  check_bool "self-check" true (Lru.self_check !t = Ok ());
  if words > 8.0 then Alcotest.failf "an unwritten cache allocated %.0f words" words;
  let first_put = Pr_telemetry.Alloc.words (fun () -> ignore (Lru.put !t 1 1)) in
  check_bool "the first put makes the table" true (first_put > 64.0);
  check_bool "written" true (Lru.find !t 1 = Some 1)

(* --- snapshots never mix versions (satellite: stale-snapshot fix) --- *)

let restrictive =
  { Gen.default with Gen.restrictiveness = 0.8; granularity = Gen.Fine }

let answer_path = function
  | Serve.Route { path; _ } -> Some path
  | Serve.No_route _ -> None

(* Answers under one fixed database version, via a fresh private store. *)
let answers_at config graph ~flip flows =
  let store = Policy_store.create config in
  (match flip with
  | Some (ad, p) -> Policy_store.set_transit store ad p
  | None -> ());
  let serve = Serve.create graph store in
  ignore (Serve.refresh serve ~now:0.0);
  List.map (fun f -> answer_path (Serve.query serve ~now:0.0 f)) flows

let snapshot_race_regression () =
  let scenario = Scenario.for_size ~policy:restrictive ~target_ads:30 ~seed:9 () in
  let g = scenario.Scenario.graph in
  let config = scenario.Scenario.config in
  let flows = Scenario.flows scenario ~rng:(Rng.create 17) ~count:24 () in
  let victim = List.hd (Graph.transit_ids g) in
  let flip = (victim, Transit_policy.no_transit victim) in
  let old_answers = answers_at config g ~flip:None flows in
  let new_answers = answers_at config g ~flip:(Some flip) flows in
  check_bool "the flip changes at least one answer" true (old_answers <> new_answers);
  (* Race a query batch against the flip: set_transit lands mid-batch
     and the serve refreshes a few queries later. Every answer must
     equal the old version's or the new version's — never a mix of the
     two databases inside one answer, and the version tag must say
     which. *)
  let store = Policy_store.create config in
  let serve = Serve.create g store in
  ignore (Serve.refresh serve ~now:0.0);
  let v0 = Pdd.snapshot_version (Serve.snapshot serve) in
  List.iteri
    (fun i f ->
      if i = 8 then Policy_store.set_transit store victim (snd flip);
      if i = 16 then ignore (Serve.refresh serve ~now:0.0);
      let a = Serve.query serve ~now:0.0 f in
      let version =
        match a with Serve.Route { version; _ } -> version | Serve.No_route { version } -> version
      in
      let expected =
        if version = v0 then List.nth old_answers i else List.nth new_answers i
      in
      if answer_path a <> expected then
        Alcotest.failf "query %d: answer matches neither version cleanly" i;
      (* Before the refresh the serve must keep answering from the old
         snapshot; after it, from the new one. *)
      check_int "version pinned per query" (if i < 16 then v0 else v0 + 1) version)
    flows;
  (* A caller-pinned snapshot is immune to the refresh entirely. *)
  let store2 = Policy_store.create config in
  let serve2 = Serve.create g store2 in
  ignore (Serve.refresh serve2 ~now:0.0);
  let snap = Serve.snapshot serve2 in
  List.iteri
    (fun i f ->
      if i = 8 then begin
        Policy_store.set_transit store2 victim (snd flip);
        ignore (Serve.refresh serve2 ~now:0.0)
      end;
      let a = Serve.query ~snap serve2 ~now:0.0 f in
      if answer_path a <> List.nth old_answers i then
        Alcotest.failf "pinned query %d: not the old version's answer" i)
    flows

(* --- handle table -------------------------------------------------- *)

let handle_accounting () =
  let scenario = Scenario.for_size ~policy:restrictive ~target_ads:30 ~seed:9 () in
  let store = Policy_store.create scenario.Scenario.config in
  let serve =
    Serve.create ~handle_capacity:(Some 4) scenario.Scenario.graph store
  in
  ignore (Serve.refresh serve ~now:0.0);
  let flows = Scenario.flows scenario ~rng:(Rng.create 23) ~count:40 () in
  let handles =
    List.filter_map
      (fun f ->
        match Serve.query serve ~now:0.0 f with
        | Serve.Route { handle; _ } -> Some handle
        | Serve.No_route _ -> None)
      flows
  in
  check_bool "issued more than capacity" true (List.length handles > 4);
  let s = Serve.stats serve in
  check_int "issued = live + evicted" s.Serve.handles_issued
    (s.Serve.handles_live + s.Serve.handle_evictions);
  check_bool "evictions happened" true (s.Serve.handle_evictions > 0);
  (* Only the most recent handles answer; evicted ones miss. *)
  (match List.rev handles with
  | newest :: _ ->
    check_bool "newest handle lives" true (Serve.data serve ~now:0.0 ~handle:newest <> None)
  | [] -> Alcotest.fail "no handles issued");
  check_bool "oldest handle evicted" true
    (Serve.data serve ~now:0.0 ~handle:(List.hd handles) = None);
  check_bool "self-check clean" true (Serve.self_check serve = Ok ())

(* --- workload determinism ------------------------------------------ *)

let workload_deterministic () =
  let scenario = Scenario.for_size ~policy:restrictive ~target_ads:30 ~seed:9 () in
  let stream seed =
    let w = Workload.create ~rng:(Rng.create seed) scenario.Scenario.graph in
    List.init 200 (fun i -> Workload.next w ~now:(float_of_int i *. 0.3))
  in
  check_bool "same seed, same operations" true (stream 5 = stream 5);
  check_bool "different seed, different operations" true (stream 5 <> stream 6);
  let ops = stream 5 in
  check_bool "stream mixes queries and data" true
    (List.exists (function Workload.Query _ -> true | _ -> false) ops
    && List.exists (function Workload.Data _ -> true | _ -> false) ops)

(* --- daemon end to end --------------------------------------------- *)

let daemon_session_healthy () =
  let cfg = { Daemon.default_config with Daemon.target_ads = 20; duration = 8.0; seed = 3 } in
  let r = Daemon.run cfg in
  check_bool "session healthy" true (Daemon.healthy r);
  check_int "no admission disagreements" 0 r.Daemon.agreement_failures;
  check_bool "agreement checks actually ran" true (r.Daemon.agreement_checks > 0);
  check_bool "policy flips actually happened" true (r.Daemon.flips > 0);
  check_bool "faults actually fired" true (r.Daemon.faults > 0);
  check_bool "incremental rebuilds stayed incremental" true
    (r.Daemon.stats.Serve.rebuilt_ads
    < r.Daemon.ads * (r.Daemon.stats.Serve.rebuilds + 1))

(* A baseline row's config is outside input: absent fields take the
   CLI defaults, and a bad field is an error, never an exception or a
   silent default. *)
let config_of_row_validates () =
  let module J = Pr_util.Json in
  let of_config config =
    Daemon.config_of_row
      { Pr_telemetry.Gate.layer = "serve"; kernel = "daemon"; config; exact = []; band = []; cores = 1 }
  in
  let of_row fields = of_config (("target_ads", J.Int 14) :: fields) in
  let rejects name fields = check_bool name true (Result.is_error (of_row fields)) in
  let defaults =
    { Daemon.default_config with Daemon.target_ads = 14; policy = Gen.default }
  in
  check_bool "absent fields take the CLI defaults" true (of_row [] = Ok defaults);
  check_bool "a row without a target size" true (Result.is_error (of_config []));
  rejects "route capacity 0" [ ("route_capacity", J.Int 0) ];
  rejects "handle capacity -1" [ ("handle_capacity", J.Int (-1)) ];
  rejects "batch 0" [ ("batch", J.Int 0) ];
  rejects "fractional batch" [ ("batch", J.Float 1.5) ];
  rejects "fractional seed" [ ("seed", J.Float 1.5) ];
  rejects "interval 0" [ ("interval", J.Float 0.0) ];
  rejects "negative duration" [ ("duration", J.Float (-1.0)) ];
  rejects "restrictiveness above 1" [ ("restrictiveness", J.Float 1.5) ];
  rejects "string where a number goes" [ ("duration", J.String "long") ];
  rejects "unparseable plan" [ ("plan", J.String "bogus:plan") ];
  rejects "unknown granularity" [ ("granularity", J.String "medium") ];
  check_bool "row plan and seed taken" true
    (match of_row [ ("plan", J.String "none"); ("seed", J.Int 5) ] with
    | Ok c -> c.Daemon.plan_name = "none" && c.Daemon.seed = 5
    | Error _ -> false)

(* A row re-runs as itself: the config a session writes into its row
   rebuilds that session's config. *)
let row_config_round_trips () =
  let cfg =
    { Daemon.default_config with Daemon.target_ads = 14; duration = 2.0; seed = 5 }
  in
  let r = Daemon.run cfg in
  check_bool "config_of_row (row r) = config" true
    (Daemon.config_of_row (Daemon.row r) = Ok cfg)

(* `prx serve --sizes a,b` failing on b writes one post-mortem after two
   sessions: it must hold the failing session's events only, in
   non-decreasing simulated time. *)
let post_mortem_after_two_sessions () =
  let module J = Pr_util.Json in
  let module Trace = Pr_obs.Trace in
  let session target_ads =
    ignore
      (Daemon.run
         {
           Daemon.default_config with
           Daemon.target_ads;
           duration = 8.0;
           plan = Option.get (Pr_faults.Plan.profile "chatter");
           plan_name = "chatter";
         })
  in
  session 20;
  session 14;
  match J.member "events" (Trace.post_mortem ~reason:"test" Trace.flight) with
  | Some (J.List events) -> (
      check_bool "the last session noted events" true (events <> []);
      match Trace.validate_events events with
      | Ok () -> ()
      | Error e -> Alcotest.failf "post-mortem after two sessions: %s" e)
  | _ -> Alcotest.fail "no events list"

(* A session's query counters reach the registry once, when it ends:
   over two sessions, each serve.* counter grows by the sum of the
   sessions' stats, and serve.sheds by their shed queries. The sessions
   move every counter: a chattering link with a 4-handle table sheds
   queries and misses and evicts handles, and a flip-free 300-AD
   session overflows the label cache. *)
let daemon_publishes_counters () =
  let module Reg = Pr_telemetry.Registry in
  let published (r : Daemon.report) =
    let s = r.Daemon.stats in
    [
      ("queries", s.Serve.queries);
      ("route_hits", s.Serve.route_hits);
      ("route_misses", s.Serve.route_misses);
      ("handle_hits", s.Serve.handle_hits);
      ("handle_misses", s.Serve.handle_misses);
      ("no_routes", s.Serve.no_routes);
      ("handles_issued", s.Serve.handles_issued);
      ("handle_evictions", s.Serve.handle_evictions);
      ("search_states", s.Serve.search_states);
      ("bound_builds", s.Serve.bound_builds);
      ("bound_evictions", s.Serve.bound_evictions);
      ("sheds", r.Daemon.queries_shed);
    ]
  in
  let before = Reg.snapshot Reg.default in
  let chatter = Option.get (Pr_faults.Plan.profile "chatter") in
  let a =
    Daemon.run
      { Daemon.default_config with Daemon.plan = chatter; plan_name = "chatter"; handle_capacity = 4 }
  in
  let b =
    Daemon.run
      {
        Daemon.default_config with
        Daemon.target_ads = 300;
        flip_every = 0.0;
        batch = 128;
      }
  in
  let after = Reg.snapshot Reg.default in
  let count snap name =
    match List.assoc_opt ("serve." ^ name) snap with
    | Some (Reg.Counter c) -> c
    | _ -> 0
  in
  List.iter2
    (fun (name, va) (_, vb) ->
      check_bool (name ^ " moved in the sessions") true (va + vb > 0);
      check_int ("serve." ^ name ^ " grew by both sessions") (va + vb)
        (count after name - count before name))
    (published a) (published b)

(* --- ORWG route cache bounded by the same LRU ---------------------- *)

module Tiny_rc = Pr_orwg.Orwg.Make (struct
  let name = "orwg-tiny-rc"

  let use_handles = true

  let pg_capacity = None

  let pr_capacity = Some 1

  let delegate_stub_route_servers = false

  let prune_synthesis = false
end)

module Rt = Pr_proto.Runner.Make (Tiny_rc)
module Ro = Pr_proto.Runner.Make (Pr_orwg.Orwg.Orwg)

let orwg_route_cache_bounded () =
  let g = Figure1.graph () in
  let r = Rt.setup g (Config.defaults g) in
  ignore (Rt.converge r);
  let f1 = Flow.make ~src:7 ~dst:8 () in
  let f2 = Flow.make ~src:7 ~dst:9 () in
  check_bool "f1 delivered" true (Pr_proto.Forwarding.delivered (Rt.send_flow r f1));
  check_bool "f2 delivered" true (Pr_proto.Forwarding.delivered (Rt.send_flow r f2));
  check_bool "route cache at capacity" true
    (Tiny_rc.route_cache_entries (Rt.protocol r) 7 <= 1);
  check_bool "route evictions counted" true (Tiny_rc.route_evictions (Rt.protocol r) 7 > 0);
  (* The evicted flow still delivers — through a fresh synthesis. *)
  check_bool "f1 recovers" true (Pr_proto.Forwarding.delivered (Rt.send_flow r f1))

let orwg_route_cache_default_roomy () =
  let g = Figure1.graph () in
  let r = Ro.setup g (Config.defaults g) in
  ignore (Ro.converge r);
  List.iter
    (fun dst ->
      if dst <> 7 then ignore (Ro.send_flow r (Flow.make ~src:7 ~dst ())))
    (Graph.host_ids g);
  List.iter
    (fun ad ->
      check_int "no route evictions at the default bound" 0
        (Pr_orwg.Orwg.Orwg.route_evictions (Ro.protocol r) ad))
    (List.init (Graph.n g) Fun.id)

(* --- one search kernel, three callers ------------------------------ *)

(* Random fine-grained transit policies over the internet's own ids:
   prev/next-constrained terms, hour windows (some wrapping past
   midnight), QOS/UCI subsets, authentication. *)
let random_transit rng g ad =
  let n = Graph.n g in
  let sometimes k = Rng.int rng k = 0 in
  let subset all =
    match List.filter (fun _ -> Rng.bool rng) all with
    | l when l <> [] && sometimes 4 -> l
    | _ -> all
  in
  let pred ~odds among =
    let ids () = Array.of_list (Rng.sample rng (1 + Rng.int rng 3) among) in
    if not (sometimes odds) then Policy_term.Any
    else if Rng.bool rng then Policy_term.Only (ids ())
    else Policy_term.Except (ids ())
  in
  let nbrs = Graph.neighbor_ids g ad and everyone = List.init n Fun.id in
  let term () =
    let h1 = Rng.int rng 24 and h2 = Rng.int rng 24 in
    Policy_term.make ~owner:ad ~sources:(pred ~odds:6 everyone)
      ~destinations:(pred ~odds:6 everyone) ~prev_hops:(pred ~odds:3 nbrs)
      ~next_hops:(pred ~odds:3 nbrs) ~qos:(subset Qos.all) ~ucis:(subset Uci.all)
      ?hours:(if h1 <> h2 && sometimes 4 then Some (h1, h2) else None)
      ~auth_required:(sometimes 8) ()
  in
  Transit_policy.make ad (List.init (1 + Rng.int rng 3) (fun _ -> term ()))

(* Every AD's LSA as a fully flooded database holds it: each neighbor
   at the cost and delay of the cheapest link. *)
let flooded_db g config =
  let n = Graph.n g in
  let db = Lsdb.create ~n in
  for ad = 0 to n - 1 do
    let adjacencies =
      List.map
        (fun nbr ->
          let l = Graph.link g (Option.get (Graph.find_link g ad nbr)) in
          { Lsdb.nbr; cost = l.Link.cost; delay = l.Link.delay })
        (Graph.neighbor_ids g ad)
    in
    ignore
      (Lsdb.insert db
         (Lsdb.make_lsa ~origin:ad ~seq:1 ~adjacencies
            ~terms:(Config.transit config ad).Transit_policy.terms))
  done;
  db

(* Per graph slot, the flow's QOS metric of the AD pair's cheapest link:
   the edge metric of the route server and of policy route synthesis
   when every link is up. *)
let qos_slot_metric g qos =
  let slots = Array.length (snd (Graph.unique_csr g)) in
  Array.init slots (fun k ->
      Graph.fold_slot_links g k ~init:max_int ~f:(fun m l ->
          let l = Graph.link g l in
          min m (Qos_metric.metric qos ~cost:l.Link.cost ~delay:l.Link.delay)))

(* Serve.query, Policy_route.shortest and Validate.shortest_legal all
   run the one kernel, each with its own admission path (diagrams,
   specialized terms, compiled terms) and adjacency (live graph,
   flooded database, static graph). The route server (bounded by its
   distance labels) and policy route synthesis must return the kernel's
   route under every QOS. The oracle ranks routes by link cost, so it
   must return the kernel's route only for flows whose QOS metric is
   the link cost — and even then, when the kernel's best walk revisits
   an AD, it falls back to enumeration and may still find a legal
   simple route. *)
let three_callers_agree =
  QCheck.Test.make ~name:"serve, policy route and oracle return the same route" ~count:60
    QCheck.(pair (int_range 14 40) small_int)
    (fun (size, seed) ->
      let base = Scenario.for_size ~target_ads:size ~seed () in
      let g = base.Scenario.graph in
      let rng = Rng.create seed in
      let transit =
        Array.init (Graph.n g) (fun ad ->
            if Pr_topology.Ad.is_transit_capable (Graph.ad g ad) then random_transit rng g ad
            else Config.transit base.Scenario.config ad)
      in
      let config = Config.make ~transit () in
      let store = Policy_store.create config in
      let server = Serve.create g store in
      let db = flooded_db g config in
      let rows = Policy_search.of_graph g and scratch = Policy_search.scratch () in
      let metrics = Array.init Qos.count (fun i -> qos_slot_metric g (Qos.of_index i)) in
      let n = Graph.n g in
      List.for_all
        (fun _ ->
          let qos = Rng.choose rng Qos.all in
          let by_cost = qos = Qos.Default || qos = Qos.High_throughput in
          let flow =
            Flow.make ~src:(Rng.int rng n) ~dst:(Rng.int rng n) ~qos
              ~uci:(Rng.choose rng Uci.all) ~hour:(Rng.int rng 24)
              ~authenticated:(Rng.bool rng) ()
          in
          let served =
            match Serve.query server ~now:0.0 flow with
            | Serve.Route { path; _ } -> Some path
            | Serve.No_route _ -> None
          in
          let synthesized = fst (Policy_route.shortest (Policy_route.engine db ~n flow) ()) in
          let oracle = Validate.shortest_legal g config flow () in
          let kernel =
            Policy_search.search scratch rows ~src:flow.Flow.src ~dst:flow.Flow.dst
              ~metric:(fun _ _ k -> metrics.(Qos.index qos).(k))
              ~admit:(fun v p w ->
                Compiled.allows_crossing (Policy_store.compiled store v) flow ~prev:p ~next:w)
              ()
          in
          let oracle_legal () =
            match oracle with None -> true | Some p -> Validate.transit_legal g config flow p
          in
          match kernel with
          | Policy_search.Route p ->
            served = Some p && synthesized = Some p
            && (if by_cost then oracle = Some p else oracle_legal ())
            && Validate.transit_legal g config flow p
          | Policy_search.Unreachable -> served = None && synthesized = None && oracle = None
          | Policy_search.Revisits -> served = None && synthesized = None && oracle_legal ())
        (List.init 16 Fun.id))

(* At the sizes served: 256 workload queries on a 10^3-AD internet.
   Every answer the route server's bounded search gives is the
   unbounded search's over the same diagram snapshot, for a fifth of
   the states or fewer: the labels leave out the ADs that carry no
   transit. *)
(* The reference for every route-server answer: the same search over
   the same diagram snapshot, all links up, with no distance label. *)
let unbounded_search g =
  let rows = Policy_search.of_graph g and scratch = Policy_search.scratch () in
  let metrics = Array.init Qos.count (fun i -> qos_slot_metric g (Qos.of_index i)) in
  let entries = Array.make (Graph.n g) (Pdd.leaf false) in
  let search snap (f : Flow.t) =
    let admit v p w =
      if Policy_search.first_touch scratch v then
        entries.(v) <- Pdd.flow_entry (Pdd.root snap v) f;
      Pdd.entry_admit entries.(v) ~prev:p ~next:w
    in
    let metric _ _ k = metrics.(Qos.index f.Flow.qos).(k) in
    match
      Policy_search.search scratch rows ~src:f.Flow.src ~dst:f.Flow.dst ~metric ~admit ()
    with
    | Policy_search.Route p -> Some p
    | Policy_search.Revisits | Policy_search.Unreachable -> None
  in
  (search, scratch)

let bounded_search_at_scale () =
  let policy = Daemon.default_config.Daemon.policy in
  let sc = Scenario.for_size ~policy ~target_ads:1000 ~seed:1 () in
  let g = sc.Scenario.graph in
  let store = Policy_store.create sc.Scenario.config in
  let server = Serve.create g store in
  let snap = Serve.snapshot server in
  let search, scratch = unbounded_search g in
  let unbounded = search snap in
  let wl = Workload.create ~rng:(Rng.create 1) g in
  let searched = ref 0 and unbounded_states = ref 0 and agree = ref 0 in
  let clock = ref 0.0 and asked = ref 0 in
  while !asked < 256 do
    clock := !clock +. 0.01;
    match Workload.next wl ~now:!clock with
    | Workload.Data _ -> ()
    | Workload.Query f ->
      incr asked;
      let served, hit =
        match Serve.query server ~snap ~now:!clock f with
        | Serve.Route { path; cache_hit; _ } -> (Some path, cache_hit)
        | Serve.No_route _ -> (None, false)
      in
      if served = unbounded f then incr agree;
      if not hit then begin
        incr searched;
        unbounded_states := !unbounded_states + Policy_search.settled scratch
      end
  done;
  let s = Serve.stats server in
  check_int "every answer is the unbounded search's" 256 !agree;
  check_int "queries searched (one repeat hits the route cache)" 255 !searched;
  check_bool "bounded states <= 20% of unbounded" true
    (s.Serve.search_states * 10 <= !unbounded_states * 2);
  check_int "unbounded states" 37895 !unbounded_states;
  check_int "bounded states, both passes" 4872 s.Serve.search_states;
  check_int "labels built" 167 s.Serve.bound_builds;
  check_int "labels evicted" 0 s.Serve.bound_evictions

let multihomed_ids g =
  List.filter
    (fun ad -> (Graph.ad g ad).Pr_topology.Ad.klass = Pr_topology.Ad.Multihomed)
    (List.init (Graph.n g) Fun.id)

(* The labels leave out every AD that carries no transit; policy flips
   move ADs in and out of that set. Under the daemon's policy, at the
   sizes served, every answer stays the unbounded search's across
   transit ADs closed, opened and restored and multi-homed stubs given
   a transit term and closed again, for queries pinned to the current
   snapshot and to older ones. A stub's first term rebuilds the rows
   of the carrying ADs: the labels grow. *)
let labels_exact_across_flips =
  QCheck.Test.make ~name:"serve equals the unbounded search across flips" ~count:6
    QCheck.(pair (int_range 300 1000) small_int)
    (fun (size, seed) ->
      let policy = Daemon.default_config.Daemon.policy in
      let sc = Scenario.for_size ~policy ~target_ads:size ~seed () in
      let g = sc.Scenario.graph and config = sc.Scenario.config in
      let store = Policy_store.create config in
      let server = Serve.create g store in
      let search, _ = unbounded_search g in
      let rng = Rng.create (seed + 7) in
      let transit = Array.of_list (Graph.transit_ids g) in
      (* Three multi-homed stubs to flip, and every ordered pair of
         their neighbors: once a stub carries transit, its two-hop
         detour is often the best route between them, and the labels
         toward them were built while it carried none. *)
      let stubs =
        Array.of_list (Rng.sample rng 3 (multihomed_ids g))
      in
      if Array.length stubs = 0 then QCheck.Test.fail_report "no multi-homed stub to flip";
      let near =
        Array.of_list
          (List.concat_map
             (fun m ->
               let nbrs = Graph.neighbor_ids g m in
               List.concat_map
                 (fun a -> List.filter_map (fun b -> if a <> b then Some (a, b) else None) nbrs)
                 nbrs)
             (Array.to_list stubs))
      in
      let n = Graph.n g in
      let carrying () = Array.length (Serve.label server Qos.Default 0) in
      let before = carrying () in
      let snaps = ref [ Serve.snapshot server ] and bad = ref None in
      (* Round 0 only builds labels; every later round flips one AD
         first, each kind of flip in turn, and round 3 always gives a
         stub a term. *)
      for round = 0 to 11 do
        let pick a = a.(Rng.int rng (Array.length a)) in
        if round > 0 then begin
          match round mod 4 with
          | 0 ->
            let ad = pick transit in
            Policy_store.set_transit store ad (Transit_policy.no_transit ad)
          | 1 ->
            let ad = pick transit in
            Policy_store.set_transit store ad (Transit_policy.open_transit ad)
          | 2 ->
            let ad = pick transit in
            Policy_store.set_transit store ad (Config.transit config ad)
          | _ ->
            let ad = pick stubs in
            Policy_store.set_transit store ad
              (if round = 3 || Rng.bool rng then Transit_policy.open_transit ad
               else Config.transit config ad)
        end;
        ignore (Serve.refresh server ~now:0.0);
        snaps := List.filteri (fun i _ -> i < 3) (Serve.snapshot server :: !snaps);
        for q = 1 to 24 do
          let snap = List.nth !snaps (if q mod 4 = 0 then Rng.int rng (List.length !snaps) else 0) in
          let flow =
            if q mod 2 = 0 && Array.length near > 0 then
              let src, dst = near.(Rng.int rng (Array.length near)) in
              Flow.make ~src ~dst ()
            else
              Flow.make ~src:(Rng.int rng n) ~dst:(Rng.int rng n)
                ~qos:(Rng.choose rng Qos.all) ~uci:(Rng.choose rng Uci.all)
                ~hour:(Rng.int rng 24) ~authenticated:(Rng.bool rng) ()
          in
          let served =
            match Serve.query server ~snap ~now:0.0 flow with
            | Serve.Route { path; _ } -> Some path
            | Serve.No_route _ -> None
          in
          if served <> search snap flow && !bad = None then
            bad := Some (Printf.sprintf "round %d query %d: %d -> %d differs" round q
                           flow.Flow.src flow.Flow.dst)
        done
      done;
      if carrying () <= before then QCheck.Test.fail_report "no stub joined the carrying ADs";
      match !bad with Some m -> QCheck.Test.fail_report m | None -> true)

(* S reaches D through the multi-homed stub M or through the transit
   AD T, which is closed. The label toward D is built while M carries
   no transit, so it leaves M out. Once M gains a transit term the only
   legal route is S M D, and the server finds it only if the refresh
   dropped the label. *)
let stub_joins_after_labels () =
  let module Ad = Pr_topology.Ad in
  let ad id klass = Ad.make ~id ~name:(Printf.sprintf "ad%d" id) ~klass ~level:Ad.Campus in
  let s = 0 and m = 1 and t = 2 and d = 3 in
  let g =
    Graph.create
      [| ad s Ad.Stub; ad m Ad.Multihomed; ad t Ad.Transit; ad d Ad.Stub |]
      [|
        Link.make ~id:0 ~a:s ~b:m Link.Lateral;
        Link.make ~id:1 ~a:m ~b:d Link.Lateral;
        Link.make ~id:2 ~a:s ~b:t Link.Lateral;
        Link.make ~id:3 ~a:t ~b:d Link.Lateral;
      |]
  in
  let transit = Array.init 4 Transit_policy.no_transit in
  let store = Policy_store.create (Config.make ~transit ()) in
  let server = Serve.create g store in
  let flow = Flow.make ~src:s ~dst:d () in
  let answer () =
    match Serve.query server ~now:0.0 flow with
    | Serve.Route { path; _ } -> Some path
    | Serve.No_route _ -> None
  in
  check_bool "no route while M and T carry nothing" true (answer () = None);
  check_int "the label toward D was built" 1 (Serve.stats server).Serve.bound_builds;
  Policy_store.set_transit store m (Transit_policy.open_transit m);
  check_int "one diagram recompiled" 1 (Serve.refresh server ~now:0.0);
  check_bool "the route crosses M" true (answer () = Some [ s; m; d ]);
  check_int "the label was rebuilt" 2 (Serve.stats server).Serve.bound_builds;
  (* Opening T, transit-capable by class, drops nothing. *)
  Policy_store.set_transit store t (Transit_policy.open_transit t);
  ignore (Serve.refresh server ~now:0.0);
  check_bool "still routed" true (answer () <> None);
  check_int "a transit AD's flip keeps the label" 2 (Serve.stats server).Serve.bound_builds

(* The label as built before the carrying rows: one [Spf.search] from
   dst over the full rows that relaxes only toward carrying ADs. *)
let spf_label g rows carrying qos dst =
  let static = qos_slot_metric g qos in
  let relax u f =
    Policy_search.iter_row rows u ~f:(fun w k -> if carrying.(w) then f w static.(k))
  in
  let dist = (fst (Pr_topology.Spf.search ~n:(Graph.n g) ~src:dst ~relax ())).Pr_topology.Spf.dist in
  Array.map (fun d -> if d < 0 then max_int else d) dist

let carries g snap u =
  Pr_topology.Ad.is_transit_capable (Graph.ad g u)
  || not (Pdd.is_false_leaf (Pdd.root snap u))

(* Every label the server builds over its carrying rows is the
   [Spf]-built one over the ADs that carried transit at some refreshed
   version, before and after multi-homed stubs join that set. A label
   holds one word per carrying AD, in increasing AD order, and the
   reference is [max_int] at every other AD but the destination. The
   same destinations are asked each round, so a label kept past a join
   would differ. *)
let labels_match_spf_reference =
  QCheck.Test.make ~name:"labels = the Spf-built reference across stub joins" ~count:6
    QCheck.(pair (int_range 300 1000) small_int)
    (fun (size, seed) ->
      let policy = Daemon.default_config.Daemon.policy in
      let sc = Scenario.for_size ~policy ~target_ads:size ~seed () in
      let g = sc.Scenario.graph in
      let store = Policy_store.create sc.Scenario.config in
      let server = Serve.create g store in
      let rows = Policy_search.of_graph g and n = Graph.n g in
      let carrying = Array.init n (carries g (Serve.snapshot server)) in
      let rng = Rng.create (seed + 11) in
      let dsts = List.init 6 (fun _ -> Rng.int rng n) in
      let stubs = Array.of_list (multihomed_ids g) in
      let bad = ref None in
      for round = 0 to 3 do
        if round > 0 && Array.length stubs > 0 then begin
          for _ = 1 to 2 do
            let m = stubs.(Rng.int rng (Array.length stubs)) in
            Policy_store.set_transit store m (Transit_policy.open_transit m)
          done;
          ignore (Serve.refresh server ~now:0.0);
          let snap = Serve.snapshot server in
          Array.iteri (fun u c -> if not c then carrying.(u) <- carries g snap u) carrying
        end;
        let members = List.filter (fun u -> carrying.(u)) (List.init n Fun.id) in
        List.iter
          (fun dst ->
            List.iter
              (fun qos ->
                let reference = spf_label g rows carrying qos dst in
                let outside =
                  List.exists
                    (fun u -> u <> dst && (not carrying.(u)) && reference.(u) <> max_int)
                    (List.init n Fun.id)
                in
                let kept = Array.of_list (List.map (fun u -> reference.(u)) members) in
                if (outside || Serve.label server qos dst <> kept) && !bad = None then
                  bad := Some (Printf.sprintf "round %d: label toward %d differs" round dst))
              Qos.all)
          dsts
      done;
      match !bad with Some m -> QCheck.Test.fail_report m | None -> true)

(* A label build allocates the label and its cache entry, nothing per
   AD searched: at 2 000 ADs, averaged over 16 builds toward distinct
   destinations, at most the label's own words (one per carrying AD,
   plus its header) and 16 for the entry. An n-word label over the
   whole graph allocated up to 1.5 words per AD; an [Spf.search]
   build, with its four n-word arrays, 4.5. *)
let label_build_budget () =
  let policy = Daemon.default_config.Daemon.policy in
  let sc = Scenario.for_size ~policy ~target_ads:2000 ~seed:1 () in
  let g = sc.Scenario.graph in
  let server = Serve.create g (Policy_store.create sc.Scenario.config) in
  let len = Array.length (Serve.label server Qos.Default 0) in
  let builds = 16 in
  let words =
    Pr_telemetry.Alloc.words (fun () ->
        for dst = 1 to builds do
          ignore (Serve.label server Qos.Default dst)
        done)
  in
  check_int "labels built" (builds + 1) (Serve.stats server).Serve.bound_builds;
  check_bool "a label is shorter than the graph" true (len * 10 < Graph.n g);
  let per_build = words /. float_of_int builds and budget = float_of_int (len + 1 + 16) in
  check_bool
    (Printf.sprintf "%.1f words per build (budget %.0f: the label and its entry)" per_build budget)
    true (per_build <= budget)

let () =
  Alcotest.run "pr_serve"
    [
      ( "pdd",
        [
          Alcotest.test_case "300 ADs: pinned store, audit, admission" `Quick pdd_at_300_ads;
          Alcotest.test_case "2 000-AD Gen.generate budget" `Quick
            (within_budget "Gen.generate" 858_000. (fun (w, _, _) -> w));
          Alcotest.test_case "2 000-AD Pdd.db_create budget" `Quick
            (within_budget "Pdd.db_create" 497_000. (fun (_, w, _) -> w));
          Alcotest.test_case "2 000-AD Pdd.refresh budget" `Quick
            (within_budget "Pdd.refresh" 4_360. (fun (_, _, w) -> w));
        ]
        @ qsuite
            [
              diagram_matches_compiled_and_interpreted;
              flow_entry_matches_full_walk;
              hash_cons_invariant_under_churn;
            ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick lru_eviction_order;
          Alcotest.test_case "unbounded + bad capacity" `Quick
            lru_unbounded_and_bad_capacity;
          Alcotest.test_case "an unwritten cache allocates no table" `Quick
            lru_unwritten_allocates_no_table;
        ]
        @ qsuite [ lru_matches_model ] );
      ( "serve",
        [
          Alcotest.test_case "snapshot race regression" `Quick snapshot_race_regression;
          Alcotest.test_case "handle accounting" `Quick handle_accounting;
          Alcotest.test_case "workload determinism" `Quick workload_deterministic;
          Alcotest.test_case "daemon session healthy" `Quick daemon_session_healthy;
          Alcotest.test_case "bounded search at 10^3 ADs" `Quick bounded_search_at_scale;
          Alcotest.test_case "a stub that gains a term drops the labels" `Quick
            stub_joins_after_labels;
          Alcotest.test_case "2 000-AD label build budget" `Quick label_build_budget;
          Alcotest.test_case "baseline rows are validated" `Quick config_of_row_validates;
          Alcotest.test_case "row config round-trips" `Quick row_config_round_trips;
          Alcotest.test_case "post-mortem after two sessions" `Quick
            post_mortem_after_two_sessions;
          Alcotest.test_case "sessions publish their counters" `Quick
            daemon_publishes_counters;
        ]
        @ qsuite [ three_callers_agree; labels_exact_across_flips; labels_match_spf_reference ] );
      ( "orwg-cache",
        [
          Alcotest.test_case "bounded route cache evicts" `Quick orwg_route_cache_bounded;
          Alcotest.test_case "default bound never evicts here" `Quick
            orwg_route_cache_default_roomy;
        ] );
    ]
