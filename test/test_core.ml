(* Integration tests for pr_core: the design space, the registry, the
   scenario builders and the experiment driver — plus cross-protocol
   invariants that hold over whole scenarios. *)

module Rng = Pr_util.Rng
module Graph = Pr_topology.Graph
module Flow = Pr_policy.Flow
module Gen = Pr_policy.Gen
module Design_point = Pr_proto.Design_point
module Design_space = Pr_core.Design_space
module Registry = Pr_core.Registry
module Scenario = Pr_core.Scenario
module Experiment = Pr_core.Experiment

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* --- Design space ---------------------------------------------------- *)

let design_space_complete () =
  check_int "eight cells" 8 (List.length Design_space.cells);
  (* Every design point appears exactly once. *)
  List.iter
    (fun point ->
      let cell = Design_space.find point in
      check_bool "cell matches" true (Design_point.equal cell.Design_space.point point))
    Design_point.all;
  (* Four implemented, four impractical — as in the paper. *)
  let implemented =
    List.filter
      (fun c ->
        match c.Design_space.status with
        | Design_space.Implemented _ -> true
        | Design_space.Impractical _ -> false)
      Design_space.cells
  in
  check_int "four implemented points" 4 (List.length implemented)

let design_space_consistent_with_registry () =
  (* Every policy design's declared point is an implemented cell (the
     policy-free baselines occupy cells only as strawmen). *)
  List.iter
    (fun packed ->
      let cell = Design_space.find (Registry.design_point packed) in
      match cell.Design_space.status with
      | Design_space.Implemented _ -> ()
      | Design_space.Impractical _ ->
        Alcotest.failf "%s declares an impractical design point" (Registry.name packed))
    Registry.policy_designs

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let design_space_renders () =
  let s = Design_space.render () in
  check_bool "mentions orwg" true (contains_substring s "orwg")

(* --- Registry --------------------------------------------------------- *)

let registry_names_unique () =
  let names = Registry.names Registry.all in
  check_int "unique names" (List.length names) (List.length (List.sort_uniq compare names));
  check_int "four policy designs" 4 (List.length Registry.policy_designs);
  check_int "four baselines" 4 (List.length Registry.baselines)

let registry_find () =
  check_bool "find orwg" true (Registry.name (Registry.find "orwg") = "orwg");
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Registry.find "nonesuch"))

(* --- Scenario --------------------------------------------------------- *)

let scenario_deterministic () =
  let s1 = Scenario.hierarchical ~seed:5 () in
  let s2 = Scenario.hierarchical ~seed:5 () in
  check_int "same size" (Graph.n s1.Scenario.graph) (Graph.n s2.Scenario.graph);
  check_int "same policy terms"
    (Pr_policy.Config.total_terms s1.Scenario.config)
    (Pr_policy.Config.total_terms s2.Scenario.config);
  let rng1 = Rng.create 9 and rng2 = Rng.create 9 in
  let f1 = Scenario.flows s1 ~rng:rng1 ~count:20 () in
  let f2 = Scenario.flows s2 ~rng:rng2 ~count:20 () in
  check_bool "same workload" true (List.for_all2 Flow.equal f1 f2)

let scenario_flows_are_host_to_host () =
  let s = Scenario.hierarchical ~seed:3 () in
  let rng = Rng.create 1 in
  let hosts = Graph.host_ids s.Scenario.graph in
  List.iter
    (fun (f : Flow.t) ->
      check_bool "src is a host" true (List.mem f.Flow.src hosts);
      check_bool "dst is a host" true (List.mem f.Flow.dst hosts);
      check_bool "src <> dst" true (f.Flow.src <> f.Flow.dst))
    (Scenario.flows s ~rng ~count:50 ())

let scenario_open_policies () =
  let s = Scenario.figure1 ~seed:2 () in
  let o = Scenario.open_policies s in
  check_bool "fewer or equal terms" true
    (Pr_policy.Config.total_terms o.Scenario.config
    <= Pr_policy.Config.total_terms s.Scenario.config + 14);
  check_bool "no source policies" true
    (List.for_all
       (fun ad -> not (Pr_policy.Config.has_source_policy o.Scenario.config ad))
       (List.init 14 (fun i -> i)))

let scenario_all_host_pairs () =
  let s = Scenario.figure1 ~seed:2 () in
  let hosts = List.length (Graph.host_ids s.Scenario.graph) in
  check_int "ordered pairs" (hosts * (hosts - 1)) (List.length (Scenario.all_host_pairs s))

(* --- Codec --------------------------------------------------------------- *)

let codec_roundtrip_figure1 () =
  let s = Scenario.figure1 ~seed:42 () in
  match Pr_core.Codec.load (Pr_core.Codec.save s) with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok s' ->
    Alcotest.(check string) "label" s.Scenario.label s'.Scenario.label;
    check_int "seed" s.Scenario.seed s'.Scenario.seed;
    check_int "same n" (Graph.n s.Scenario.graph) (Graph.n s'.Scenario.graph);
    check_int "same links"
      (Graph.num_links s.Scenario.graph)
      (Graph.num_links s'.Scenario.graph);
    check_int "same policy terms"
      (Pr_policy.Config.total_terms s.Scenario.config)
      (Pr_policy.Config.total_terms s'.Scenario.config);
    check_int "same advertisement bytes"
      (Pr_policy.Config.total_advertisement_bytes s.Scenario.config)
      (Pr_policy.Config.total_advertisement_bytes s'.Scenario.config)

let codec_roundtrip_behaviour =
  QCheck.Test.make ~name:"reloaded scenarios behave identically" ~count:8 QCheck.small_int
    (fun seed ->
      let s =
        Scenario.figure1
          ~policy:{ Gen.default with restrictiveness = 0.5; source_policy_prob = 0.5 }
          ~seed ()
      in
      match Pr_core.Codec.load (Pr_core.Codec.save s) with
      | Error _ -> false
      | Ok s' ->
        let flows =
          let rng = Rng.create (seed + 1) in
          Scenario.flows s ~rng ~count:15 ()
        in
        let r = Experiment.evaluate (Registry.find "orwg") s ~flows () in
        let r' = Experiment.evaluate (Registry.find "orwg") s' ~flows () in
        r.Experiment.delivered = r'.Experiment.delivered
        && r.Experiment.messages = r'.Experiment.messages
        && r.Experiment.bytes = r'.Experiment.bytes
        && r.Experiment.transit_violations = r'.Experiment.transit_violations)

let codec_term_fields_roundtrip () =
  (* A term exercising every field must survive the trip with identical
     admission behaviour. *)
  let term =
    Pr_policy.Policy_term.make ~owner:3
      ~sources:(Pr_policy.Policy_term.Only [| 1; 2; 7 |])
      ~destinations:(Pr_policy.Policy_term.Except [| 4 |])
      ~prev_hops:(Pr_policy.Policy_term.Only [| 0 |])
      ~next_hops:(Pr_policy.Policy_term.Except [| 5; 6 |])
      ~qos:[ Pr_policy.Qos.Low_delay; Pr_policy.Qos.Default ]
      ~ucis:[ Pr_policy.Uci.Commercial ]
      ~hours:(22, 6) ~auth_required:true ()
  in
  let g = Pr_topology.Figure1.graph () in
  let transit =
    Array.init 14 (fun ad ->
        if ad = 3 then Pr_policy.Transit_policy.make 3 [ term ]
        else Pr_policy.Transit_policy.no_transit ad)
  in
  let scenario =
    {
      Scenario.label = "codec-term";
      graph = g;
      config = Pr_policy.Config.make ~transit ();
      seed = 0;
    }
  in
  match Pr_core.Codec.load (Pr_core.Codec.save scenario) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok s' ->
    let term' =
      match (Pr_policy.Config.transit s'.Scenario.config 3).Pr_policy.Transit_policy.terms with
      | [ t ] -> t
      | _ -> Alcotest.fail "expected exactly one term"
    in
    (* Probe admission agreement across a grid of contexts. *)
    List.iter
      (fun src ->
        List.iter
          (fun (hour, auth, prev, next) ->
            let ctx =
              {
                Pr_policy.Policy_term.flow =
                  Flow.make ~src ~dst:2 ~qos:Pr_policy.Qos.Low_delay
                    ~uci:Pr_policy.Uci.Commercial ~hour ~authenticated:auth ();
                prev;
                next;
              }
            in
            check_bool "same admission" 
              (Pr_policy.Policy_term.admits term ctx)
              (Pr_policy.Policy_term.admits term' ctx))
          [ (23, true, Some 0, Some 7); (12, true, Some 0, Some 7);
            (23, false, Some 0, Some 7); (23, true, Some 1, Some 7);
            (23, true, Some 0, Some 5); (23, true, None, None) ])
      [ 1; 3; 7 ]

let codec_rejects_garbage () =
  check_bool "not a scenario" true (Result.is_error (Pr_core.Codec.load "(scenario)"));
  check_bool "not sexp" true (Result.is_error (Pr_core.Codec.load "((("));
  check_bool "missing file" true
    (Result.is_error (Pr_core.Codec.load_file ~path:"/nonexistent/file.scn"))

(* A link delay must be finite and > 0: anything else is a load error,
   not an exception out of Link.make (<= 0) and not a silently accepted
   NaN or infinite propagation time. *)
let codec_rejects_bad_delay () =
  let text = Pr_core.Codec.save (Scenario.figure1 ~seed:42 ()) in
  let first_link = "(link 0 0 1 lateral 1 1)" in
  let n = String.length first_link in
  let rec find i =
    if i + n > String.length text then Alcotest.fail "first link not found"
    else if String.sub text i n = first_link then i
    else find (i + 1)
  in
  let i = find 0 in
  let with_link ?(cost = "1") d =
    String.sub text 0 i
    ^ Printf.sprintf "(link 0 0 1 lateral %s %s)" cost d
    ^ String.sub text (i + n) (String.length text - i - n)
  in
  check_bool "unchanged file loads" true (Result.is_ok (Pr_core.Codec.load (with_link "1")));
  List.iter
    (fun d ->
      Alcotest.(check (result reject string))
        ("delay " ^ d) (Error ("bad delay " ^ d)) (Pr_core.Codec.load (with_link d)))
    [ "nan"; "inf"; "-inf"; "0"; "-1" ];
  (* Link.make's other checks surface as load errors too. *)
  Alcotest.(check (result reject string))
    "cost 0" (Error "Link.make: cost < 1")
    (Pr_core.Codec.load (with_link ~cost:"0" "1"))

let codec_file_roundtrip () =
  let s = Scenario.figure1 ~seed:9 () in
  let path = Filename.temp_file "scenario" ".scn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Result.get_ok (Pr_core.Codec.save_file s ~path);
      match Pr_core.Codec.load_file ~path with
      | Ok s' -> check_int "roundtrip via file" (Graph.n s.Scenario.graph) (Graph.n s'.Scenario.graph)
      | Error e -> Alcotest.failf "load_file: %s" e)

(* --- Impact ------------------------------------------------------------ *)

let impact_noop_change () =
  (* Re-proposing an AD's existing policy must report no change. *)
  let scenario = Scenario.figure1 ~seed:42 () in
  let current = Pr_policy.Config.transit scenario.Scenario.config 0 in
  let r = Pr_core.Impact.assess scenario ~proposed:current () in
  check_int "nothing lost" 0 (List.length r.Pr_core.Impact.lost);
  check_int "nothing gained" 0 (List.length r.Pr_core.Impact.gained);
  check_int "nothing degraded" 0 (List.length r.Pr_core.Impact.degraded);
  check_int "load unchanged" r.Pr_core.Impact.transit_load_before
    r.Pr_core.Impact.transit_load_after

let impact_closing_backbone () =
  let scenario =
    Scenario.open_policies (Scenario.figure1 ~seed:42 ())
  in
  let proposed = Pr_policy.Transit_policy.no_transit 0 in
  let r = Pr_core.Impact.assess scenario ~proposed () in
  (* Campus 7 hangs off R1 which reaches the rest only via BB1: its 6
     destinations and 6 sources are cut (minus any bypass detours). *)
  check_bool "pairs lost" true (List.length r.Pr_core.Impact.lost > 0);
  check_int "sheds all transit" 0 r.Pr_core.Impact.transit_load_after;
  check_bool "carried transit before" true (r.Pr_core.Impact.transit_load_before > 0);
  (* Every lost pair really is unreachable after. *)
  List.iter
    (fun (c : Pr_core.Impact.pair_change) ->
      check_bool "after is none" true (c.Pr_core.Impact.after = None);
      check_bool "before was some" true (c.Pr_core.Impact.before <> None))
    r.Pr_core.Impact.lost

let impact_opening_gains () =
  (* Start from a config where BB1 refuses everything, then open it. *)
  let base = Scenario.open_policies (Scenario.figure1 ~seed:42 ()) in
  let g = base.Scenario.graph in
  let transit =
    Array.init (Graph.n g) (fun ad ->
        if ad = 0 then Pr_policy.Transit_policy.no_transit 0
        else Pr_policy.Config.transit base.Scenario.config ad)
  in
  let closed =
    { base with Scenario.config = Pr_policy.Config.make ~transit () }
  in
  let r =
    Pr_core.Impact.assess closed ~proposed:(Pr_policy.Transit_policy.open_transit 0) ()
  in
  check_bool "pairs gained" true (List.length r.Pr_core.Impact.gained > 0);
  check_int "nothing lost by opening" 0 (List.length r.Pr_core.Impact.lost)

let impact_class_specific () =
  let scenario = Scenario.open_policies (Scenario.figure1 ~seed:42 ()) in
  let research_only =
    Pr_policy.Transit_policy.make 0
      [ Pr_policy.Policy_term.make ~owner:0 ~ucis:[ Pr_policy.Uci.Research ] () ]
  in
  let res =
    Pr_core.Impact.assess scenario ~proposed:research_only ~uci:Pr_policy.Uci.Research ()
  in
  let com =
    Pr_core.Impact.assess scenario ~proposed:research_only ~uci:Pr_policy.Uci.Commercial ()
  in
  check_int "research unaffected" 0 (List.length res.Pr_core.Impact.lost);
  check_bool "commercial loses" true (List.length com.Pr_core.Impact.lost > 0)

(* The oracle's policy store remembers one configuration: an
   assessment that asked it about the two configurations in turn
   recompiled every AD on every call. Asking all of one, then all of
   the other, compiles each AD at most once per configuration. *)
let impact_compiles_once_per_config () =
  let scenario = Scenario.for_size ~target_ads:60 ~seed:3 () in
  let n = Graph.n scenario.Scenario.graph in
  let compilations =
    Pr_telemetry.Registry.counter Pr_telemetry.Registry.default "policy.compilations"
  in
  let before = Pr_telemetry.Registry.count compilations in
  let r =
    Pr_core.Impact.assess scenario ~proposed:(Pr_policy.Transit_policy.no_transit 1) ()
  in
  let made = Pr_telemetry.Registry.count compilations - before in
  check_bool "some pairs lost" true (r.Pr_core.Impact.lost <> []);
  check_bool (Printf.sprintf "%d compilations for %d ADs (budget 2n)" made n) true
    (made <= 2 * n)

let impact_summary_renders () =
  let scenario = Scenario.figure1 ~seed:42 () in
  let r =
    Pr_core.Impact.assess scenario ~proposed:(Pr_policy.Transit_policy.no_transit 0) ()
  in
  let s = Pr_core.Impact.summary r in
  check_bool "mentions the AD" true (contains_substring s "AD 0")

(* --- Experiment -------------------------------------------------------- *)

let experiment_smoke_all_protocols () =
  let scenario = Scenario.figure1 ~seed:42 () in
  let rng = Rng.create 7 in
  let flows = Scenario.flows scenario ~rng ~count:20 () in
  List.iter
    (fun packed ->
      let r = Experiment.evaluate packed scenario ~flows () in
      check_bool (r.Experiment.protocol ^ " converged") true r.Experiment.converged;
      check_int
        (r.Experiment.protocol ^ " outcomes partition")
        r.Experiment.flows
        (r.Experiment.delivered + r.Experiment.dropped + r.Experiment.looped
       + r.Experiment.prep_failed))
    Registry.all

(* Minor collections over back-to-back ORWG evaluations of 120-AD
   internets, after one warm-up. Each allocates under half the minor
   heap, but forced collections (a remembered set overflowed by the
   event queue, an [Array.map] of fresh pairs in the search view) made
   16 over 8 evaluations. The budget is half that. *)
let experiment_minor_collections () =
  let packed = Registry.find "orwg" in
  let cases =
    List.init 8 (fun i ->
        let sc = Scenario.for_size ~target_ads:120 ~seed:(i + 1) () in
        (sc, Scenario.flows sc ~rng:(Rng.create (i + 2)) ~count:40 ()))
  in
  let evaluate (sc, flows) =
    let r = Experiment.evaluate packed sc ~flows () in
    check_bool "converged" true r.Experiment.converged
  in
  evaluate (List.hd cases);
  let collections = Pr_telemetry.Alloc.minor_collections (fun () -> List.iter evaluate cases) in
  check_bool
    (Printf.sprintf "%d minor collections over 8 evaluations (budget 8)" collections)
    true (collections <= 8)

let experiment_deterministic () =
  let scenario = Scenario.figure1 ~seed:42 () in
  let flows =
    let rng = Rng.create 7 in
    Scenario.flows scenario ~rng ~count:15 ()
  in
  let run () = Experiment.evaluate (Registry.find "ecma") scenario ~flows () in
  let a = run () and b = run () in
  check_int "same messages" a.Experiment.messages b.Experiment.messages;
  check_int "same delivered" a.Experiment.delivered b.Experiment.delivered;
  check_int "same computations" a.Experiment.computations b.Experiment.computations

let experiment_policy_designs_zero_violations () =
  (* The PT-carrying designs never violate transit policy; the
     baselines (which ignore policy) generally do. *)
  let scenario =
    Scenario.figure1 ~seed:11 ~policy:{ Gen.default with restrictiveness = 0.6 } ()
  in
  let rng = Rng.create 3 in
  let flows = Scenario.flows scenario ~rng ~count:40 () in
  List.iter
    (fun name ->
      let r = Experiment.evaluate (Registry.find name) scenario ~flows () in
      check_int (name ^ " has zero transit violations") 0 r.Experiment.transit_violations)
    [ "idrp"; "ls-hbh-pt"; "orwg" ]

let experiment_orwg_zero_source_violations () =
  let scenario =
    Scenario.figure1 ~seed:13
      ~policy:{ Gen.default with restrictiveness = 0.5; source_policy_prob = 0.8 }
      ()
  in
  let rng = Rng.create 5 in
  let flows = Scenario.flows scenario ~rng ~count:40 () in
  let r = Experiment.evaluate (Registry.find "orwg") scenario ~flows () in
  check_int "orwg honors source policies" 0 r.Experiment.source_violations

let experiment_convergence_probe () =
  let scenario = Scenario.figure1 ~seed:42 () in
  let g = scenario.Scenario.graph in
  let link = Option.get (Graph.find_link g 0 1) in
  let probe = Experiment.convergence_after_failure (Registry.find "link-state") scenario ~link in
  check_bool "initial messages counted" true (probe.Experiment.initial_messages > 0);
  check_bool "failure reaction counted" true (probe.Experiment.after_failure_messages > 0);
  check_bool "reconverged" true probe.Experiment.after_failure_converged

let experiment_availability_helper () =
  let scenario = Scenario.figure1 ~seed:42 () in
  let rng = Rng.create 7 in
  let flows = Scenario.flows scenario ~rng ~count:20 () in
  let delivered =
    Experiment.availability (Registry.find "link-state") scenario ~flows ~delivered:true
  in
  let undelivered =
    Experiment.availability (Registry.find "link-state") scenario ~flows ~delivered:false
  in
  check_int "partition of workload" (List.length flows)
    (List.length delivered + List.length undelivered)

(* --- Run isolation ------------------------------------------------------ *)

(* Runs in one process share nothing that shows: the event queue's
   storage and any other state a run hands on must leave a later run's
   results exactly as if it ran alone. Scenario A runs, then a larger
   B (whose queue storage A then adopts), then A again. *)

let isolation_a = lazy (Scenario.for_size ~target_ads:56 ~seed:3 ())

let isolation_b = lazy (Scenario.for_size ~target_ads:120 ~seed:5 ())

let a_b_a run =
  let a = run (Lazy.force isolation_a) in
  ignore (run (Lazy.force isolation_b));
  (a, run (Lazy.force isolation_a))

(* The result record (compared with [compare], so a NaN mean equals
   itself) and the converged metrics as JSON. *)
let isolated_evaluate () =
  let (Registry.Packed (module P) as packed) = Registry.find "orwg" in
  let module R = Pr_proto.Runner.Make (P) in
  let run s =
    let flows = Scenario.flows s ~rng:(Rng.create 11) ~count:30 () in
    let result = Experiment.evaluate packed s ~flows () in
    let r = R.setup s.Scenario.graph s.Scenario.config in
    ignore (R.converge r);
    (result, Pr_util.Json.to_string (Pr_sim.Metrics.to_json (R.metrics r)))
  in
  let (first, first_json), (again, again_json) = a_b_a run in
  check_bool "A's result is unchanged by B" true (compare first again = 0);
  Alcotest.(check string) "A's metrics JSON is unchanged by B" first_json again_json

(* The same for an ORWG run through the default fault plan, as
   [prx chaos orwg] makes it: the full report JSON. *)
let isolated_chaos () =
  let packed = Registry.find "orwg" in
  let run s =
    Pr_util.Json.to_string
      (Pr_faults.Chaos.report_json (Pr_faults.Chaos.run ~probes:20 packed s))
  in
  let first, again = a_b_a run in
  Alcotest.(check string) "A's chaos report is unchanged by B" first again

(* --- One charge per message ----------------------------------------- *)

(* Every message a design point charges reaches Metrics, the
   registry's net.sends and, when tracing, a net.send instant; every
   loss reaches Metrics and net.losses; and engine.events gains each
   converge's executed events. A traced run of each design point on a
   30-AD internet (per-source IDRP's tables make 56 ADs take half a
   minute): converge, then 100 flows (ORWG's delegated synthesis
   charges a stub's route query and its reply). *)
let charges_agree () =
  let module Reg = Pr_telemetry.Registry in
  let module Metrics = Pr_sim.Metrics in
  let count name = Reg.count (Reg.counter Reg.default name) in
  let sc = Scenario.for_size ~target_ads:30 ~seed:1 () in
  let flows = Scenario.flows sc ~rng:(Rng.create 1) ~count:100 () in
  List.iter
    (fun (Registry.Packed (module P) as packed) ->
      let module R = Pr_proto.Runner.Make (P) in
      let name = Registry.name packed in
      let trace = Pr_obs.Trace.create () in
      let sends = count "net.sends" and losses = count "net.losses" in
      let events = count "engine.events" in
      let r = R.setup ~trace sc.Scenario.graph sc.Scenario.config in
      let c = R.converge r in
      check_int (name ^ ": engine.events") c.Pr_proto.Runner.events
        (count "engine.events" - events);
      List.iter (fun f -> ignore (R.send_flow r f)) flows;
      let m = R.metrics r in
      let instants =
        match Pr_util.Json.member "traceEvents" (Pr_obs.Trace.to_json trace) with
        | Some (Pr_util.Json.List l) ->
          List.length
            (List.filter (fun e -> Pr_util.Json.string_member "name" e = Ok "net.send") l)
        | _ -> Alcotest.fail "no traceEvents list"
      in
      check_int (name ^ ": trace complete") 0 (Pr_obs.Trace.dropped trace);
      check_int (name ^ ": net.sends") (Metrics.messages m) (count "net.sends" - sends);
      check_int (name ^ ": net.send instants") (Metrics.messages m) instants;
      check_int (name ^ ": net.losses") (Metrics.msgs_lost m) (count "net.losses" - losses))
    Registry.all

let () =
  Alcotest.run "pr_core"
    [
      ( "design-space",
        [
          Alcotest.test_case "complete" `Quick design_space_complete;
          Alcotest.test_case "consistent with registry" `Quick
            design_space_consistent_with_registry;
          Alcotest.test_case "renders" `Quick design_space_renders;
        ] );
      ( "registry",
        [
          Alcotest.test_case "unique names" `Quick registry_names_unique;
          Alcotest.test_case "find" `Quick registry_find;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "deterministic" `Quick scenario_deterministic;
          Alcotest.test_case "host-to-host flows" `Quick scenario_flows_are_host_to_host;
          Alcotest.test_case "open policies" `Quick scenario_open_policies;
          Alcotest.test_case "all host pairs" `Quick scenario_all_host_pairs;
        ] );
      ( "codec",
        [
          Alcotest.test_case "figure1 roundtrip" `Quick codec_roundtrip_figure1;
          Alcotest.test_case "term fields roundtrip" `Quick codec_term_fields_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick codec_rejects_garbage;
          Alcotest.test_case "file roundtrip" `Quick codec_file_roundtrip;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ codec_roundtrip_behaviour ]
        @ [ Alcotest.test_case "rejects bad link delays" `Quick codec_rejects_bad_delay ] );
      ( "run-isolation",
        [
          Alcotest.test_case "evaluate A, B, A" `Quick isolated_evaluate;
          Alcotest.test_case "chaos A, B, A" `Quick isolated_chaos;
        ] );
      ( "impact",
        [
          Alcotest.test_case "no-op change" `Quick impact_noop_change;
          Alcotest.test_case "closing a backbone" `Quick impact_closing_backbone;
          Alcotest.test_case "opening gains" `Quick impact_opening_gains;
          Alcotest.test_case "class specific" `Quick impact_class_specific;
          Alcotest.test_case "summary renders" `Quick impact_summary_renders;
          Alcotest.test_case "compiles once per configuration" `Quick
            impact_compiles_once_per_config;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "smoke all protocols" `Slow experiment_smoke_all_protocols;
          Alcotest.test_case "deterministic" `Quick experiment_deterministic;
          Alcotest.test_case "back-to-back evaluations collect rarely" `Quick
            experiment_minor_collections;
          Alcotest.test_case "policy designs: no transit violations" `Quick
            experiment_policy_designs_zero_violations;
          Alcotest.test_case "orwg: no source violations" `Quick
            experiment_orwg_zero_source_violations;
          Alcotest.test_case "convergence probe" `Quick experiment_convergence_probe;
          Alcotest.test_case "availability helper" `Quick experiment_availability_helper;
          Alcotest.test_case "one count per charged message and event" `Quick charges_agree;
        ] );
    ]
