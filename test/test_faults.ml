(* Tests for the pr_faults fault-injection subsystem: plan specs,
   crash/restart across the protocol families, partition heal
   exactness, chaos-report determinism, and the harness's non-vacuity
   (the deliberately broken variant must be flagged). *)

module J = Pr_util.Json
module Rng = Pr_util.Rng
module Graph = Pr_topology.Graph
module Generator = Pr_topology.Generator
module Engine = Pr_sim.Engine
module Metrics = Pr_sim.Metrics
module Network = Pr_sim.Network
module Churn = Pr_sim.Churn
module Runner = Pr_proto.Runner
module Forwarding = Pr_proto.Forwarding
module Registry = Pr_core.Registry
module Scenario = Pr_core.Scenario
module Plan = Pr_faults.Plan
module Nemesis = Pr_faults.Nemesis
module Chaos = Pr_faults.Chaos
module Trace = Pr_obs.Trace

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

(* --- Plan specs ----------------------------------------------------- *)

let plan_roundtrip () =
  List.iter
    (fun (name, plan) ->
      let spec = Plan.to_string plan in
      match Plan.of_string spec with
      | Error e -> Alcotest.failf "profile %s spec %S did not parse: %s" name spec e
      | Ok reparsed ->
        check_string
          (Printf.sprintf "profile %s round-trips" name)
          spec (Plan.to_string reparsed))
    Plan.profiles

let plan_parse_errors () =
  List.iter
    (fun spec ->
      match Plan.of_string spec with
      | Ok _ -> Alcotest.failf "spec %S should not parse" spec
      | Error _ -> ())
    [ "bogus:plan"; "drop:p=1.5"; "crash:down=8"; "drop:p=nope"; "storm:at=1,flaps=x" ]

(* Values that parse as numbers but cannot be scheduled or mean
   nothing. A crash in the past used to escape as an uncaught
   Invalid_argument from the engine at install time. *)
let plan_rejects_nonsense_values () =
  List.iter
    (fun spec ->
      match Plan.of_string spec with
      | Ok _ -> Alcotest.failf "spec %S should be rejected" spec
      | Error _ -> ())
    [
      "crash:at=-5,down=1";
      "crash:at=5,down=-1";
      "crash:at=inf";
      "dup:p=nan";
      "drop:p=nan,until=4";
      "delay:p=0.5,max=-1";
      "delay:p=0.5,max=nan";
      "reorder:p=0.3,max=inf";
      "partition:at=nan";
      "partition:at=3,heal=-2";
      "storm:at=1,flaps=-3,spacing=1";
      "storm:at=1,flaps=2.5,spacing=1";
      "storm:at=1,flaps=3,spacing=-1";
      "replay:at=2,count=nan";
      "drop:p=0.1,from=-1";
      "drop:p=0.1,until=nan";
      "crash:at=1,ad=abc";
      "corrupt:p=0.5,ad=1.5";
      "forge:at=1,ad=";
      "chatter:at=1,flaps=2,spacing=1,ad=x";
    ];
  List.iter
    (fun spec ->
      match Plan.of_string spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "spec %S should parse: %s" spec e)
    [ "crash:at=0,down=0"; "drop:p=0,until=inf"; "delay:p=1,max=0"; "storm:at=0,flaps=0,spacing=0" ];
  (* ADs that parse but that a 30-AD internet does not have *)
  let check_ads spec =
    match Plan.of_string spec with
    | Error e -> Alcotest.failf "spec %S should parse: %s" spec e
    | Ok plan -> Plan.check_ads plan ~n:30
  in
  List.iter
    (fun spec ->
      match check_ads spec with
      | Ok () -> Alcotest.failf "spec %S should be out of range at 30 ADs" spec
      | Error _ -> ())
    [
      "crash:at=1,ad=99999";
      "forge:at=1,ad=-3";
      "chatter:at=1,flaps=2,spacing=1,ad=500";
      "corrupt:p=0.5,ad=30";
      "drop:p=0.1;crash:at=2,ad=3;forge:at=4,ad=31";
    ];
  List.iter
    (fun spec ->
      match check_ads spec with
      | Ok () -> ()
      | Error e -> Alcotest.failf "spec %S should fit 30 ADs: %s" spec e)
    [ "crash:at=1,ad=0"; "forge:at=1,ad=29"; "crash:at=1"; "replay:at=2,count=3"; "" ]

let plan_empty () =
  check_bool "empty spec is the empty plan" true (Plan.of_string "" = Ok []);
  check_bool "no message faults" false (Plan.has_message_faults []);
  check_int "no incidents" 0 (List.length (Plan.incident_times []))

let plan_incidents () =
  let plan =
    [
      Plan.Crash { ad = Some 2; at_time = 5.0; down_for = Some 3.0 };
      Plan.Partition { at_time = 10.0; heal_after = Some 4.0 };
    ]
  in
  Alcotest.(check (list (float 1e-9)))
    "onsets and recoveries, sorted" [ 5.0; 8.0; 10.0; 14.0 ] (Plan.incident_times plan);
  Alcotest.(check (float 1e-9)) "last incident" 14.0 (Plan.last_incident_time plan)

(* --- Metrics loss accounting ---------------------------------------- *)

let metrics_losses () =
  let m = Metrics.create ~n:3 in
  Metrics.record_loss m 1;
  Metrics.record_loss m 1;
  Metrics.record_loss m 2;
  check_int "total losses" 3 (Metrics.msgs_lost m);
  check_int "per-node losses" 2 (Metrics.msgs_lost_of m 1);
  let m' =
    match Metrics.of_json (Metrics.to_json m) with
    | Ok m' -> m'
    | Error e -> Alcotest.failf "metrics did not round-trip: %s" e
  in
  check_int "losses survive the json round-trip" 3 (Metrics.msgs_lost m');
  let other = Metrics.create ~n:3 in
  Metrics.record_loss other 0;
  Metrics.merge m other;
  check_int "merge sums losses" 4 (Metrics.msgs_lost m)

(* --- Crash/restart across the protocol families --------------------- *)

(* One representative per design-point family, plus the baselines:
   after a transit-AD crash with total state loss and a restart, the
   protocol must reconverge and deliver again. *)
let crash_restart_case name =
  let test () =
    match Registry.find_opt name with
    | None -> Alcotest.failf "protocol %s not registered" name
    | Some (Registry.Packed (module P)) ->
      let scenario = Scenario.for_size ~target_ads:14 ~seed:7 () in
      let g = scenario.Scenario.graph in
      let module R = Runner.Make (P) in
      let r = R.setup g scenario.Scenario.config in
      ignore (R.converge r);
      let flows = Scenario.flows scenario ~rng:(Rng.create 99) ~count:20 () in
      let delivered fs =
        List.fold_left
          (fun acc f -> if Forwarding.delivered (R.send_flow r f) then acc + 1 else acc)
          0 fs
      in
      let before = delivered flows in
      let victim = List.hd (Graph.transit_ids g) in
      R.crash_ad r victim;
      let c = R.converge ~max_events:2_000_000 r in
      check_bool (name ^ " reconverges after crash") true c.Runner.converged;
      R.restart_ad r victim;
      let c = R.converge ~max_events:2_000_000 r in
      check_bool (name ^ " reconverges after restart") true c.Runner.converged;
      (* EGP's single-path reachability does not fully recover from
         fail/restore — the conformance suite exempts it from the same
         property, so only the reconvergence is required of it here. *)
      if name <> "egp" then
        check_int (name ^ " delivers as before once healed") before (delivered flows)
  in
  Alcotest.test_case name `Quick test

(* --- Partition heal exactness (qcheck) ------------------------------ *)

(* The heal must restore exactly the links the partition cut: links
   downed by an unrecovered crash or left down by interleaved churn
   (odd flip count) stay down. Checked by snapshotting the down-link
   set just before the partition fires and comparing it to the final
   state after the heal. *)
let partition_heals_exactly =
  QCheck.Test.make ~name:"partition heal restores exactly the cut links" ~count:15
    QCheck.small_int (fun seed ->
      let g = Generator.generate (Rng.create seed) Generator.default in
      let engine = Engine.create () in
      let metrics = Metrics.create ~n:(Graph.n g) in
      let net = Network.create engine g metrics in
      Network.set_message_handler net (fun ~at:_ ~from:_ () -> ());
      Network.set_link_handler net (fun ~at:_ ~link:_ ~up:_ -> ());
      (* Interference: churn with an odd flip count leaves its last
         failure down; a never-restarting crash leaves links down too. *)
      Churn.schedule net (Rng.derive seed "churn") ~events:3 ~spacing:2.0 ();
      let plan =
        [
          Plan.Crash { ad = None; at_time = 9.0; down_for = None };
          Plan.Partition { at_time = 20.0; heal_after = Some 10.0 };
        ]
      in
      let nemesis = Nemesis.install net ~rng:(Rng.derive seed "faults") plan in
      let down_links () =
        List.filter
          (fun lid -> not (Network.link_is_up net lid))
          (List.init (Graph.num_links g) Fun.id)
      in
      let before_partition = ref [] in
      Engine.schedule_at engine ~time:19.9 (fun () -> before_partition := down_links ());
      (match Engine.run engine with
      | Engine.Drained -> ()
      | Engine.Reached_limit -> QCheck.Test.fail_report "event queue did not drain");
      let cut = Nemesis.partition_cut nemesis in
      List.iter
        (fun lid ->
          if List.mem lid !before_partition then
            QCheck.Test.fail_reportf "link %d was already down when the partition fired"
              lid)
        cut;
      (* Final damage = pre-partition damage: every cut link healed,
         nothing else resurrected. *)
      down_links () = !before_partition)

(* --- Chaos determinism ---------------------------------------------- *)

let chaos_deterministic () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  let packed = Option.get (Registry.find_opt "ecma") in
  let doc () = J.to_string (Chaos.report_json (Chaos.run ~probes:20 packed scenario)) in
  check_string "identical (seed, plan) => byte-identical report" (doc ()) (doc ())

let chaos_empty_plan_is_clean () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  let packed = Option.get (Registry.find_opt "ecma") in
  let report = Chaos.run ~plan:[] ~probes:20 packed scenario in
  check_bool "converged" true report.Chaos.converged;
  check_int "no faults fired" 0 (List.length report.Chaos.fault_log);
  check_int "nothing lost" 0 report.Chaos.msgs_lost;
  check_int "no violations" 0 (List.length report.Chaos.violations)

(* --- Non-vacuity ----------------------------------------------------- *)

(* The harness is only trustworthy if it actually flags a broken
   protocol: the deliberately broken variant must produce violations
   under the default plan, while the real design points produce none. *)
let harness_flags_broken_variant () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  let broken =
    match Chaos.find_protocol "broken-ls" with
    | Some p -> p
    | None -> Alcotest.fail "broken-ls not resolvable"
  in
  check_bool "broken-ls is hidden from the registry" true
    (Registry.find_opt "broken-ls" = None);
  let report = Chaos.run ~probes:40 broken scenario in
  check_bool "harness flags the broken variant" true (report.Chaos.violations <> [])

let harness_passes_design_points () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  List.iter
    (fun name ->
      let packed = Option.get (Registry.find_opt name) in
      let report = Chaos.run ~probes:40 packed scenario in
      check_bool (name ^ " converges through the default plan") true
        report.Chaos.converged;
      check_int (name ^ " has zero violations") 0 (List.length report.Chaos.violations))
    [ "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ]

(* --- Byzantine containment ------------------------------------------- *)

(* The §5 design points under the Byzantine profile with the guard on:
   the attack must actually fire (forged updates on the wire), the
   guard must bite (rejections and quarantines), and the honest
   internet must come through clean — zero violations of any kind. *)
let guard_contains_byzantine () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  let plan = Option.get (Plan.profile "byzantine") in
  List.iter
    (fun name ->
      let packed = Option.get (Registry.find_opt name) in
      let report = Chaos.run ~plan ~probes:40 packed scenario in
      check_bool (name ^ " converges under attack") true report.Chaos.converged;
      check_bool (name ^ " offense fired") true (report.Chaos.msgs_forged > 0);
      check_bool (name ^ " guard rejected updates") true
        (report.Chaos.updates_rejected > 0);
      check_bool (name ^ " guard quarantined the attacker") true
        (report.Chaos.quarantines > 0);
      check_int
        (name ^ " zero violations under guard")
        0
        (List.length report.Chaos.violations))
    [ "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ]

(* Defense non-vacuity: with the guard off, the same attack must stick
   — the containment audit finds adversarial state in honest ADs. *)
let unguarded_byzantine_breached () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  let plan = Option.get (Plan.profile "byzantine") in
  let packed = Option.get (Registry.find_opt "ecma") in
  let report =
    Chaos.run ~plan ~guard:Pr_guard.Guard.disabled ~probes:40 packed scenario
  in
  check_bool "unguarded run is breached" true
    (Chaos.containment_violations report >= 1);
  check_int "guard counted nothing while off" 0 report.Chaos.updates_rejected

let byzantine_report_deterministic () =
  let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
  let plan = Option.get (Plan.profile "byzantine") in
  let packed = Option.get (Registry.find_opt "idrp") in
  let doc () =
    J.to_string (Chaos.report_json (Chaos.run ~plan ~probes:20 packed scenario))
  in
  check_string "identical (seed, plan, guard) => byte-identical report" (doc ())
    (doc ())

(* --- Campaign integration ------------------------------------------- *)

let faulted_run profile max_events =
  let open Pr_campaign in
  {
    Grid.id =
      Grid.id_of ~protocol:"ecma" ~size:14 ~restrictiveness:0.0
        ~granularity:Pr_policy.Gen.Source_specific ~churn:false ~faults:profile
        ~replicate:0;
    protocol = "ecma";
    size = 14;
    restrictiveness = 0.0;
    granularity = Pr_policy.Gen.Source_specific;
    churn = false;
    faults = profile;
    replicate = 0;
    seed = 42;
    flows = 20;
    max_events;
  }

let exec_budget_exhausted () =
  let open Pr_campaign in
  (* A budget far too small to drain: the campaign must record a
     result (outcome = budget_exhausted, partial metrics), not a
     worker failure that resume would retry forever. *)
  match Exec.execute (faulted_run "default" 50) with
  | Error e -> Alcotest.failf "expected a partial result, got failure: %s" e
  | Ok t ->
    check_string "outcome" "budget_exhausted" t.Exec.outcome;
    check_bool "not converged" false t.Exec.converged;
    let record = J.to_string (Exec.to_json t) in
    check_bool "record carries the outcome" true
      (let sub = {|"outcome": "budget_exhausted"|} in
       let len = String.length sub in
       let rec scan i =
         i + len <= String.length record
         && (String.sub record i len = sub || scan (i + 1))
       in
       scan 0)

let exec_unknown_profile () =
  let open Pr_campaign in
  match Exec.execute (faulted_run "bogus" 1_000_000) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown fault profile must be an Error"

let exec_faulted_completes () =
  let open Pr_campaign in
  match Exec.execute (faulted_run "crash" 10_000_000) with
  | Error e -> Alcotest.failf "crash-profile run failed: %s" e
  | Ok t ->
    check_string "outcome" "completed" t.Exec.outcome;
    check_int "no loop violations" 0 t.Exec.loop_violations;
    check_int "no blackhole violations" 0 t.Exec.blackhole_violations;
    check_bool "record carries the chaos extras" true
      (List.mem_assoc "reconvergence_time" t.Exec.chaos_fields)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* --- Delivery interposer -------------------------------------------- *)

let orwg_runner () =
  match Registry.find_opt "orwg" with
  | Some p -> p
  | None -> Alcotest.fail "orwg is not registered"

(* ORWG on a 30-AD internet under a plan: fault counters, a digest of
   the fault log, and the convergence totals. *)
let interposed_run ~seed spec =
  let (Registry.Packed (module P)) = orwg_runner () in
  let module R = Runner.Make (P) in
  let sc = Scenario.for_size ~target_ads:30 ~seed () in
  let r = R.setup sc.Scenario.graph sc.Scenario.config in
  let plan =
    match Plan.of_string spec with Ok p -> p | Error e -> Alcotest.fail e
  in
  let nem =
    Nemesis.install (R.network r) ~rng:(Rng.derive seed "faults") ~crash:(R.crash_ad r)
      ~restart:(R.restart_ad r) plan
  in
  let c = R.converge r in
  let log = Nemesis.fault_log nem in
  let text =
    String.concat "" (List.map (fun (t, what) -> Printf.sprintf "%h %s\n" t what) log)
  in
  Printf.sprintf "drop=%d dup=%d delay=%d reorder=%d log=%d/%s events=%d msgs=%d conv=%b"
    (Nemesis.dropped nem) (Nemesis.duplicated nem) (Nemesis.delayed nem)
    (Nemesis.reordered nem) (List.length log)
    (Digest.to_hex (Digest.string text))
    c.Runner.events c.Runner.messages c.Runner.converged

(* Pinned before the interposer moved to slot-indexed FIFO floors and
   array-held rules: same draws in the same order, so the same faults,
   the same log and the same convergence. *)
let interposer_pinned () =
  List.iter
    (fun (name, spec, want) ->
      check_string (name ^ " on 30 ADs, seed 5") want (interposed_run ~seed:5 spec))
    [
      ( "default",
        Plan.to_string Plan.default,
        "drop=0 dup=331 delay=886 reorder=0 log=12/a69b466b39745b4bfe286626458c7a89 \
         events=5204 msgs=4861 conv=true" );
      ( "lossy",
        Plan.to_string (Option.get (Plan.profile "lossy")),
        "drop=184 dup=152 delay=401 reorder=144 log=0/d41d8cd98f00b204e9800998ecf8427e \
         events=1727 msgs=1759 conv=true" );
      ( "delay+dup+reorder",
        "delay:p=0.5,max=2,until=40;dup:p=0.2,until=40;reorder:p=0.2,max=3,until=40",
        "drop=0 dup=379 delay=907 reorder=341 log=0/d41d8cd98f00b204e9800998ecf8427e \
         events=2203 msgs=1824 conv=true" );
    ]

(* Two parallel links join ADs 0 and 1: a slow one, and a cheaper fast
   one that comes up halfway through, so later messages take the fast
   link. Delay is FIFO-clamped per directed AD pair, not per link, so
   no message may arrive before one sent earlier. Clamped messages
   share the floor's arrival time only up to the rounding of
   now + (delay + extra), so order is checked on arrival times with a
   rounding tolerance; a per-link floor would let the fast link's
   messages arrive whole time units early. *)
let interposer_parallel_links_fifo () =
  let module Ad = Pr_topology.Ad in
  let module Link = Pr_topology.Link in
  let ads =
    Array.init 2 (fun id ->
        Ad.make ~id ~name:(Printf.sprintf "N%d" id) ~klass:Ad.Hybrid ~level:Ad.Metro)
  in
  let link id ~cost ~delay = Link.make ~id ~a:0 ~b:1 ~cost ~delay Link.Lateral in
  let g = Graph.create ads [| link 0 ~cost:5 ~delay:3.0; link 1 ~cost:1 ~delay:0.1 |] in
  let engine = Engine.create () in
  let net = Network.create engine g (Metrics.create ~n:2) in
  let arrivals = ref [] in
  Network.set_message_handler net (fun ~at:_ ~from:_ k ->
      arrivals := (k, Engine.now engine) :: !arrivals);
  let plan =
    match Plan.of_string "delay:p=0.5,max=2" with Ok p -> p | Error e -> Alcotest.fail e
  in
  let nem = Nemesis.install net ~rng:(Rng.create 17) plan in
  Network.set_link_state net 1 ~up:false;
  let sent = 40 in
  let used = Array.make sent (-1) in
  for k = 0 to sent - 1 do
    Engine.schedule_at engine ~time:(0.05 *. float_of_int k) (fun () ->
        if k = sent / 2 then Network.set_link_state net 1 ~up:true;
        used.(k) <- Network.up_link net 0 1;
        Network.send net ~src:0 ~dst:1 ~bytes:1 k)
  done;
  ignore (Engine.run engine);
  check_bool "some messages were delayed" true (Nemesis.delayed nem > 0);
  check_int "first half on the slow link" 0 used.(0);
  check_int "second half on the fast link" 1 used.(sent - 1);
  let arrivals = List.sort compare (List.rev !arrivals) in
  check_int "every message delivered" sent (List.length arrivals);
  ignore
    (List.fold_left
       (fun latest (k, at) ->
         if at < latest -. 1e-9 then
           Alcotest.failf "message %d arrived at %g, before an earlier one at %g" k at
             latest;
         Float.max latest at)
       0.0 arrivals)

(* The benchmark's converge setup (56 ADs, message faults and a gateway
   crash, update guard on), ready to converge. *)
let faulted_orwg ?trace () =
  let (Registry.Packed (module P)) = orwg_runner () in
  let module R = Runner.Make (P) in
  let seed = 41 in
  let sc = Scenario.for_size ~target_ads:56 ~seed () in
  let g = sc.Scenario.graph in
  let r = R.setup ?trace g sc.Scenario.config in
  let engine = Network.engine (R.network r) in
  let guard =
    Pr_guard.Guard.create ~engine ~n:(Graph.n g)
      ~on_readmit:(fun ~at ~nbr -> R.resync r ~at ~nbr)
      ()
  in
  R.set_receive_filter r
    (Some
       (fun ~at ~from msg ->
         Pr_guard.Guard.screen guard ~at ~from (R.check_update r ~at ~from msg)));
  R.set_link_tap r
    (Some (fun ~at ~nbr ~up -> Pr_guard.Guard.observe_link guard ~at ~nbr ~up));
  let plan =
    match Plan.of_string "delay:p=0.25,max=2,until=40;dup:p=0.1,until=40;crash:at=14,down=8"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  ignore
    (Nemesis.install (R.network r) ~rng:(Rng.derive seed "faults") ~crash:(R.crash_ad r)
       ~restart:(R.restart_ad r) plan);
  fun () -> R.converge r

(* The allocation budgets of the faulted-convergence message path,
   measured once: total words and minor words over the converge, and
   the events it ran. *)
let measure_faulted_convergence () =
  let converge = faulted_orwg () in
  let conv = ref None in
  let minor_before = Gc.minor_words () in
  let words = Pr_telemetry.Alloc.words (fun () -> conv := Some (converge ())) in
  let minor = Gc.minor_words () -. minor_before in
  let c = Option.get !conv in
  check_bool "converged" true c.Runner.converged;
  (words, minor, c.Runner.events)

let faulted_convergence = lazy (measure_faulted_convergence ())

let faulted_convergence_words_per_event () =
  let words, _, events = Lazy.force faulted_convergence in
  let per_event = words /. float_of_int events in
  check_bool
    (Printf.sprintf "%.1f words/event over %d events (budget 40)" per_event events)
    true (per_event <= 40.0)

(* Minor words alone: the per-message garbage a delivery makes. A
   closure per send (eight words, promoted when in flight at a minor
   collection) would take this over its budget. *)
let faulted_convergence_minor_words_per_event () =
  let _, minor, events = Lazy.force faulted_convergence in
  let per_event = minor /. float_of_int events in
  check_bool
    (Printf.sprintf "%.1f minor words/event over %d events (budget 20)" per_event events)
    true (per_event <= 20.0)

(* One call records each notable event: every link, node, fault, guard
   and invariant-violation entry the post-mortem ring holds after a
   traced run is in the run's trace too, at the same ts and tid. *)
let notable_events_reach_both_sinks () =
  let events field doc =
    match J.member field doc with
    | Some (J.List l) -> l
    | _ -> Alcotest.failf "no %s list" field
  in
  let key e =
    ( Result.get_ok (J.string_member "name" e),
      Result.get_ok (J.float_member "ts" e),
      Result.get_ok (J.int_member "tid" e) )
  in
  let notable (name, _, _) =
    name = "invariant.violation"
    || List.exists
         (fun prefix -> String.starts_with ~prefix name)
         [ "link."; "node."; "fault."; "guard." ]
  in
  let traced_run run =
    Trace.clear Trace.flight;
    let trace = Trace.create () in
    run trace;
    let ring =
      List.filter notable
        (List.map key (events "events" (Trace.post_mortem ~reason:"test" Trace.flight)))
    in
    let traced = List.map key (events "traceEvents" (Trace.to_json trace)) in
    List.iter
      (fun ((name, ts, tid) as k) ->
        if not (List.mem k traced) then
          Alcotest.failf "%s at t=%g on track %d is in the ring only" name ts tid)
      ring;
    List.map (fun (name, _, _) -> name) ring
  in
  let faulted =
    traced_run (fun trace ->
        check_bool "converged" true (faulted_orwg ~trace () ()).Runner.converged)
  in
  let attacked =
    traced_run (fun trace ->
        let scenario = Scenario.for_size ~target_ads:14 ~seed:42 () in
        let plan = Option.get (Plan.profile "byzantine") in
        ignore
          (Chaos.run ~plan ~trace (Option.get (Chaos.find_protocol "broken-ls")) scenario))
  in
  List.iter
    (fun name ->
      check_bool (name ^ " noted") true
        (List.exists (String.starts_with ~prefix:name) (faulted @ attacked)))
    [ "link."; "node."; "fault.crash"; "guard."; "invariant.violation" ]

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "profiles round-trip through specs" `Quick plan_roundtrip;
          Alcotest.test_case "bad specs rejected" `Quick plan_parse_errors;
          Alcotest.test_case "nonsense values rejected" `Quick plan_rejects_nonsense_values;
          Alcotest.test_case "empty plan" `Quick plan_empty;
          Alcotest.test_case "incident times" `Quick plan_incidents;
        ] );
      ("metrics", [ Alcotest.test_case "loss accounting" `Quick metrics_losses ]);
      ( "interposer",
        [
          Alcotest.test_case "counters, log and convergence pinned" `Quick interposer_pinned;
          Alcotest.test_case "parallel links share one FIFO floor" `Quick
            interposer_parallel_links_fifo;
          Alcotest.test_case "faulted convergence allocation budget" `Quick
            faulted_convergence_words_per_event;
          Alcotest.test_case "faulted convergence minor-words budget" `Quick
            faulted_convergence_minor_words_per_event;
          Alcotest.test_case "notable events reach trace and post-mortem ring" `Quick
            notable_events_reach_both_sinks;
        ] );
      ( "crash-restart",
        List.map crash_restart_case
          [ "dv-plain"; "link-state"; "egp"; "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ] );
      ("partition", qsuite [ partition_heals_exactly ]);
      ( "chaos",
        [
          Alcotest.test_case "deterministic report" `Quick chaos_deterministic;
          Alcotest.test_case "empty plan is clean" `Quick chaos_empty_plan_is_clean;
          Alcotest.test_case "broken variant flagged" `Quick harness_flags_broken_variant;
          Alcotest.test_case "design points pass" `Quick harness_passes_design_points;
        ] );
      ( "byzantine",
        [
          Alcotest.test_case "guard contains the attacker" `Quick
            guard_contains_byzantine;
          Alcotest.test_case "unguarded run is breached" `Quick
            unguarded_byzantine_breached;
          Alcotest.test_case "adversarial report deterministic" `Quick
            byzantine_report_deterministic;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "budget exhaustion is a result" `Quick exec_budget_exhausted;
          Alcotest.test_case "unknown profile is an error" `Quick exec_unknown_profile;
          Alcotest.test_case "crash profile completes" `Quick exec_faulted_completes;
        ] );
    ]
