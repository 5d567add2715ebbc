(* Tests for the EGP baseline: correct on trees, degraded on cycles —
   the paper's §3 topology-restriction argument. *)

module Rng = Pr_util.Rng
module Graph = Pr_topology.Graph
module Generator = Pr_topology.Generator
module Flow = Pr_policy.Flow
module Config = Pr_policy.Config
module Forwarding = Pr_proto.Forwarding
module Runner = Pr_proto.Runner
module Egp = Pr_egp.Egp
module R = Runner.Make (Egp)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let setup g =
  let r = R.setup g (Config.defaults g) in
  let c = R.converge ~max_events:2_000_000 r in
  check_bool "converged" true c.Runner.converged;
  r

let all_pairs_outcomes r g =
  let delivered = ref 0 and looped = ref 0 and dropped = ref 0 and total = ref 0 in
  let n = Graph.n g in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        incr total;
        match R.send_flow r (Flow.make ~src ~dst ()) with
        | Forwarding.Delivered _ -> incr delivered
        | Forwarding.Looped _ -> incr looped
        | Forwarding.Dropped _ | Forwarding.Prep_failed _ -> incr dropped
      end
    done
  done;
  (!delivered, !looped, !dropped, !total)

let egp_correct_on_tree () =
  let g = Generator.random_mesh (Rng.create 8) ~n:25 ~extra_links:0 in
  check_bool "tree" false (Graph.has_cycle g);
  let r = setup g in
  let delivered, looped, _, total = all_pairs_outcomes r g in
  check_int "no loops on tree" 0 looped;
  check_int "all delivered on tree" total delivered

let egp_correct_on_line () =
  let g = Generator.line ~n:8 in
  let r = setup g in
  let delivered, looped, _, total = all_pairs_outcomes r g in
  check_int "no loops" 0 looped;
  check_int "all delivered" total delivered

let egp_degrades_with_cycles () =
  (* On cyclic meshes the binary-reachability model misroutes: compare
     delivery across increasing extra links; some seed must show
     degradation (we fix one known to). *)
  let tree = Generator.random_mesh (Rng.create 12) ~n:20 ~extra_links:0 in
  let mesh = Generator.random_mesh (Rng.create 12) ~n:20 ~extra_links:15 in
  let rt = setup tree in
  let dt, _, _, tt = all_pairs_outcomes rt tree in
  check_int "tree perfect" tt dt;
  let rm = setup mesh in
  let dm, lm, drm, tm = all_pairs_outcomes rm mesh in
  (* The protocol may still deliver everything (cycles are not always
     fatal), but any loop or drop on a connected graph is a failure
     DV/LS never exhibit; record whichever happened. *)
  check_bool "mesh outcome accounted" true (dm + lm + drm = tm)

let egp_stale_loop_after_failure () =
  (* Build a square with a destination hanging off one corner. After
     the direct link fails, stale mutual advertisements around the
     cycle can persist; at minimum the protocol must not diverge. *)
  let g = Generator.ring ~n:6 in
  let r = setup g in
  let lid = Option.get (Graph.find_link g 0 5) in
  R.fail_link r lid;
  let c = R.converge ~max_events:2_000_000 r in
  check_bool "terminates after failure" true c.Runner.converged;
  (* Count pairs that now fail: on a ring minus one link (a line),
     correct routing still reaches everything; EGP may not. *)
  let delivered, looped, dropped, total = all_pairs_outcomes r g in
  check_bool "outcomes partition" true (delivered + looped + dropped = total)

let egp_table_entries () =
  let g = Generator.line ~n:5 in
  let r = setup g in
  (* Each node reaches all 5 destinations (including itself). *)
  check_int "full reachability" 25 (R.table_entries r)

(* [advertise] compares a neighbor's baseline only at the destinations
   the handler may have changed, and only when that baseline was
   compared at the AD's previous advertise; any other baseline gets the
   full scan. Crashes, partitions, link storms, flap chatter and
   corrupted or forged updates all leave baselines that missed an
   advertise. The chaos reports were pinned when every advertise
   rescanned all destinations for every neighbor, so they fail on a
   version that trusts a stale baseline. *)
let egp_chaos_reports_pinned () =
  let packed = Option.get (Pr_core.Registry.find_opt "egp") in
  List.iter
    (fun (profile, seed, want) ->
      let plan =
        if profile = "default" then Pr_faults.Plan.default
        else Option.get (Pr_faults.Plan.profile profile)
      in
      let sc = Pr_core.Scenario.for_size ~target_ads:30 ~seed () in
      let report = Pr_faults.Chaos.run ~plan ~probes:20 packed sc in
      let doc = Pr_util.Json.to_string (Pr_faults.Chaos.report_json report) in
      Alcotest.(check string)
        (Printf.sprintf "%s, seed %d" profile seed)
        want
        (Stdlib.Digest.to_hex (Stdlib.Digest.string doc)))
    [
      ("default", 1, "af694cb011911759ddc9ef3c52f364d9");
      ("crash", 2, "efd041a796109213f1f2bd04574c9659");
      ("partition", 3, "cac8388bb2ce0266b798fd04ceb5a4f7");
      ("storm", 4, "64202515512f1f5086f03f1775226c2e");
      ("byzantine", 5, "3437e3ce7ac0583b4a1cb6ec5694aaa1");
      ("chatter", 6, "54ce5fbc19e8d199bd482fbf7b72a167");
    ]

let () =
  Alcotest.run "pr_egp"
    [
      ( "egp",
        [
          Alcotest.test_case "correct on tree" `Quick egp_correct_on_tree;
          Alcotest.test_case "correct on line" `Quick egp_correct_on_line;
          Alcotest.test_case "cycles accounted" `Quick egp_degrades_with_cycles;
          Alcotest.test_case "failure on ring terminates" `Quick egp_stale_loop_after_failure;
          Alcotest.test_case "table entries" `Quick egp_table_entries;
          Alcotest.test_case "chaos reports pinned" `Quick egp_chaos_reports_pinned;
        ] );
    ]
