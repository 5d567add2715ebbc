(* The benchmark harness: regenerates every exhibit of the paper's
   evaluation — Table 1, Figure 1, and the derived experiments E1..E10
   that quantify the paper's qualitative claims (see DESIGN.md section 4
   and EXPERIMENTS.md for the claim-by-claim index).

   Usage:
     dune exec bench/main.exe                 # all experiment tables
     dune exec bench/main.exe -- t1 e2 e8     # a subset *)

module Rng = Pr_util.Rng
module Stats = Pr_util.Stats
module J = Pr_util.Json
module Texttable = Pr_util.Texttable
module Ad = Pr_topology.Ad
module Link = Pr_topology.Link
module Graph = Pr_topology.Graph
module Path = Pr_topology.Path
module Generator = Pr_topology.Generator
module Figure1 = Pr_topology.Figure1
module Partial_order = Pr_topology.Partial_order
module Spf = Pr_topology.Spf
module Policy_search = Pr_topology.Policy_search
module Spf_delta = Pr_kernels.Spf_delta
module Hierarchy = Pr_kernels.Hierarchy
module Qos = Pr_policy.Qos
module Uci = Pr_policy.Uci
module Flow = Pr_policy.Flow
module Gen = Pr_policy.Gen
module Config = Pr_policy.Config
module Validate = Pr_policy.Validate
module Metrics = Pr_sim.Metrics
module Packet = Pr_proto.Packet
module Forwarding = Pr_proto.Forwarding
module Runner = Pr_proto.Runner
module Registry = Pr_core.Registry
module Scenario = Pr_core.Scenario
module Experiment = Pr_core.Experiment
module Design_space = Pr_core.Design_space
module Gate = Pr_telemetry.Gate
module Timing = Pr_telemetry.Timing

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '#')

let note fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* T1: the design space (paper Table 1)                                *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "T1. Design space for inter-AD routing (paper Table 1, section 5)";
  print_string (Design_space.render ())

(* ------------------------------------------------------------------ *)
(* F1: the example internet (paper Figure 1)                           *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section "F1. Example internet topology (paper Figure 1, section 2.1)";
  let g = Figure1.graph () in
  let t =
    Texttable.create
      ~columns:
        [ ("property", Texttable.Left); ("paper", Texttable.Left); ("built", Texttable.Left) ]
  in
  let row p expected actual = Texttable.add_row t [ p; expected; actual ] in
  row "backbone networks" "2 (interconnected)" "2";
  row "regional networks" "several per backbone"
    (Texttable.cell_int (List.length Figure1.regionals));
  row "campus networks" "several per regional"
    (Texttable.cell_int (List.length Figure1.campuses));
  List.iter
    (fun (k, c) -> row (Link.kind_to_string k ^ " links") "present" (Texttable.cell_int c))
    (Graph.count_links_by_kind g);
  row "multihomed stub" "yes"
    (Printf.sprintf "AD %d (two regionals)" Figure1.multihomed_campus);
  row "bypass stub-to-backbone" "yes"
    (Printf.sprintf "AD %d -> backbone %d" Figure1.bypass_campus Figure1.backbone_2);
  row "connected" "yes" (string_of_bool (Graph.is_connected g));
  row "contains cycles" "yes (lateral + bypass)" (string_of_bool (Graph.has_cycle g));
  Texttable.print t;
  print_newline ();
  print_string (Figure1.describe ())

(* ------------------------------------------------------------------ *)
(* E1: EGP's topology restriction (paper section 3)                    *)
(* ------------------------------------------------------------------ *)

let e1_egp_cycles () =
  section "E1. EGP requires a cycle-free topology (section 3)";
  note
    "Random 24-AD internets with increasing numbers of cycle-creating extra\n\
     links; after convergence one cycle link is failed and the protocol\n\
     reacts. DV (which tolerates cycles) is the control. Stretch is hop\n\
     count relative to the shortest path on the surviving topology.\n";
  let t =
    Texttable.create
      ~columns:
        [
          ("extra links", Texttable.Right);
          ("protocol", Texttable.Left);
          ("delivered", Texttable.Right);
          ("looped", Texttable.Right);
          ("dropped", Texttable.Right);
          ("mean stretch", Texttable.Right);
        ]
  in
  let n = 24 in
  let run_one (Registry.Packed (module P)) g =
    let module R = Runner.Make (P) in
    let r = R.setup g (Config.defaults g) in
    ignore (R.converge ~max_events:5_000_000 r);
    let lateral =
      Graph.fold_links g ~init:None ~f:(fun acc l ->
          if acc = None && l.Link.kind = Link.Lateral then Some l.Link.id else acc)
    in
    (match lateral with
    | Some lid ->
      R.fail_link r lid;
      ignore (R.converge ~max_events:5_000_000 r)
    | None -> ());
    let delivered = ref 0 and looped = ref 0 and dropped = ref 0 in
    let stretches = ref [] in
    for src = 0 to n - 1 do
      let dist = Graph.bfs_hops g src in
      for dst = 0 to n - 1 do
        if src <> dst then
          match R.send_flow r (Flow.make ~src ~dst ()) with
          | Forwarding.Delivered { path; _ } ->
            incr delivered;
            if dist.(dst) > 0 then
              stretches :=
                (float_of_int (Path.hops path) /. float_of_int dist.(dst)) :: !stretches
          | Forwarding.Looped _ -> incr looped
          | Forwarding.Dropped _ | Forwarding.Prep_failed _ -> incr dropped
      done
    done;
    (!delivered, !looped, !dropped, Stats.mean !stretches)
  in
  List.iter
    (fun extra ->
      let g = Generator.random_mesh (Rng.create (100 + extra)) ~n ~extra_links:extra in
      List.iter
        (fun name ->
          let delivered, looped, dropped, stretch = run_one (Registry.find name) g in
          Texttable.add_row t
            [
              Texttable.cell_int extra;
              name;
              Printf.sprintf "%d/%d" delivered (n * (n - 1));
              Texttable.cell_int looped;
              Texttable.cell_int dropped;
              Texttable.cell_float stretch;
            ])
        [ "egp"; "dv-plain" ];
      Texttable.add_separator t)
    [ 0; 2; 4; 8; 16 ];
  Texttable.print t;
  note
    "\nExpected shape: on the tree (0 extra links) EGP matches DV; as cycles\n\
     are added, EGP misroutes (loops, drops, stretch) while DV stays correct.\n"

(* ------------------------------------------------------------------ *)
(* E2: convergence and count-to-infinity (sections 4.3, 5.1.1)         *)
(* ------------------------------------------------------------------ *)

(* Triangle of transit ADs with a stub hanging off one corner: after
   the stub link fails, plain DV counts to infinity through the stale
   routes held around the triangle. *)
let count_to_infinity_graph () =
  let ads =
    Array.init 4 (fun id ->
        Ad.make ~id ~name:(Printf.sprintf "N%d" id)
          ~klass:(if id = 3 then Ad.Stub else Ad.Hybrid)
          ~level:(if id = 3 then Ad.Campus else Ad.Metro))
  in
  let links =
    [|
      Link.make ~id:0 ~a:0 ~b:1 Link.Lateral;
      Link.make ~id:1 ~a:1 ~b:2 Link.Lateral;
      Link.make ~id:2 ~a:0 ~b:2 Link.Lateral;
      Link.make ~id:3 ~a:2 ~b:3 Link.Hierarchical;
    |]
  in
  Graph.create ads links

let e2_convergence () =
  section
    "E2. Convergence after link failure: count-to-infinity vs its fixes (4.3, 5.1.1)";
  note
    "Left: triangle + stub, failing the stub link (the classic bounce).\n\
     Right: 56-AD hierarchical internet, failing one regional link.\n";
  let t =
    Texttable.create
      ~columns:
        [
          ("protocol", Texttable.Left);
          ("tri msgs", Texttable.Right);
          ("tri time", Texttable.Right);
          ("hier msgs", Texttable.Right);
          ("hier time", Texttable.Right);
          ("converged", Texttable.Left);
        ]
  in
  let tri = count_to_infinity_graph () in
  let tri_scenario =
    { Scenario.label = "triangle"; graph = tri; config = Config.defaults tri; seed = 0 }
  in
  let scenario = Scenario.hierarchical ~seed:7 () in
  let hier = scenario.Scenario.graph in
  let hier_link =
    Graph.fold_links hier ~init:0 ~f:(fun acc l ->
        if
          l.Link.kind = Link.Hierarchical
          && (Graph.ad hier l.Link.a).Ad.level = Ad.Regional
        then l.Link.id
        else acc)
  in
  List.iter
    (fun name ->
      let packed = Registry.find name in
      let probe_tri = Experiment.convergence_after_failure packed tri_scenario ~link:3 in
      let probe_hier =
        Experiment.convergence_after_failure packed scenario ~link:hier_link
      in
      Texttable.add_row t
        [
          name;
          Texttable.cell_int probe_tri.Experiment.after_failure_messages;
          Texttable.cell_float ~decimals:1 probe_tri.Experiment.after_failure_time;
          Texttable.cell_int probe_hier.Experiment.after_failure_messages;
          Texttable.cell_float ~decimals:1 probe_hier.Experiment.after_failure_time;
          string_of_bool
            (probe_tri.Experiment.after_failure_converged
            && probe_hier.Experiment.after_failure_converged);
        ])
    [ "dv-plain"; "dv-split-horizon"; "ecma"; "idrp"; "link-state"; "ls-hbh-pt"; "orwg" ];
  Texttable.print t;
  note
    "\nExpected shape: dv-plain bounces (large message count and time on the\n\
     triangle); split horizon helps; ECMA's up/down rule and IDRP's AD path\n\
     suppress the bounce; link-state floods are cheap and fast.\n"

(* ------------------------------------------------------------------ *)
(* E3: ECMA expressiveness (section 5.1.1)                             *)
(* ------------------------------------------------------------------ *)

let e3_ecma_expressiveness () =
  section "E3. A single partial ordering cannot express arbitrary policies (5.1.1)";
  note
    "(a) Probability that a random set of k ordering constraints over 50 ADs\n\
     embeds in one partial order (200 trials per k).\n";
  let t =
    Texttable.create
      ~columns:[ ("constraints", Texttable.Right); ("embeddable", Texttable.Right) ]
  in
  let n = 50 in
  let rng = Rng.create 31 in
  List.iter
    (fun k ->
      let trials = 200 in
      let ok = ref 0 in
      for _ = 1 to trials do
        let cs =
          List.init k (fun _ ->
              let a = Rng.int rng n in
              let rec other () =
                let b = Rng.int rng n in
                if b = a then other () else b
              in
              { Partial_order.above = a; below = other () })
        in
        if Partial_order.embeddable ~n cs <> None then incr ok
      done;
      Texttable.add_row t
        [
          Texttable.cell_int k;
          Texttable.cell_pct (float_of_int !ok /. float_of_int trials);
        ])
    [ 5; 10; 25; 50; 100; 200; 400 ];
  Texttable.print t;
  note
    "\n(b) Source-specific policies projected onto ECMA vs protocols that carry\n\
     explicit policy terms (56-AD internet, 120 flows, source-specific\n\
     granularity, restrictiveness 0.5):\n";
  let policy =
    { Gen.default with restrictiveness = 0.5; granularity = Gen.Source_specific }
  in
  let scenario = Scenario.hierarchical ~policy ~seed:17 () in
  let rng = Rng.create 18 in
  let flows = Scenario.flows scenario ~rng ~count:120 () in
  let t =
    Texttable.create
      ~columns:
        [
          ("protocol", Texttable.Left);
          ("delivered", Texttable.Right);
          ("policy violations", Texttable.Right);
          ("avail loss", Texttable.Right);
        ]
  in
  List.iter
    (fun name ->
      let r = Experiment.evaluate (Registry.find name) scenario ~flows () in
      Texttable.add_row t
        [
          name;
          Printf.sprintf "%d/%d" r.Experiment.delivered r.Experiment.flows;
          Texttable.cell_int r.Experiment.transit_violations;
          Texttable.cell_int r.Experiment.availability_loss;
        ])
    [ "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ];
  Texttable.print t;
  note
    "\nExpected shape: ECMA delivers but violates the source-specific terms it\n\
     cannot express; the PT-carrying designs have zero violations.\n"

(* ------------------------------------------------------------------ *)
(* E4: IDRP and policy granularity (section 5.2.1)                     *)
(* ------------------------------------------------------------------ *)

let e4_idrp_granularity () =
  section "E4. IDRP: routing state vs policy granularity (5.2.1)";
  note
    "Figure-1 internet (14 ADs), 60 random-class flows. 'per-source' is the\n\
     variant that replicates routes per (QOS, UCI, source) to recover\n\
     availability — the table/byte blow-up the paper predicts.\n";
  let t =
    Texttable.create
      ~columns:
        [
          ("granularity", Texttable.Left);
          ("variant", Texttable.Left);
          ("tbl total", Texttable.Right);
          ("tbl max", Texttable.Right);
          ("update kbytes", Texttable.Right);
          ("delivered", Texttable.Right);
          ("avail loss", Texttable.Right);
          ("viol", Texttable.Right);
        ]
  in
  List.iter
    (fun granularity ->
      let policy = { Gen.default with restrictiveness = 0.6; granularity } in
      let scenario = Scenario.figure1 ~policy ~seed:23 () in
      let rng = Rng.create 29 in
      let flows = Scenario.flows scenario ~rng ~count:60 () in
      List.iter
        (fun name ->
          let r = Experiment.evaluate (Registry.find name) scenario ~flows () in
          Texttable.add_row t
            [
              Gen.granularity_to_string granularity;
              name;
              Texttable.cell_int r.Experiment.table_total;
              Texttable.cell_int r.Experiment.table_max;
              Texttable.cell_float ~decimals:1 (float_of_int r.Experiment.bytes /. 1024.);
              Printf.sprintf "%d/%d" r.Experiment.delivered r.Experiment.flows;
              Texttable.cell_int r.Experiment.availability_loss;
              Texttable.cell_int r.Experiment.transit_violations;
            ])
        [ "idrp"; "idrp-scoped"; "idrp-per-source" ];
      Texttable.add_separator t)
    Gen.all_granularities;
  Texttable.print t;
  note
    "\nExpected shape: per-source recovers any availability the coarse classes\n\
     lose, at roughly (number of source ADs) x the routing state and bytes.\n"

(* ------------------------------------------------------------------ *)
(* E5: the transit computation burden of LS hop-by-hop (section 5.3)   *)
(* ------------------------------------------------------------------ *)

let e5_lshbh_burden () =
  section "E5. Per-source route computation burden on transit ADs (5.3)";
  note
    "56-AD internet, 300 flows. Computation work units (states settled in\n\
     route searches) split by where they happen. ORWG moves synthesis to the\n\
     source's route server; LS hop-by-hop repeats it at every AD on the path.\n";
  let scenario = Scenario.hierarchical ~seed:41 () in
  let g = scenario.Scenario.graph in
  let rng = Rng.create 43 in
  let flows = Scenario.flows scenario ~rng ~count:300 () in
  let t =
    Texttable.create
      ~columns:
        [
          ("protocol", Texttable.Left);
          ("total comp", Texttable.Right);
          ("at transit ADs", Texttable.Right);
          ("at host ADs", Texttable.Right);
          ("busiest AD", Texttable.Right);
          ("tbl max", Texttable.Right);
        ]
  in
  let eval name =
    let (Registry.Packed (module P)) = Registry.find name in
    let module R = Runner.Make (P) in
    let r = R.setup g scenario.Scenario.config in
    ignore (R.converge r);
    List.iter (fun f -> ignore (R.send_flow r f)) flows;
    let m = R.metrics r in
    let transit = Graph.transit_ids g in
    let hosts = Graph.host_ids g in
    let sum ids = List.fold_left (fun acc ad -> acc + Metrics.computations_of m ad) 0 ids in
    let busiest =
      List.fold_left
        (fun acc ad -> Stdlib.max acc (Metrics.computations_of m ad))
        0
        (List.init (Graph.n g) (fun i -> i))
    in
    Texttable.add_row t
      [
        name;
        Texttable.cell_int (Metrics.computations m);
        Texttable.cell_int (sum transit);
        Texttable.cell_int (sum hosts);
        Texttable.cell_int busiest;
        Texttable.cell_int (R.max_table_entries r);
      ]
  in
  List.iter eval [ "link-state"; "ls-hbh-pt"; "orwg" ];
  Texttable.print t;
  note
    "\nExpected shape: ls-hbh-pt concentrates computation on transit ADs (every\n\
     AD on the path repeats the source's computation); ORWG's transit ADs only\n\
     validate setups, so its work sits at the host (source) ADs.\n"

(* ------------------------------------------------------------------ *)
(* E6: ORWG mechanics (section 5.4.1)                                  *)
(* ------------------------------------------------------------------ *)

let e6_orwg_overhead () =
  section "E6. ORWG route setup, handles and header overhead (5.4.1)";
  note
    "56-AD internet; 100 distinct flows, 5 packets each. Handles replace the\n\
     source route on packets after setup.\n";
  let scenario = Scenario.hierarchical ~seed:53 () in
  let g = scenario.Scenario.graph in
  let rng = Rng.create 59 in
  let flows = Scenario.flows scenario ~rng ~count:100 () in
  let t =
    Texttable.create
      ~columns:
        [
          ("variant", Texttable.Left);
          ("setups", Texttable.Right);
          ("cache hits", Texttable.Right);
          ("mean setup hops", Texttable.Right);
          ("mean header bytes", Texttable.Right);
          ("PG state entries", Texttable.Right);
          ("PG validations", Texttable.Right);
        ]
  in
  let eval name (module O : Pr_orwg.Orwg.S) =
    let module R = Runner.Make (O) in
    let r = R.setup g scenario.Scenario.config in
    ignore (R.converge r);
    let setups = ref 0 and hits = ref 0 in
    let setup_hops = ref [] and headers = ref [] in
    List.iter
      (fun f ->
        for _ = 1 to 5 do
          match R.send_flow r f with
          | Forwarding.Delivered { prep; header_bytes; _ } ->
            if prep.Packet.cache_hit then incr hits
            else begin
              incr setups;
              setup_hops := float_of_int prep.Packet.setup_hops :: !setup_hops
            end;
            headers := float_of_int header_bytes :: !headers
          | _ -> ()
        done)
      flows;
    let pg_total =
      List.fold_left
        (fun acc ad -> acc + O.pg_entries (R.protocol r) ad)
        0
        (List.init (Graph.n g) (fun i -> i))
    in
    let validations =
      List.fold_left
        (fun acc ad -> acc + O.validations (R.protocol r) ad)
        0
        (List.init (Graph.n g) (fun i -> i))
    in
    Texttable.add_row t
      [
        name;
        Texttable.cell_int !setups;
        Texttable.cell_int !hits;
        Texttable.cell_float (Stats.mean !setup_hops);
        Texttable.cell_float (Stats.mean !headers);
        Texttable.cell_int pg_total;
        Texttable.cell_int validations;
      ]
  in
  eval "orwg (handles)" (module Pr_orwg.Orwg.Orwg);
  eval "orwg-no-handles" (module Pr_orwg.Orwg.No_handles);
  Texttable.print t;
  note
    "\n(b) Source route-selection control across the four design points\n\
     (restrictive source policies on every host):\n";
  let policy = { Gen.default with restrictiveness = 0.5; source_policy_prob = 1.0 } in
  let scenario = Scenario.hierarchical ~policy ~seed:61 () in
  let rng = Rng.create 67 in
  let flows = Scenario.flows scenario ~rng ~count:120 () in
  let t =
    Texttable.create
      ~columns:
        [
          ("protocol", Texttable.Left);
          ("delivered", Texttable.Right);
          ("source-policy violations", Texttable.Right);
        ]
  in
  List.iter
    (fun name ->
      let r = Experiment.evaluate (Registry.find name) scenario ~flows () in
      Texttable.add_row t
        [
          name;
          Printf.sprintf "%d/%d" r.Experiment.delivered r.Experiment.flows;
          Texttable.cell_int r.Experiment.source_violations;
        ])
    [ "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ];
  Texttable.print t;
  note "\nExpected shape: only the source-routing design honors source policies.\n"

(* ------------------------------------------------------------------ *)
(* E7: route synthesis strategies (section 6, open issue 1)            *)
(* ------------------------------------------------------------------ *)

let e7_synthesis () =
  section "E7. Route synthesis: precomputation vs on-demand vs hybrid (section 6)";
  note
    "56-AD internet; workload of 152 packets drawn from 40 distinct\n\
     destination/class pairs. Precompute installs policy routes for host\n\
     pairs ahead of traffic.\n";
  let scenario = Scenario.hierarchical ~seed:71 () in
  let g = scenario.Scenario.graph in
  let module O = Pr_orwg.Orwg.Orwg in
  let module R = Runner.Make (O) in
  let rng = Rng.create 73 in
  let base_flows = Scenario.flows scenario ~rng ~count:40 ~classes:false () in
  let workload = List.concat (List.init 4 (fun _ -> Rng.sample rng 38 base_flows)) in
  let all_pairs = Scenario.all_host_pairs scenario in
  let t =
    Texttable.create
      ~columns:
        [
          ("strategy", Texttable.Left);
          ("precomputed", Texttable.Right);
          ("upfront comp", Texttable.Right);
          ("wl setups", Texttable.Right);
          ("wl cache hits", Texttable.Right);
          ("mean setup hops", Texttable.Right);
          ("total comp", Texttable.Right);
        ]
  in
  let run strategy precompute_list =
    let r = R.setup g scenario.Scenario.config in
    ignore (R.converge r);
    let before = Metrics.computations (R.metrics r) in
    let installed = O.precompute_flows (R.protocol r) precompute_list in
    let upfront = Metrics.computations (R.metrics r) - before in
    let setups = ref 0 and hits = ref 0 and hop_list = ref [] in
    List.iter
      (fun f ->
        match R.send_flow r f with
        | Forwarding.Delivered { prep; _ }
        | Forwarding.Dropped { prep; _ }
        | Forwarding.Looped { prep; _ }
        | Forwarding.Prep_failed { prep; _ } ->
          if prep.Packet.cache_hit then incr hits
          else if prep.Packet.failure = None then begin
            incr setups;
            hop_list := float_of_int prep.Packet.setup_hops :: !hop_list
          end)
      workload;
    Texttable.add_row t
      [
        strategy;
        Texttable.cell_int installed;
        Texttable.cell_int upfront;
        Texttable.cell_int !setups;
        Texttable.cell_int !hits;
        Texttable.cell_float (Stats.mean !hop_list);
        Texttable.cell_int (Metrics.computations (R.metrics r));
      ]
  in
  run "on-demand" [];
  let hybrid_rng = Rng.create 79 in
  run "hybrid (25% of pairs)" (Rng.sample hybrid_rng (List.length all_pairs / 4) all_pairs);
  run "precompute all pairs" all_pairs;
  Texttable.print t;
  note
    "\n(b) Pruning heuristic: search work to synthesize a route for every host\n\
     pair. The optimistic strategy searches over single ADs (ignoring\n\
     prev/next-hop terms), validates exactly, and falls back to the full\n\
     (AD, arrived-from) state search only on rejection:\n";
  let t =
    Texttable.create
      ~columns:
        [
          ("synthesis", Texttable.Left);
          ("routes found", Texttable.Right);
          ("search work", Texttable.Right);
          ("work per route", Texttable.Right);
        ]
  in
  let synth_run name (module O : Pr_orwg.Orwg.S) =
    let module R = Runner.Make (O) in
    let r = R.setup g scenario.Scenario.config in
    ignore (R.converge r);
    let found = ref 0 in
    List.iter
      (fun f -> if Forwarding.delivered (R.send_flow r f) then incr found)
      all_pairs;
    let work = Metrics.computations (R.metrics r) in
    Texttable.add_row t
      [
        name;
        Printf.sprintf "%d/%d" !found (List.length all_pairs);
        Texttable.cell_int work;
        Texttable.cell_float (Stats.ratio (float_of_int work) (float_of_int !found));
      ]
  in
  synth_run "exact state search" (module Pr_orwg.Orwg.Orwg);
  synth_run "optimistic + exact fallback" (module Pr_orwg.Orwg.Pruned);
  Texttable.print t;
  note
    "\nExpected shape: precomputation trades a large upfront synthesis bill for\n\
     zero setup latency on the workload; hybrid sits in between; the\n\
     optimistic heuristic finds exactly the same routes for less search\n\
     work (section 6 calls for exactly these heuristics).\n"

(* ------------------------------------------------------------------ *)
(* E8: scaling (section 2.2)                                           *)
(* ------------------------------------------------------------------ *)

let e8_scaling () =
  section "E8. Scaling the internet: control traffic and state (2.2)";
  note "Initial convergence cost as the internet grows (no data traffic).\n";
  let t =
    Texttable.create
      ~columns:
        [
          ("ADs", Texttable.Right);
          ("protocol", Texttable.Left);
          ("messages", Texttable.Right);
          ("kbytes", Texttable.Right);
          ("sim time", Texttable.Right);
          ("tbl max", Texttable.Right);
        ]
  in
  List.iter
    (fun target ->
      let scenario = Scenario.sized ~target_ads:target ~seed:83 () in
      let g = scenario.Scenario.graph in
      List.iter
        (fun name ->
          (* The path-vector RIB at 200 ADs exceeds a sensible budget:
             IDRP is measured up to 100, matching the paper's concern
             that fine state does not scale. *)
          if not (name = "idrp" && Graph.n g > 150) then begin
            let (Registry.Packed (module P)) = Registry.find name in
            let module R = Runner.Make (P) in
            let r = R.setup g scenario.Scenario.config in
            let c = R.converge ~max_events:30_000_000 r in
            Texttable.add_row t
              [
                Texttable.cell_int (Graph.n g);
                name;
                Texttable.cell_int c.Runner.messages;
                Texttable.cell_float ~decimals:0 (float_of_int c.Runner.bytes /. 1024.);
                Texttable.cell_float ~decimals:1 c.Runner.sim_time;
                Texttable.cell_int (R.max_table_entries r);
              ]
          end)
        [ "dv-plain"; "link-state"; "egp"; "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ];
      Texttable.add_separator t)
    [ 25; 50; 100; 200 ];
  Texttable.print t;
  note
    "\nExpected shape: DV-family messages grow fastest; ECMA multiplies DV by\n\
     its QOS classes; IDRP bytes grow with path lengths and policy attributes\n\
     (omitted at 200 ADs — it no longer fits a reasonable budget, the paper's\n\
     point); the LS designs share flooding costs.\n"

(* ------------------------------------------------------------------ *)
(* E9: availability vs restrictiveness (sections 2.3 and 5)             *)
(* ------------------------------------------------------------------ *)

let e9_availability () =
  section "E9. Route availability and policy compliance vs restrictiveness (2.3, 5)";
  note
    "56-AD internet, 120 flows, source-specific granularity; sweeping how\n\
     restrictive AD policies are. Violations = delivered over a path some\n\
     transit AD's policy forbids; loss = a legal, source-acceptable route\n\
     exists but was not delivered.\n";
  let t =
    Texttable.create
      ~columns:
        [
          ("restrictiveness", Texttable.Right);
          ("protocol", Texttable.Left);
          ("delivered", Texttable.Right);
          ("viol", Texttable.Right);
          ("src viol", Texttable.Right);
          ("avail loss", Texttable.Right);
        ]
  in
  List.iter
    (fun r_level ->
      let policy = { Gen.default with restrictiveness = r_level } in
      let scenario = Scenario.hierarchical ~policy ~seed:89 () in
      let rng = Rng.create 97 in
      let flows = Scenario.flows scenario ~rng ~count:120 () in
      List.iter
        (fun name ->
          let r = Experiment.evaluate (Registry.find name) scenario ~flows () in
          Texttable.add_row t
            [
              Texttable.cell_float ~decimals:1 r_level;
              name;
              Printf.sprintf "%d/%d" r.Experiment.delivered r.Experiment.flows;
              Texttable.cell_int r.Experiment.transit_violations;
              Texttable.cell_int r.Experiment.source_violations;
              Texttable.cell_int r.Experiment.availability_loss;
            ])
        [ "dv-plain"; "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ];
      Texttable.add_separator t)
    [ 0.0; 0.2; 0.4; 0.6; 0.8 ];
  Texttable.print t;
  note
    "\nExpected shape: the baseline violates more as policies tighten; ECMA\n\
     violates what the ordering cannot express; IDRP trades violations for\n\
     loss; the LS+PT designs stay compliant, and only ORWG also satisfies\n\
     source policies.\n"

(* ------------------------------------------------------------------ *)
(* E10: forwarding loops during convergence (sections 2.1, 4.4)        *)
(* ------------------------------------------------------------------ *)

let e10_loops () =
  section "E10. Forwarding loops under churn: hop-by-hop vs source routing (4.4)";
  note
    "56-AD internet. A backbone link fails; forwarding is sampled while the\n\
     control plane is still reacting (after only 40 events), then again\n\
     after full reconvergence. Source-routed packets cannot loop.\n";
  let scenario = Scenario.hierarchical ~seed:101 () in
  let g = scenario.Scenario.graph in
  let rng = Rng.create 103 in
  let flows = Scenario.flows scenario ~rng ~count:200 () in
  let link =
    Graph.fold_links g ~init:0 ~f:(fun acc l ->
        if
          l.Link.kind = Link.Hierarchical
          && (Graph.ad g l.Link.a).Ad.level = Ad.Backbone
        then l.Link.id
        else acc)
  in
  let t =
    Texttable.create
      ~columns:
        [
          ("protocol", Texttable.Left);
          ("loops mid-conv", Texttable.Right);
          ("drops mid-conv", Texttable.Right);
          ("loops converged", Texttable.Right);
          ("delivered converged", Texttable.Right);
        ]
  in
  List.iter
    (fun name ->
      let (Registry.Packed (module P)) = Registry.find name in
      let module R = Runner.Make (P) in
      let r = R.setup g scenario.Scenario.config in
      ignore (R.converge r);
      (* Warm the data plane (ORWG setups, LS-HBH caches). *)
      List.iter (fun f -> ignore (R.send_flow r f)) flows;
      R.fail_link r link;
      ignore (R.converge ~max_events:40 r);
      let mid_loops = ref 0 and mid_drops = ref 0 in
      List.iter
        (fun f ->
          match R.send_flow r f with
          | Forwarding.Looped _ -> incr mid_loops
          | Forwarding.Dropped _ | Forwarding.Prep_failed _ -> incr mid_drops
          | Forwarding.Delivered _ -> ())
        flows;
      ignore (R.converge ~max_events:30_000_000 r);
      let post_loops = ref 0 and post_delivered = ref 0 in
      List.iter
        (fun f ->
          match R.send_flow r f with
          | Forwarding.Looped _ -> incr post_loops
          | Forwarding.Delivered _ -> incr post_delivered
          | Forwarding.Dropped _ | Forwarding.Prep_failed _ -> ())
        flows;
      Texttable.add_row t
        [
          name;
          Texttable.cell_int !mid_loops;
          Texttable.cell_int !mid_drops;
          Texttable.cell_int !post_loops;
          Printf.sprintf "%d/%d" !post_delivered (List.length flows);
        ])
    [ "dv-plain"; "egp"; "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ];
  Texttable.print t;
  note
    "\nExpected shape: hop-by-hop designs may loop or blackhole transiently;\n\
     ORWG never loops — stale source routes fail fast and are re-synthesized\n\
     once the databases catch up. ORWG flows still undelivered after\n\
     reconvergence are source-policy refusals the oracle confirms: no\n\
     source-acceptable legal route survives the failure.\n"

(* ------------------------------------------------------------------ *)
(* E11: policy gateway state limitations (section 6, ablation)         *)
(* ------------------------------------------------------------------ *)

let e11_pg_state () =
  section "E11. Policy gateway state management and limitations (section 6)";
  note
    "56-AD internet; 250 distinct flows set up, then each sent once more.\n\
     Gateways hold at most N setup-state entries (LRU): packets on evicted\n\
     handles are dropped, the source is notified and re-sets-up.\n";
  let scenario = Scenario.hierarchical ~seed:113 () in
  let g = scenario.Scenario.graph in
  let t =
    Texttable.create
      ~columns:
        [
          ("PG capacity", Texttable.Left);
          ("pass-2 hits", Texttable.Right);
          ("evicted-handle drops", Texttable.Right);
          ("re-setups (pass 3)", Texttable.Right);
          ("total evictions", Texttable.Right);
          ("busiest PG entries", Texttable.Right);
        ]
  in
  let run label (module O : Pr_orwg.Orwg.S) =
    let module R = Runner.Make (O) in
    let rng = Rng.create 127 in
    let flows = Scenario.flows scenario ~rng ~count:250 () in
    let r = R.setup g scenario.Scenario.config in
    ignore (R.converge r);
    (* Pass 1: set everything up. *)
    List.iter (fun f -> ignore (R.send_flow r f)) flows;
    (* Pass 2: resend; bounded gateways have evicted old handles. *)
    let hits = ref 0 and evicted = ref 0 in
    List.iter
      (fun f ->
        match R.send_flow r f with
        | Forwarding.Delivered { prep; _ } -> if prep.Packet.cache_hit then incr hits
        | Forwarding.Dropped _ -> incr evicted
        | _ -> ())
      flows;
    (* Pass 3: the drops notified the sources; count the repair bill. *)
    let resetups = ref 0 in
    List.iter
      (fun f ->
        match R.send_flow r f with
        | Forwarding.Delivered { prep; _ } when not prep.Packet.cache_hit -> incr resetups
        | _ -> ())
      flows;
    let evictions =
      List.fold_left
        (fun acc ad -> acc + O.evictions (R.protocol r) ad)
        0
        (List.init (Graph.n g) (fun i -> i))
    in
    let busiest =
      List.fold_left
        (fun acc ad -> Stdlib.max acc (O.pg_entries (R.protocol r) ad))
        0
        (List.init (Graph.n g) (fun i -> i))
    in
    Texttable.add_row t
      [
        label;
        Texttable.cell_int !hits;
        Texttable.cell_int !evicted;
        Texttable.cell_int !resetups;
        Texttable.cell_int evictions;
        Texttable.cell_int busiest;
      ]
  in
  let module Pg8 = Pr_orwg.Orwg.Bounded_pg (struct
    let capacity = 8
  end) in
  let module Pg16 = Pr_orwg.Orwg.Bounded_pg (struct
    let capacity = 16
  end) in
  let module Pg32 = Pr_orwg.Orwg.Bounded_pg (struct
    let capacity = 32
  end) in
  let module Pg64 = Pr_orwg.Orwg.Bounded_pg (struct
    let capacity = 64
  end) in
  run "8" (module Pg8);
  run "16" (module Pg16);
  run "32" (module Pg32);
  run "64" (module Pg64);
  run "unbounded" (module Pr_orwg.Orwg.Orwg);
  Texttable.print t;
  note
    "\nExpected shape: below the working set, gateways thrash — every resend\n\
     drops once and pays a fresh setup; above it, behaviour matches the\n\
     unbounded gateway. The knee locates the state a PG actually needs,\n\
     the open question section 6 raises.\n"

(* ------------------------------------------------------------------ *)
(* E12: sustained churn (section 2.2)                                  *)
(* ------------------------------------------------------------------ *)

let e12_churn () =
  section "E12. Sustained topology churn: adaptivity without static routes (2.2)";
  note
    "56-AD internet; 15 cycles of (fail a random link, reconverge, sample\n\
     60 flows, restore, reconverge). Totals over the whole run.\n";
  let scenario = Scenario.hierarchical ~seed:131 () in
  let g = scenario.Scenario.graph in
  let t =
    Texttable.create
      ~columns:
        [
          ("protocol", Texttable.Left);
          ("control msgs", Texttable.Right);
          ("control kbytes", Texttable.Right);
          ("delivered", Texttable.Right);
          ("looped", Texttable.Right);
          ("violations", Texttable.Right);
          ("all converged", Texttable.Left);
        ]
  in
  List.iter
    (fun name ->
      let (Registry.Packed (module P)) = Registry.find name in
      let module R = Runner.Make (P) in
      let rng = Rng.create 137 in
      let flows_rng = Rng.create 139 in
      let r = R.setup g scenario.Scenario.config in
      ignore (R.converge r);
      let delivered = ref 0 and looped = ref 0 and total = ref 0 in
      let violations = ref 0 in
      let all_converged = ref true in
      for _ = 1 to 15 do
        let lid = Rng.int rng (Graph.num_links g) in
        R.fail_link r lid;
        let c1 = R.converge ~max_events:10_000_000 r in
        let flows = Scenario.flows scenario ~rng:flows_rng ~count:60 () in
        List.iter
          (fun f ->
            incr total;
            match R.send_flow r f with
            | Forwarding.Delivered { path; _ } ->
              incr delivered;
              if not (Validate.transit_legal g scenario.Scenario.config f path) then
                incr violations
            | Forwarding.Looped _ -> incr looped
            | _ -> ())
          flows;
        R.restore_link r lid;
        let c2 = R.converge ~max_events:10_000_000 r in
        if not (c1.Runner.converged && c2.Runner.converged) then all_converged := false
      done;
      let m = R.metrics r in
      Texttable.add_row t
        [
          name;
          Texttable.cell_int (Metrics.messages m);
          Texttable.cell_float ~decimals:0 (float_of_int (Metrics.bytes m) /. 1024.);
          Printf.sprintf "%d/%d" !delivered !total;
          Texttable.cell_int !looped;
          Texttable.cell_int !violations;
          string_of_bool !all_converged;
        ])
    [ "dv-plain"; "link-state"; "egp"; "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ];
  Texttable.print t;
  note
    "\nExpected shape: every protocol reconverges each time (the model's\n\
     adaptivity requirement, section 2.2); EGP accumulates silent loops;\n\
     the violating baselines deliver everything, the policy designs stay\n\
     clean. Legality is judged against the policies, which do not depend\n\
     on which link happens to be down.\n"

(* ------------------------------------------------------------------ *)
(* E13: database distribution strategies (section 6, open issue 2)     *)
(* ------------------------------------------------------------------ *)

let e13_database_distribution () =
  section "E13. Database distribution: full flooding vs stub delegation (section 6)";
  note
    "Most ADs are stubs; under delegation LSAs flood only among transit-\n\
     capable ADs and stub sources query their provider's route server\n\
     (two control messages per synthesis) instead of holding databases.\n\
     200 flows after convergence; one link failure and reflood included.\n";
  let t =
    Texttable.create
      ~columns:
        [
          ("ADs", Texttable.Right);
          ("strategy", Texttable.Left);
          ("flood msgs", Texttable.Right);
          ("flood kbytes", Texttable.Right);
          ("mean stub DB", Texttable.Right);
          ("delivered", Texttable.Right);
          ("total msgs", Texttable.Right);
        ]
  in
  List.iter
    (fun target ->
      let scenario = Scenario.sized ~target_ads:target ~seed:149 () in
      let g = scenario.Scenario.graph in
      let stubs = Graph.stub_ids g in
      let run name (module O : Pr_orwg.Orwg.S) =
        let module R = Runner.Make (O) in
        let rng = Rng.create 151 in
        let flows = Scenario.flows scenario ~rng ~count:200 () in
        let r = R.setup g scenario.Scenario.config in
        let c = R.converge r in
        let delivered = ref 0 in
        List.iter
          (fun f -> if Forwarding.delivered (R.send_flow r f) then incr delivered)
          flows;
        (* A failure exercises refloods under both strategies. *)
        let lid =
          Graph.fold_links g ~init:0 ~f:(fun acc l ->
              if l.Link.kind = Link.Lateral then l.Link.id else acc)
        in
        R.fail_link r lid;
        ignore (R.converge r);
        List.iter (fun f -> ignore (R.send_flow r f)) flows;
        let mean_stub_db =
          Stats.mean
            (List.map (fun ad -> float_of_int (O.db_entries (R.protocol r) ad)) stubs)
        in
        Texttable.add_row t
          [
            Texttable.cell_int (Graph.n g);
            name;
            Texttable.cell_int c.Runner.messages;
            Texttable.cell_float ~decimals:0 (float_of_int c.Runner.bytes /. 1024.);
            Texttable.cell_float mean_stub_db;
            Printf.sprintf "%d/%d" !delivered (List.length flows);
            Texttable.cell_int (Metrics.messages (R.metrics r));
          ]
      in
      run "full flooding" (module Pr_orwg.Orwg.Orwg);
      run "stub delegation" (module Pr_orwg.Orwg.Delegated);
      Texttable.add_separator t)
    [ 56; 104 ];
  Texttable.print t;
  note
    "\nExpected shape: delegation removes the stub share of flooding (most of\n\
     it) and empties stub databases, at identical delivery — the query cost\n\
     is per synthesis, not per packet.\n"

(* ------------------------------------------------------------------ *)
(* E14: logical cluster replication (section 5.1.1, footnote 4)        *)
(* ------------------------------------------------------------------ *)

let e14_replication () =
  section "E14. Expressing prev/next-hop policy by logical replication (5.1.1 fn. 4)";
  note
    "Diamond internet: cheap transit X, costly transit Y between hosts A and\n\
     B; C is X's customer. X's intent: carry C's traffic only, no A<->B\n\
     transit. The intent is inexpressible in one partial ordering; it can be\n\
     expressed by replicating X into logical clusters X{A,C} and X{B,C} —\n\
     at the cost of extra logical nodes and addresses — or directly by\n\
     policy terms (ORWG), at no topological cost.\n";
  let ads =
    [|
      Ad.make ~id:0 ~name:"A" ~klass:Ad.Hybrid ~level:Ad.Metro;
      Ad.make ~id:1 ~name:"B" ~klass:Ad.Hybrid ~level:Ad.Metro;
      Ad.make ~id:2 ~name:"X" ~klass:Ad.Transit ~level:Ad.Regional;
      Ad.make ~id:3 ~name:"Y" ~klass:Ad.Transit ~level:Ad.Regional;
      Ad.make ~id:4 ~name:"C" ~klass:Ad.Stub ~level:Ad.Campus;
    |]
  in
  let links =
    [|
      Link.make ~id:0 ~a:2 ~b:0 ~cost:1 Link.Hierarchical;
      Link.make ~id:1 ~a:2 ~b:1 ~cost:1 Link.Hierarchical;
      Link.make ~id:2 ~a:3 ~b:0 ~cost:3 Link.Hierarchical;
      Link.make ~id:3 ~a:3 ~b:1 ~cost:3 Link.Hierarchical;
      Link.make ~id:4 ~a:2 ~b:4 ~cost:1 Link.Hierarchical;
    |]
  in
  let g = Graph.create ads links in
  let intent =
    let transit =
      Array.map
        (fun (a : Ad.t) ->
          if a.Ad.id = 2 then
            Pr_policy.Transit_policy.make 2
              [
                Pr_policy.Policy_term.make ~owner:2
                  ~sources:(Pr_policy.Policy_term.Only [| 4 |]) ();
                Pr_policy.Policy_term.make ~owner:2
                  ~destinations:(Pr_policy.Policy_term.Only [| 4 |]) ();
              ]
          else if Ad.is_transit_capable a then
            Pr_policy.Transit_policy.open_transit a.Ad.id
          else Pr_policy.Transit_policy.no_transit a.Ad.id)
        (Graph.ads g)
    in
    Config.make ~transit ()
  in
  let mapping =
    Pr_ecma.Replication.expand g
      [ { Pr_ecma.Replication.ad = 2; groups = [ [ 0; 4 ]; [ 1; 4 ] ] } ]
  in
  let expanded = mapping.Pr_ecma.Replication.expanded in
  let flows =
    [ (0, 1); (1, 0); (0, 4); (4, 0); (1, 4); (4, 1) ]
    |> List.map (fun (src, dst) -> Flow.make ~src ~dst ())
  in
  let t =
    Texttable.create
      ~columns:
        [
          ("configuration", Texttable.Left);
          ("nodes", Texttable.Right);
          ("delivered", Texttable.Right);
          ("intent violations", Texttable.Right);
          ("tbl total", Texttable.Right);
        ]
  in
  let judge g_run collapse label =
    let module R = Runner.Make (Pr_ecma.Ecma) in
    let r = R.setup g_run (Config.defaults g_run) in
    ignore (R.converge r);
    let delivered = ref 0 and violations = ref 0 in
    List.iter
      (fun f ->
        match R.send_flow r f with
        | Forwarding.Delivered { path; _ } ->
          incr delivered;
          let physical = collapse path in
          if not (Validate.transit_legal g intent f physical) then incr violations
        | _ -> ())
      flows;
    Texttable.add_row t
      [
        label;
        Texttable.cell_int (Graph.n g_run);
        Printf.sprintf "%d/%d" !delivered (List.length flows);
        Texttable.cell_int !violations;
        Texttable.cell_int (R.table_entries r);
      ]
  in
  judge g (fun p -> p) "ecma, physical topology";
  judge expanded (Pr_ecma.Replication.collapse_path mapping) "ecma, X replicated";
  (* ORWG expresses the intent directly with policy terms. *)
  let module Ro = Runner.Make (Pr_orwg.Orwg.Orwg) in
  let ro = Ro.setup g intent in
  ignore (Ro.converge ro);
  let delivered = ref 0 and violations = ref 0 in
  List.iter
    (fun f ->
      match Ro.send_flow ro f with
      | Forwarding.Delivered { path; _ } ->
        incr delivered;
        if not (Validate.transit_legal g intent f path) then incr violations
      | _ -> ())
    flows;
  Texttable.add_row t
    [
      "orwg, policy terms";
      Texttable.cell_int (Graph.n g);
      Printf.sprintf "%d/%d" !delivered (List.length flows);
      Texttable.cell_int !violations;
      Texttable.cell_int (Ro.table_entries ro);
    ];
  Texttable.print t;
  note
    "\nExpected shape: plain ECMA delivers everything but violates the intent\n\
     on A<->B; replication enforces it structurally (traffic shifts to Y) at\n\
     the cost of an extra logical node and larger tables; explicit policy\n\
     terms achieve the same compliance with no topological cost — the\n\
     paper's argument for PTs over policy-in-topology.\n"

(* ------------------------------------------------------------------ *)
(* E15: QOS routing — one tree per class (sections 2.3 and 3)          *)
(* ------------------------------------------------------------------ *)

let e15_qos_routing () =
  section "E15. QOS routing: one spanning tree per class, not per source (2.3, 3)";
  note
    "56-AD internet with heterogeneous link delays. Each sampled host pair\n\
     sends one flow per service class through ORWG; per class we report the\n\
     mean delay and cost of the delivered paths, and how often the class's\n\
     path differs from the default one. Below, the state bill of per-QOS\n\
     trees (ECMA) vs per-source routes (IDRP per-source) on the same small\n\
     internet — the paper's point that QOS multiplies state by a constant\n\
     while source-specific policy multiplies it by the number of ADs.\n";
  let topology = { Generator.default with max_delay = 4.0; max_cost = 3 } in
  let scenario = Scenario.hierarchical ~topology ~seed:163 () in
  let g = scenario.Scenario.graph in
  let module R = Runner.Make (Pr_orwg.Orwg.Orwg) in
  let r = R.setup g scenario.Scenario.config in
  ignore (R.converge r);
  let rng = Rng.create 167 in
  let pairs =
    Scenario.flows scenario ~rng ~count:120 ~classes:false ()
    |> List.map (fun (f : Flow.t) -> (f.Flow.src, f.Flow.dst))
  in
  let t =
    Texttable.create
      ~columns:
        [
          ("QOS class", Texttable.Left);
          ("delivered", Texttable.Right);
          ("mean delay", Texttable.Right);
          ("mean cost", Texttable.Right);
          ("path differs from default", Texttable.Right);
        ]
  in
  let default_paths = Hashtbl.create 128 in
  List.iter
    (fun qos ->
      let delays = ref [] and costs = ref [] in
      let delivered = ref 0 and differs = ref 0 in
      List.iter
        (fun (src, dst) ->
          match R.send_flow r (Flow.make ~src ~dst ~qos ()) with
          | Forwarding.Delivered { path; _ } ->
            incr delivered;
            (match Pr_proto.Qos_metric.path_delay g path with
            | Some d -> delays := d :: !delays
            | None -> ());
            (match Path.cost g path with
            | Some c -> costs := float_of_int c :: !costs
            | None -> ());
            if qos = Qos.Default then Hashtbl.replace default_paths (src, dst) path
            else if
              Hashtbl.find_opt default_paths (src, dst) <> None
              && Hashtbl.find_opt default_paths (src, dst) <> Some path
            then incr differs
          | _ -> ())
        pairs;
      Texttable.add_row t
        [
          Qos.to_string qos;
          Printf.sprintf "%d/%d" !delivered (List.length pairs);
          Texttable.cell_float (Stats.mean !delays);
          Texttable.cell_float (Stats.mean !costs);
          (if qos = Qos.Default then "-" else Texttable.cell_int !differs);
        ])
    Qos.all;
  Texttable.print t;
  note "\nState bill on the Figure-1 internet (14 ADs, 8 host ADs):\n";
  let t =
    Texttable.create
      ~columns:
        [
          ("design", Texttable.Left);
          ("multiplier", Texttable.Left);
          ("tbl total", Texttable.Right);
        ]
  in
  let fig = Scenario.figure1 ~seed:173 () in
  let state name =
    let (Registry.Packed (module P)) = Registry.find name in
    let module R = Runner.Make (P) in
    let r = R.setup fig.Scenario.graph fig.Scenario.config in
    ignore (R.converge ~max_events:10_000_000 r);
    R.table_entries r
  in
  Texttable.add_row t
    [ "dv-plain (no QOS, no policy)"; "1x"; Texttable.cell_int (state "dv-plain") ];
  Texttable.add_row t
    [ "ecma (4 QOS trees)"; "x QOS classes"; Texttable.cell_int (state "ecma") ];
  Texttable.add_row t
    [
      "idrp-per-source (per-source routes)";
      "x source ADs x classes";
      Texttable.cell_int (state "idrp-per-source");
    ];
  Texttable.print t;
  note
    "\nExpected shape: low-delay traffic takes measurably faster, costlier\n\
     paths; reliability traffic takes fewer hops. QOS multiplies routing\n\
     state by the (small, fixed) number of classes, while source-specific\n\
     policy multiplies it by the number of ADs — \"the potential increase in\n\
     overhead is not as radical as with PR\" (section 2.3).\n"

(* ------------------------------------------------------------------ *)
(* E16: effects of internet topology on route synthesis (sections 2.1, 6) *)
(* ------------------------------------------------------------------ *)

let e16_topology_effects () =
  section "E16. Lateral and bypass links: benefit and cost (sections 2.1 and 6)";
  note
    "The model demands protocols \"work efficiently for the general\n\
     hierarchical case\" while accommodating lateral and bypass links\n\
     \"in a graceful manner\" with acceptable performance impact. Sweeping\n\
     their density on ~56-AD internets (120 flows through ORWG).\n";
  let t =
    Texttable.create
      ~columns:
        [
          ("lateral", Texttable.Right);
          ("bypass", Texttable.Right);
          ("links", Texttable.Right);
          ("delivered", Texttable.Right);
          ("mean hops", Texttable.Right);
          ("mean cost", Texttable.Right);
          ("synth work/route", Texttable.Right);
        ]
  in
  List.iter
    (fun (lateral_prob, bypass_prob) ->
      let topology = { Generator.default with lateral_prob; bypass_prob } in
      let scenario = Scenario.hierarchical ~topology ~seed:179 () in
      let g = scenario.Scenario.graph in
      let module R = Runner.Make (Pr_orwg.Orwg.Orwg) in
      let r = R.setup g scenario.Scenario.config in
      ignore (R.converge r);
      let rng = Rng.create 181 in
      let flows = Scenario.flows scenario ~rng ~count:120 ~classes:false () in
      let comp_before = Metrics.computations (R.metrics r) in
      let delivered = ref 0 and hops = ref [] and costs = ref [] in
      List.iter
        (fun f ->
          match R.send_flow r f with
          | Forwarding.Delivered { path; _ } ->
            incr delivered;
            hops := float_of_int (Path.hops path) :: !hops;
            (match Path.cost g path with
            | Some c -> costs := float_of_int c :: !costs
            | None -> ())
          | _ -> ())
        flows;
      let work = Metrics.computations (R.metrics r) - comp_before in
      Texttable.add_row t
        [
          Texttable.cell_float ~decimals:2 lateral_prob;
          Texttable.cell_float ~decimals:2 bypass_prob;
          Texttable.cell_int (Graph.num_links g);
          Printf.sprintf "%d/%d" !delivered (List.length flows);
          Texttable.cell_float (Stats.mean !hops);
          Texttable.cell_float (Stats.mean !costs);
          Texttable.cell_float
            (Stats.ratio (float_of_int work) (float_of_int !delivered));
        ])
    [ (0.0, 0.0); (0.15, 0.05); (0.3, 0.1); (0.6, 0.2); (1.0, 0.4) ];
  Texttable.print t;
  note
    "\nExpected shape: a pure hierarchy routes everything through the\n\
     backbones (longest, costliest paths, and some pairs unreachable under\n\
     policy); each increment of lateral/bypass density shortens routes and\n\
     raises availability, while per-route synthesis work stays near-flat —\n\
     the graceful accommodation the model demands (2.1), with the\n\
     performance impact showing up as database size rather than search\n\
     time.\n"

(* ------------------------------------------------------------------ *)
(* SYNTH: route-synthesis scaling on the CSR core                      *)
(* ------------------------------------------------------------------ *)

(* Machine-readable scaling benchmark: per-source shortest-path trees
   (Spf.tree, the synthesis kernel every link-state design repeats) on
   generated internets of 10^2..10^4 ADs. Reports ns per tree, words
   allocated per tree, and the live heap after synthesis; with [--json]
   the same numbers land in a JSON file for tracking across commits.

   Options (single-token, so the driver can tell them from experiment
   names): [--json], [--sizes=100,1000,10000], [--out=FILE]. *)

let synth_arg prefix =
  Array.to_list Sys.argv
  |> List.find_map (fun a ->
         if String.starts_with ~prefix a && String.length a > String.length prefix then
           Some (String.sub a (String.length prefix) (String.length a - String.length prefix))
         else None)

(* The scaling benchmarks below time each kernel with
   [Pr_telemetry.Timing] (least of several batches); [ops] is how many
   logical operations one call of a timed thunk performs. *)

(* Spf-tree scaling measurement: min-of-batches timing like every
   other kernel here, plus one counted pass outside the timed loop for
   the allocation figure (batching would smear GC noise into it). *)
let synth_measure g =
  let n = Graph.n g in
  let k = Stdlib.min 10 n in
  let sources = List.init k (fun i -> i * n / k) in
  let run_once () = List.iter (fun src -> ignore (Spf.tree g ~src)) sources in
  let reps = ref 0 in
  let ns =
    Timing.ns_per ~ops:k (fun () ->
        incr reps;
        run_once ())
  in
  let per_tree = Pr_telemetry.Alloc.words_per ~ops:k run_once in
  let live = (Gc.stat ()).Gc.live_words in
  (k, !reps, ns, per_tree, live)

(* The label kernel: the lower bounds the route server and the oracle
   cut their searches with, one node-level Dijkstra toward a
   destination through the kept ADs ([Policy_search.lower_bound]).
   Here the kept ADs are the transit-capable ones of an [Spf.tree]
   internet and the metric is the cheapest link per slot; [label_dsts]
   destinations spread over the AD range. Labels and settled nodes
   (one per kept AD a label reaches) are exact; ns and words per label,
   each a fresh array, are banded. *)
let label_dsts = 16

let label_measure g =
  let n = Graph.n g in
  let rows =
    Policy_search.restrict (Policy_search.of_graph g) ~keep:(fun u ->
        Ad.is_transit_capable (Graph.ad g u))
  in
  let metric = Array.init (Array.length (snd (Graph.unique_csr g))) (Graph.slot_cost g) in
  let q = Pr_util.Dial.create () in
  let dsts = List.init label_dsts (fun i -> i * n / label_dsts) in
  let build dst = Policy_search.lower_bound rows q ~dst ~metric in
  let settled =
    List.fold_left
      (fun acc dst -> Array.fold_left (fun a d -> if d < max_int then a + 1 else a) acc (build dst))
      0 dsts
  in
  let build_all () = List.iter (fun dst -> ignore (build dst)) dsts in
  let ns = Timing.ns_per ~ops:label_dsts build_all in
  let words = Pr_telemetry.Alloc.words_per ~ops:label_dsts build_all in
  (settled, ns, words)

(* The engine rungs: ORWG convergence on eight 56-AD internets, each
   set up and converged per repetition. Fault-free, it runs the event
   queue's plain runs and the network's broadcast fan-outs. Faulted,
   under the repository benchmark's plan (message delay and
   duplication, and a gateway crash with state loss and restart), it
   runs the copy-by-copy send path, the channel runs and the fault
   interposer on every message. Events and messages are exact; time
   and allocation are per executed event, set-up included. *)
let engine_plan = "delay:p=0.25,max=2,until=40;dup:p=0.1,until=40;crash:at=14,down=8"

let engine_ads = 56

let engine_internets = 8

let engine_measure ?plan () =
  let (Registry.Packed (module P)) = Option.get (Registry.find_opt "orwg") in
  let module R = Runner.Make (P) in
  let plan =
    Option.map
      (fun plan ->
        match Pr_faults.Plan.of_string plan with
        | Ok p -> p
        | Error e -> failwith ("engine plan: " ^ e))
      plan
  in
  let scenarios =
    List.init engine_internets (fun i ->
        (i + 1, Scenario.for_size ~target_ads:engine_ads ~seed:(i + 1) ()))
  in
  let events = ref 0 and messages = ref 0 in
  let run_all () =
    events := 0;
    messages := 0;
    List.iter
      (fun (seed, (sc : Scenario.t)) ->
        let r = R.setup sc.Scenario.graph sc.Scenario.config in
        Option.iter
          (fun plan ->
            ignore
              (Pr_faults.Nemesis.install (R.network r) ~rng:(Rng.derive seed "faults")
                 ~crash:(R.crash_ad r) ~restart:(R.restart_ad r) plan))
          plan;
        let c = R.converge r in
        if not c.Runner.converged then failwith "engine: a run did not converge";
        events := !events + c.Runner.events;
        messages := !messages + Metrics.messages (R.metrics r))
      scenarios
  in
  run_all ();
  let ev = !events and msgs = !messages in
  let ns = Timing.ns_per ~ops:ev run_all in
  let words = Pr_telemetry.Alloc.words_per ~ops:ev run_all in
  (ev, msgs, ns, words)

(* The policy mix the paper warns about (§5.2.1): most transit ADs
   restrictive, at per-(source set, UCI, QOS) granularity — the regime
   where admission checks dominate synthesis. *)
let restrictive_policy =
  { Gen.default with Gen.restrictiveness = 0.8; granularity = Gen.Fine }

(* A converged link-state database for a scenario without running the
   simulation: one LSA per AD carrying its configured Policy Terms and
   the cheapest up link per neighbor — exactly what flooding leaves
   behind. *)
let static_policy_db (scenario : Scenario.t) =
  let g = scenario.Scenario.graph in
  let config = scenario.Scenario.config in
  let n = Graph.n g in
  let db = Pr_proto.Lsdb.create ~n in
  for ad = 0 to n - 1 do
    let adjacencies =
      List.map
        (fun nbr ->
          let l = Graph.link g (Option.get (Graph.find_link g ad nbr)) in
          { Pr_proto.Lsdb.nbr; cost = l.Link.cost; delay = l.Link.delay })
        (Graph.neighbor_ids g ad)
    in
    ignore
      (Pr_proto.Lsdb.insert db
         (Pr_proto.Lsdb.make_lsa ~origin:ad ~seq:1 ~adjacencies
            ~terms:(Config.transit config ad).Pr_policy.Transit_policy.terms))
  done;
  db

(* The pre-compilation admission path: the AD's raw Policy Terms,
   read off the database and walked on every check. *)
let interpreted_admits db ad ctx =
  List.exists
    (fun term -> Pr_policy.Policy_term.admits term ctx)
    (Pr_proto.Lsdb.terms_of db ad)

(* Route synthesis (the LS-HBH/ORWG kernel: engine build + exact
   (node, arrived-from) search) on one scenario, timed with the
   interpreted admission path and again with the compiled one. Returns
   (flows, states the compiled searches settled in all, words one
   search-structure build allocates, interpreted ns/route, compiled
   ns/route). The build is the first [Lsdb.search_view] on a fresh copy
   of the database: the rows, the slot adjacencies and one QOS class's
   metrics, those of [Qos.Default]; exact. *)
let policy_synth_measure (scenario : Scenario.t) =
  let g = scenario.Scenario.graph in
  let n = Graph.n g in
  let db = static_policy_db scenario in
  let flows = Scenario.flows scenario ~rng:(Rng.create 213) ~count:10 () in
  (* The interpreted arm runs the same search as the compiled one. *)
  let interpreted_route (flow : Flow.t) =
    let rows, metrics = Pr_proto.Lsdb.search_view db flow.Flow.qos in
    let admit ad prev next =
      let hop x = if x < 0 then None else Some x in
      interpreted_admits db ad { Pr_policy.Policy_term.flow; prev = hop prev; next = hop next }
    in
    match
      Pr_topology.Policy_search.search
        (Pr_topology.Policy_search.shared_scratch ())
        rows ~src:flow.Flow.src ~dst:flow.Flow.dst
        ~metric:(fun _ _ k -> metrics.(k))
        ~admit ()
    with
    | Pr_topology.Policy_search.Route p -> Some p
    | Pr_topology.Policy_search.Revisits | Pr_topology.Policy_search.Unreachable -> None
  in
  let compiled_search flow =
    Pr_proto.Policy_route.shortest (Pr_proto.Policy_route.engine db ~n flow) ()
  in
  let compiled_route flow = fst (compiled_search flow) in
  let synthesize_all route () = List.iter (fun flow -> ignore (route flow)) flows in
  (* Both paths must synthesize identical routes — the equivalence the
     qcheck suite proves term-by-term, re-checked here end-to-end. *)
  let states =
    List.fold_left
      (fun states flow ->
        let path, settled = compiled_search flow in
        if interpreted_route flow <> path then
          failwith "policy_synth_measure: interpreted and compiled routes differ";
        states + settled)
      0 flows
  in
  let build_words =
    let fresh = static_policy_db scenario in
    Pr_telemetry.Alloc.words (fun () -> ignore (Pr_proto.Lsdb.search_view fresh Qos.Default))
  in
  let interp_ns, compiled_ns =
    Timing.pair_ns_per ~ops:(List.length flows)
      (synthesize_all interpreted_route) (synthesize_all compiled_route)
  in
  (List.length flows, states, int_of_float build_words, interp_ns, compiled_ns)

(* The oracle rung: the ground-truth classification every evaluation
   makes per flow ([Experiment.classify]): the best legal route under
   the source's criteria, else whether any legal route of at most
   [Experiment.oracle_max_hops] hops exists, each a state search over
   the carrying rows bounded by a cached label. [oracle_flows] flows on
   a restrictive-policy internet. Routes found, reachable flows and
   the states the searches settle are exact; ns per flow is banded. *)
let oracle_flows = 200

let oracle_measure (scenario : Scenario.t) =
  let g = scenario.Scenario.graph and config = scenario.Scenario.config in
  let flows = Scenario.flows scenario ~rng:(Rng.create 213) ~count:oracle_flows () in
  let max_hops = Experiment.oracle_max_hops in
  let classify flow =
    let best = Validate.best_legal g config flow ~max_hops in
    (best <> None, best <> None || Validate.route_exists g config flow ~max_hops)
  in
  let before = Validate.searched_states () in
  let classes = List.map classify flows in
  let states = Validate.searched_states () - before in
  let tally f = List.length (List.filter f classes) in
  let ns =
    Timing.ns_per ~ops:oracle_flows (fun () -> List.iter (fun f -> ignore (classify f)) flows)
  in
  (tally fst, tally snd, states, ns)

(* ------------------------------------------------------------------ *)
(* DELTA: incremental SPF repair vs full recompute, and hierarchical   *)
(* route synthesis, up to the paper's 10^5-AD scale (sections 2.2, 6)  *)
(* ------------------------------------------------------------------ *)

type delta_row = {
  d_target : int;
  d_ads : int;
  d_links : int;
  d_srcs : int;
  d_events : int;
  d_full_ns : float;
  d_incr_ns : float;
  d_clusters : int;
  d_pairs : int;
  d_stretch_mean : float;
  d_stretch_max : float;
  d_table_mean : float;
  d_route_ns : float;
}

let delta_measure target =
  let g = Generator.generate (Rng.create 211) (Generator.scaled ~target_ads:target) in
  let n = Graph.n g and m = Graph.num_links g in
  (* The event batch is a set of single-link down/up toggles spread
     across the link array: each pair restores the state it patched,
     so batches repeat cleanly. The full-recompute arm reruns a
     scratch Dijkstra per event, so its budget must shrink as n
     grows or the benchmark would spend minutes proving the obvious. *)
  let srcs, toggles =
    if n >= 50_000 then (1, 4) else if n >= 5_000 then (2, 16) else (4, 32)
  in
  let sources = List.init srcs (fun i -> i * n / srcs) in
  let lids = List.init toggles (fun i -> i * m / toggles) in
  let trees = List.map (fun src -> Spf_delta.create g ~src) sources in
  let up = Array.make m true in
  let cost = Array.init m (fun lid -> (Graph.link g lid).Link.cost) in
  let incr_arm () =
    List.iter
      (fun d ->
        List.iter
          (fun lid ->
            Spf_delta.set_link d lid ~up:false;
            Spf_delta.set_link d lid ~up:true)
          lids)
      trees
  in
  let full_arm () =
    List.iter
      (fun src ->
        List.iter
          (fun lid ->
            up.(lid) <- false;
            ignore (Spf.tree_state g ~up ~cost ~src);
            up.(lid) <- true;
            ignore (Spf.tree_state g ~up ~cost ~src))
          lids)
      sources
  in
  (* The two arms must agree before either is timed: after one batch
     of toggles the repaired trees are back at the static state. *)
  incr_arm ();
  List.iter2
    (fun d src ->
      if
        (Spf_delta.to_tree d).Spf.dist <> (Spf.tree g ~src).Spf.dist
        || Spf_delta.self_check d <> Ok ()
      then failwith "delta_measure: incremental and full SPF disagree")
    trees sources;
  let ops = srcs * toggles * 2 in
  let full_ns, incr_ns = Timing.pair_ns_per ~ops full_arm incr_arm in
  (* Hierarchical synthesis on the same internet: cluster-level routes
     stitched through border ADs, stretch measured against exact
     shortest paths from a few sampled sources. *)
  let h = Hierarchy.build g ~cluster_of:(Hierarchy.clusters_of_levels g) in
  let rng = Rng.create 223 in
  let hsrcs = List.init 4 (fun _ -> Rng.int rng n) in
  let pairs =
    List.concat_map (fun src -> List.init 6 (fun _ -> (src, Rng.int rng n))) hsrcs
  in
  let stretches = ref [] in
  List.iter
    (fun src ->
      let exact = Spf.tree g ~src in
      List.iter
        (fun (s, dst) ->
          if s = src && dst <> src then
            match Hierarchy.route h ~src ~dst with
            | None -> ()
            | Some p ->
              let c = Hierarchy.route_cost h p in
              if c > 0 && exact.Spf.dist.(dst) > 0 then
                stretches :=
                  (float_of_int c /. float_of_int exact.Spf.dist.(dst)) :: !stretches)
        pairs)
    hsrcs;
  let route_ns =
    Timing.ns_per ~ops:(List.length pairs) (fun () ->
        List.iter (fun (src, dst) -> ignore (Hierarchy.route h ~src ~dst)) pairs)
  in
  let table_total = ref 0 in
  for ad = 0 to n - 1 do
    table_total := !table_total + Hierarchy.table_entries h ad
  done;
  {
    d_target = target;
    d_ads = n;
    d_links = m;
    d_srcs = srcs;
    d_events = toggles * 2;
    d_full_ns = full_ns;
    d_incr_ns = incr_ns;
    d_clusters = Hierarchy.num_clusters h;
    d_pairs = List.length !stretches;
    d_stretch_mean = Stats.mean !stretches;
    d_stretch_max = List.fold_left Stdlib.max 1.0 !stretches;
    d_table_mean = float_of_int !table_total /. float_of_int n;
    d_route_ns = route_ns;
  }

let run_delta ~sizes =
  note
    "Single-link failure/recovery events on generated internets: a retained\n\
     Spf_delta tree repairs in O(affected region) while the full arm reruns\n\
     scratch Dijkstra per event. Hierarchical synthesis stitches cluster-\n\
     level routes through border ADs; stretch is route cost over the exact\n\
     shortest-path cost, sampled pairs.\n";
  let t =
    Texttable.create
      ~columns:
        [
          ("ADs", Texttable.Right);
          ("links", Texttable.Right);
          ("srcs", Texttable.Right);
          ("events", Texttable.Right);
          ("full ns/event", Texttable.Right);
          ("incr ns/event", Texttable.Right);
          ("speedup", Texttable.Right);
          ("clusters", Texttable.Right);
          ("stretch mean", Texttable.Right);
          ("stretch max", Texttable.Right);
          ("tbl mean", Texttable.Right);
          ("route ns", Texttable.Right);
        ]
  in
  let rows = List.map delta_measure sizes in
  List.iter
    (fun r ->
      Texttable.add_row t
        [
          Texttable.cell_int r.d_ads;
          Texttable.cell_int r.d_links;
          Texttable.cell_int r.d_srcs;
          Texttable.cell_int r.d_events;
          Texttable.cell_float ~decimals:0 r.d_full_ns;
          Texttable.cell_float ~decimals:0 r.d_incr_ns;
          Texttable.cell_float ~decimals:1 (r.d_full_ns /. r.d_incr_ns);
          Texttable.cell_int r.d_clusters;
          Texttable.cell_float r.d_stretch_mean;
          Texttable.cell_float r.d_stretch_max;
          Texttable.cell_float ~decimals:0 r.d_table_mean;
          Texttable.cell_float ~decimals:0 r.d_route_ns;
        ])
    rows;
  Texttable.print t;
  note
    "\nExpected shape: incremental repair cost tracks the affected region (a\n\
     few hundred nodes) while the full recompute tracks n, so the speedup\n\
     grows roughly linearly with the internet; hierarchical tables sit near\n\
     2*sqrt(n) entries against n for flat synthesis, at small stretch.\n";
  rows

let delta_sizes () =
  match synth_arg "--dsizes=" with
  | None -> [ 1_000; 10_000; 100_000 ]
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)

let delta () =
  section "DELTA. Incremental delta-SPF and hierarchical synthesis (2.2, 6)";
  ignore (run_delta ~sizes:(delta_sizes ()))

let synth () =
  let sizes =
    match synth_arg "--sizes=" with
    | None -> [ 100; 1_000; 10_000 ]
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
  in
  let psizes =
    match synth_arg "--psizes=" with
    | None -> [ 56; 120; 240 ]
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
  in
  let out = Option.value (synth_arg "--out=") ~default:"BENCH_synthesis.json" in
  let json = Array.exists (( = ) "--json") Sys.argv in
  section "SYNTH. Route-synthesis scaling on the CSR graph core (section 6)";
  note
    "Per-source shortest-path trees (the synthesis every link-state design\n\
     repeats) over generated internets; 10 sources per size, repeated until\n\
     the clock settles. ns/op is one full tree.\n";
  let t =
    Texttable.create
      ~columns:
        [
          ("ADs", Texttable.Right);
          ("links", Texttable.Right);
          ("srcs", Texttable.Right);
          ("reps", Texttable.Right);
          ("ns/op", Texttable.Right);
          ("alloc words/op", Texttable.Right);
          ("live words", Texttable.Right);
        ]
  in
  let results =
    List.map
      (fun target ->
        let g = Generator.generate (Rng.create 211) (Generator.scaled ~target_ads:target) in
        let sources, reps, ns, words, live = synth_measure g in
        Texttable.add_row t
          [
            Texttable.cell_int (Graph.n g);
            Texttable.cell_int (Graph.num_links g);
            Texttable.cell_int sources;
            Texttable.cell_int reps;
            Texttable.cell_float ~decimals:0 ns;
            Texttable.cell_float ~decimals:0 words;
            Texttable.cell_int live;
          ];
        (target, Graph.n g, Graph.num_links g, sources, reps, ns, words, live))
      sizes
  in
  Texttable.print t;
  note
    "\nSearch labels (Policy_search.lower_bound) toward %d destinations over\n\
     the transit-capable ADs of the same internets, at 10^3 ADs and up:\n"
    label_dsts;
  let lt =
    Texttable.create
      ~columns:
        [
          ("ADs", Texttable.Right);
          ("labels", Texttable.Right);
          ("settled", Texttable.Right);
          ("ns/label", Texttable.Right);
          ("alloc words/label", Texttable.Right);
        ]
  in
  let lresults =
    List.filter_map
      (fun target ->
        if target < 1_000 then None
        else begin
          let g = Generator.generate (Rng.create 211) (Generator.scaled ~target_ads:target) in
          let settled, ns, words = label_measure g in
          Texttable.add_row lt
            [
              Texttable.cell_int (Graph.n g);
              Texttable.cell_int label_dsts;
              Texttable.cell_int settled;
              Texttable.cell_float ~decimals:0 ns;
              Texttable.cell_float ~decimals:0 words;
            ];
          Some (target, Graph.n g, settled, ns, words)
        end)
      sizes
  in
  Texttable.print lt;
  note
    "\nRestrictive-policy route synthesis (the LS-HBH exact search under\n\
     restrictiveness 0.8, Fine granularity): interpreted term lists vs the\n\
     compiled bitset engine, identical routes checked per flow.\n";
  let pt =
    Texttable.create
      ~columns:
        [
          ("ADs", Texttable.Right);
          ("links", Texttable.Right);
          ("flows", Texttable.Right);
          ("states", Texttable.Right);
          ("build words", Texttable.Right);
          ("interp ns/route", Texttable.Right);
          ("compiled ns/route", Texttable.Right);
          ("speedup", Texttable.Right);
        ]
  in
  let presults =
    List.map
      (fun target ->
        let scenario =
          Scenario.for_size ~policy:restrictive_policy ~target_ads:target ~seed:211 ()
        in
        let g = scenario.Scenario.graph in
        let flows, states, build_words, interp_ns, compiled_ns = policy_synth_measure scenario in
        Texttable.add_row pt
          [
            Texttable.cell_int (Graph.n g);
            Texttable.cell_int (Graph.num_links g);
            Texttable.cell_int flows;
            Texttable.cell_int states;
            Texttable.cell_int build_words;
            Texttable.cell_float ~decimals:0 interp_ns;
            Texttable.cell_float ~decimals:0 compiled_ns;
            Texttable.cell_float ~decimals:2 (interp_ns /. compiled_ns);
          ];
        (target, Graph.n g, Graph.num_links g, flows, states, build_words, interp_ns, compiled_ns))
      psizes
  in
  Texttable.print pt;
  note
    "\nGround-truth oracle (Validate.best_legal, else route_exists) on %d flows\n\
     per restrictive-policy internet, at 10^3 ADs and up:\n"
    oracle_flows;
  let ot =
    Texttable.create
      ~columns:
        [
          ("ADs", Texttable.Right);
          ("flows", Texttable.Right);
          ("best found", Texttable.Right);
          ("reachable", Texttable.Right);
          ("states", Texttable.Right);
          ("ns/flow", Texttable.Right);
        ]
  in
  let oresults =
    List.filter_map
      (fun target ->
        if target < 1_000 then None
        else begin
          let scenario =
            Scenario.for_size ~policy:restrictive_policy ~target_ads:target ~seed:211 ()
          in
          let best, reachable, states, ns = oracle_measure scenario in
          let ads = Graph.n scenario.Scenario.graph in
          Texttable.add_row ot
            [
              Texttable.cell_int ads;
              Texttable.cell_int oracle_flows;
              Texttable.cell_int best;
              Texttable.cell_int reachable;
              Texttable.cell_int states;
              Texttable.cell_float ~decimals:0 ns;
            ];
          Some (target, ads, best, reachable, states, ns)
        end)
      sizes
  in
  Texttable.print ot;
  note "\nIncremental delta-SPF and hierarchical synthesis on the same internets:\n";
  let drows = run_delta ~sizes:(delta_sizes ()) in
  note
    "\nEngine: ORWG convergence on %d %d-AD internets, fault-free and under\n\
     %s (set-up included):\n"
    engine_internets engine_ads engine_plan;
  let clean = engine_measure () in
  let faulted = engine_measure ~plan:engine_plan () in
  let et =
    Texttable.create
      ~columns:
        [
          ("run", Texttable.Left);
          ("events", Texttable.Right);
          ("messages", Texttable.Right);
          ("ns/event", Texttable.Right);
          ("alloc words/event", Texttable.Right);
        ]
  in
  List.iter
    (fun (run, (events, messages, ns, words)) ->
      Texttable.add_row et
        [
          run;
          Texttable.cell_int events;
          Texttable.cell_int messages;
          Texttable.cell_float ~decimals:0 ns;
          Texttable.cell_float ~decimals:1 words;
        ])
    [ ("fault-free", clean); ("faulted", faulted) ];
  Texttable.print et;
  if json then begin
    (* Graph shape and the counted work are fixed by the generator seed,
       so they are exact; time, repetition counts, allocation and heap
       words vary run to run and are banded. Rounding keeps each figure
       at the precision the table prints. *)
    let round digits x =
      let k = 10.0 ** float_of_int digits in
      J.Float (Float.round (x *. k) /. k)
    in
    let ns x = J.Int (int_of_float (Float.round x)) in
    let row layer kernel target exact band =
      {
        Gate.layer;
        kernel;
        config = [ ("target_ads", J.Int target) ];
        exact;
        band;
        cores = 1;
      }
    in
    let spf =
      List.map
        (fun (target, ads, links, sources, reps, ns_op, words, live) ->
          row "kernel" "Spf.tree (Dijkstra over CSR adjacency)" target
            [ ("ads", J.Int ads); ("links", J.Int links); ("sources", J.Int sources) ]
            [
              ("reps", J.Int reps);
              ("ns_per_op", ns ns_op);
              ("alloc_words_per_op", ns words);
              ("live_words", J.Int live);
            ])
        results
    in
    let labels =
      List.map
        (fun (target, ads, settled, ns_label, words) ->
          row "kernel" "Policy_search.lower_bound (labels over transit-capable ADs)" target
            [ ("ads", J.Int ads); ("labels", J.Int label_dsts); ("settled", J.Int settled) ]
            [ ("ns_per_label", ns ns_label); ("alloc_words_per_label", ns words) ])
        lresults
    in
    let policy =
      List.map
        (fun (target, ads, links, flows, states, build_words, interp_ns, compiled_ns) ->
          row "search"
            "Policy_route.shortest (exact policy search, restrictiveness 0.8, fine \
             granularity)"
            target
            [
              ("ads", J.Int ads);
              ("links", J.Int links);
              ("flows", J.Int flows);
              ("search_states", J.Int states);
              ("build_words", J.Int build_words);
            ]
            [
              ("interpreted_ns_per_route", ns interp_ns);
              ("compiled_ns_per_route", ns compiled_ns);
              ("speedup", round 2 (interp_ns /. compiled_ns));
            ])
        presults
    in
    let oracle =
      List.map
        (fun (target, ads, best, reachable, states, ns_flow) ->
          row "search" "Validate.best_legal + route_exists (oracle classification over carrying rows)"
            target
            [
              ("ads", J.Int ads);
              ("flows", J.Int oracle_flows);
              ("best_found", J.Int best);
              ("reachable", J.Int reachable);
              ("search_states", J.Int states);
            ]
            [ ("ns_per_flow", ns ns_flow) ])
        oresults
    in
    let delta =
      List.map
        (fun r ->
          row "kernel"
            "Spf_delta repair vs Spf.tree_state full recompute; Hierarchy two-level \
             synthesis"
            r.d_target
            [
              ("ads", J.Int r.d_ads);
              ("links", J.Int r.d_links);
              ("sources", J.Int r.d_srcs);
              ("events", J.Int r.d_events);
              ("clusters", J.Int r.d_clusters);
              ("pairs", J.Int r.d_pairs);
              ("hier_stretch_mean", round 3 r.d_stretch_mean);
              ("hier_stretch_max", round 3 r.d_stretch_max);
              ("hier_table_mean", round 1 r.d_table_mean);
            ]
            [
              ("full_ns_per_event", ns r.d_full_ns);
              ("incremental_ns_per_event", ns r.d_incr_ns);
              ("speedup", round 1 (r.d_full_ns /. r.d_incr_ns));
              ("hier_route_ns", ns r.d_route_ns);
            ])
        drows
    in
    let engine kernel plan (events, messages, ns_event, words) =
      {
        Gate.layer = "engine";
        kernel;
        config =
          [ ("target_ads", J.Int engine_ads); ("internets", J.Int engine_internets) ]
          @ plan;
        exact = [ ("sim_events", J.Int events); ("control_messages", J.Int messages) ];
        band = [ ("ns_per_event", ns ns_event); ("alloc_words_per_event", round 1 words) ];
        cores = 1;
      }
    in
    let engines =
      [
        engine "Engine + Network (fault-free ORWG converge)" [] clean;
        engine "Engine + Network + Nemesis (faulted ORWG converge)"
          [ ("plan", J.String engine_plan) ]
          faulted;
      ]
    in
    match
      J.write_file ~pretty:true ~path:out
        (Gate.document_json ~benchmark:"route_synthesis_scaling"
           (spf @ labels @ policy @ oracle @ delta @ engines))
    with
    | Ok () -> note "\nWrote %s\n" out
    | Error e ->
      prerr_endline ("synth: " ^ e);
      exit 2
  end

(* ------------------------------------------------------------------ *)
(* PADMIT: the admission check itself, interpreted vs compiled         *)
(* ------------------------------------------------------------------ *)

(* One admission check — "does some PT of this AD admit this crossing"
   — is the inner loop of every policy design point: LS-HBH and ORWG
   run it per (node, arrived-from) relaxation, IDRP per mask build.
   Measure it in isolation on a restrictive internet, three ways:

   - interpreted: [interpreted_admits], [List.exists Policy_term.admits]
     over the raw terms — the pre-compilation engine;
   - compiled:    [Compiled.allows] — int masks + bitset probes, no
                  per-flow setup;
   - specialized: the [Policy_route.engine] path — flow-only
                  conditions resolved once per (flow, AD), leaving only
                  prev/next probes per check. *)
let padmit () =
  section "PADMIT. Policy-admission microbenchmark (sections 5.2-5.4 inner loop)";
  let scenario =
    Scenario.for_size ~policy:restrictive_policy ~target_ads:56 ~seed:211 ()
  in
  let g = scenario.Scenario.graph in
  let n = Graph.n g in
  let db = static_policy_db scenario in
  let flows = Scenario.flows scenario ~rng:(Rng.create 217) ~count:4 () in
  (* Probe set: every transit crossing (ad, prev, next) over ordered
     pairs of distinct neighbors — the checks an exact search makes. *)
  let probes =
    List.concat_map
      (fun ad ->
        let nbrs = Graph.neighbor_ids g ad in
        List.concat_map
          (fun p ->
            List.filter_map (fun q -> if p <> q then Some (ad, p, q) else None) nbrs)
          nbrs)
      (List.init n Fun.id)
  in
  let ops = List.length flows * List.length probes in
  note
    "%d ADs, %d flows x %d crossings = %d admission checks per rep\n\
     (restrictiveness 0.8, Fine granularity).\n"
    n (List.length flows) (List.length probes) ops;
  let count_engine () =
    let c = ref 0 in
    List.iter
      (fun flow ->
        let e = Pr_proto.Policy_route.engine db ~n flow in
        List.iter
          (fun (ad, p, q) ->
            if Pr_proto.Policy_route.admits e ad ~prev:p ~next:q then incr c)
          probes)
      flows;
    !c
  in
  let count_compiled () =
    let c = ref 0 in
    List.iter
      (fun flow ->
        List.iter
          (fun (ad, p, q) ->
            if
              Pr_policy.Compiled.allows
                (Pr_proto.Lsdb.compiled_of db ad)
                { Pr_policy.Policy_term.flow; prev = Some p; next = Some q }
            then incr c)
          probes)
      flows;
    !c
  in
  let count_interpreted () =
    let c = ref 0 in
    List.iter
      (fun flow ->
        List.iter
          (fun (ad, p, q) ->
            if interpreted_admits db ad { Pr_policy.Policy_term.flow; prev = Some p; next = Some q }
            then incr c)
          probes)
      flows;
    !c
  in
  let pdd_store = Pr_serve.Pdd.store_create () in
  let roots =
    Array.init n (fun ad -> Pr_serve.Pdd.compile pdd_store (Pr_proto.Lsdb.compiled_of db ad))
  in
  let count_diagram () =
    let c = ref 0 in
    List.iter
      (fun flow ->
        List.iter
          (fun (ad, p, q) ->
            if Pr_serve.Pdd.admit_node roots.(ad) flow ~prev:p ~next:q
            then incr c)
          probes)
      flows;
    !c
  in
  let count_diagram_entry () =
    let c = ref 0 in
    List.iter
      (fun flow ->
        let entries = Array.map (fun r -> Pr_serve.Pdd.flow_entry r flow) roots in
        List.iter
          (fun (ad, p, q) ->
            if Pr_serve.Pdd.entry_admit entries.(ad) ~prev:p ~next:q then
              incr c)
          probes)
      flows;
    !c
  in
  (* All variants must agree before any of them is timed. *)
  let admitted = count_engine () in
  if count_compiled () <> admitted || count_interpreted () <> admitted then
    failwith "padmit: admission variants disagree";
  if count_diagram () <> admitted || count_diagram_entry () <> admitted then
    failwith "padmit: decision diagram disagrees with the term engines";
  let interp_ns = Timing.ns_per ~ops (fun () -> ignore (count_interpreted ())) in
  let compiled_ns = Timing.ns_per ~ops (fun () -> ignore (count_compiled ())) in
  let spec_ns = Timing.ns_per ~ops (fun () -> ignore (count_engine ())) in
  let diagram_ns = Timing.ns_per ~ops (fun () -> ignore (count_diagram ())) in
  let diagram_entry_ns = Timing.ns_per ~ops (fun () -> ignore (count_diagram_entry ())) in
  let t =
    Texttable.create
      ~columns:
        [
          ("variant", Texttable.Left);
          ("ns/check", Texttable.Right);
          ("speedup", Texttable.Right);
        ]
  in
  let row name ns =
    Texttable.add_row t
      [
        name;
        Texttable.cell_float ~decimals:1 ns;
        Texttable.cell_float ~decimals:2 (interp_ns /. ns);
      ]
  in
  row "interpreted (List.exists over PTs)" interp_ns;
  row "compiled (masks + bitset probes)" compiled_ns;
  row "specialized (per-flow engine)" spec_ns;
  row "diagram (PDD root-to-leaf walk)" diagram_ns;
  row "diagram specialized (flow_entry)" diagram_entry_ns;
  Texttable.print t;
  note
    "\n%d of %d checks admitted. Expected shape: compiled beats interpreted\n\
     by resolving QOS/UCI/hour to int-mask tests and source/dest/prev/next\n\
     to one bitset probe each; specialization wins again on top by hoisting\n\
     the flow-only conditions out of the per-crossing loop. The decision\n\
     diagram (%d nodes, %d preds across the whole database) walks only the\n\
     conditions that can still matter, and its flow_entry form hoists the\n\
     flow-only prefix the same way the serving layer's synthesis does.\n"
    admitted ops
    (Pr_serve.Pdd.store_nodes pdd_store)
    (Pr_serve.Pdd.store_preds pdd_store)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("t1", table1);
    ("f1", figure1);
    ("e1", e1_egp_cycles);
    ("e2", e2_convergence);
    ("e3", e3_ecma_expressiveness);
    ("e4", e4_idrp_granularity);
    ("e5", e5_lshbh_burden);
    ("e6", e6_orwg_overhead);
    ("e7", e7_synthesis);
    ("e8", e8_scaling);
    ("e9", e9_availability);
    ("e10", e10_loops);
    ("e11", e11_pg_state);
    ("e12", e12_churn);
    ("e13", e13_database_distribution);
    ("e14", e14_replication);
    ("e15", e15_qos_routing);
    ("e16", e16_topology_effects);
    ("synth", synth);
    ("delta", delta);
    ("padmit", padmit);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected = List.filter (fun a -> not (String.starts_with ~prefix:"--" a)) args in
  let to_run =
    match selected with
    | [] -> experiments
    | names ->
      List.filter_map
        (fun n ->
          match List.assoc_opt (String.lowercase_ascii n) experiments with
          | Some f -> Some (n, f)
          | None ->
            Printf.eprintf "unknown experiment %S (known: %s)\n" n
              (String.concat ", " (List.map fst experiments));
            None)
        names
  in
  print_endline
    "Reproduction harness: Breslau & Estrin, \"Design of Inter-Administrative";
  print_endline
    "Domain Routing Protocols\", SIGCOMM 1990. See EXPERIMENTS.md for the";
  print_endline "claim-by-claim comparison.";
  List.iter (fun (_, f) -> f ()) to_run
