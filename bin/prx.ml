(* prx: the policy-routing explorer CLI.

   Subcommands expose the library's main entry points: topology
   generation, the Table 1 design space, and per-protocol evaluation
   runs on generated scenarios. The full experiment suite lives in
   bench/main.exe; this tool is for interactive exploration. *)

open Cmdliner

(* Shared Logs setup, composed into every subcommand: without it the
   pr.network / pr.campaign / pr.engine sources are unreachable from
   the CLI because no reporter is ever installed. Default level
   Warning, so engine event-limit warnings always surface. *)
let logs_term =
  let verbose_arg =
    let doc = "Log informational messages (e.g. link flaps) to stderr." in
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
  in
  let debug_arg =
    let doc = "Log debug messages (every send, fork and reap) to stderr." in
    Arg.(value & flag & info [ "debug" ] ~doc)
  in
  let setup verbose debug =
    let level =
      if debug then Logs.Debug else if verbose then Logs.Info else Logs.Warning
    in
    Logs.set_level (Some level);
    Logs.set_reporter (Logs.format_reporter ())
  in
  Term.(const setup $ verbose_arg $ debug_arg)

let seed_arg =
  let doc = "Deterministic seed for topology, policies and workload." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let size_arg =
  let doc = "Approximate number of ADs in the generated internet." in
  Arg.(value & opt int 56 & info [ "size" ] ~docv:"ADS" ~doc)

(* A value a subcommand cannot run with is a usage error: a [prx:]
   message on stderr and exit status 2, before anything runs. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("prx: " ^ msg);
      exit 2)
    fmt

(* An integer option that counts something, so is never negative. *)
let count_arg ~name ~default ~doc =
  let check n =
    if n < 0 then usage_error "--%s must be >= 0 (got %d)" name n;
    n
  in
  let arg = Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc) in
  Term.(const check $ arg)

(* A library [Error] on an outside input or output is a usage error too. *)
let or_usage = function Ok v -> v | Error e -> usage_error "%s" e

(* The one design-point resolver: every registry protocol, and the
   deliberately broken broken-ls. *)
let design_point name = or_usage (Pr_faults.Chaos.find_protocol name)

let design_point_arg ~doc =
  let arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROTOCOL" ~doc) in
  Term.(const design_point $ arg)

(* Every JSON file a subcommand writes goes through here. *)
let write_json ?pretty path doc = or_usage (Pr_util.Json.write_file ?pretty ~path doc)

(* The process telemetry registry, its GC gauges sampled first. *)
let telemetry_snapshot () =
  Pr_telemetry.Alloc.sample ();
  Pr_telemetry.Registry.snapshot Pr_telemetry.Registry.default

(* A failed run's flight recorder, with a telemetry snapshot. *)
let write_post_mortem path ~reason =
  let metrics = Pr_telemetry.Registry.snapshot_to_json (telemetry_snapshot ()) in
  write_json path (Pr_obs.Trace.post_mortem Pr_obs.Trace.flight ~metrics ~reason);
  Printf.printf "post-mortem: %s\n" path

(* --plan, one grammar for chaos and serve: the plan as given (reports
   name it so) and the parsed plan. *)
let plan_arg ~doc =
  let doc =
    Printf.sprintf
      "Fault plan: a profile name (%s), $(b,profile:)NAME, or a spec like \
       \"delay:p=0.25,max=2,until=40;crash:at=14,down=8\". %s"
      (String.concat ", " Pr_faults.Plan.profile_names)
      doc
  in
  let parse spec =
    match Pr_faults.Plan.of_string spec with
    | Ok plan -> (spec, plan)
    | Error e -> usage_error "bad --plan %S: %s\n%s" spec e Pr_faults.Plan.grammar_help
  in
  Term.(const parse $ Arg.(value & opt string "default" & info [ "plan" ] ~docv:"PLAN" ~doc))

let check_restrictiveness r =
  if not (r >= 0.0 && r <= 1.0) then
    usage_error "--restrictiveness must be in [0, 1] (got %g)" r

let flows_arg = count_arg ~name:"flows" ~default:100 ~doc:"Number of flows in the workload."

let restrictiveness_arg =
  let doc = "Policy restrictiveness in [0,1]." in
  let check r =
    check_restrictiveness r;
    r
  in
  let arg = Arg.(value & opt float 0.3 & info [ "restrictiveness" ] ~docv:"R" ~doc) in
  Term.(const check $ arg)

let granularity_conv =
  Arg.enum
    (List.map
       (fun g -> (Pr_policy.Gen.granularity_to_string g, g))
       Pr_policy.Gen.all_granularities)

let granularity_arg =
  let doc = "Policy granularity: coarse, destination, source-specific or fine." in
  Arg.(
    value
    & opt granularity_conv Pr_policy.Gen.Source_specific
    & info [ "granularity" ] ~docv:"G" ~doc)

let scenario_of ~seed ~size ~restrictiveness ~granularity =
  let policy =
    { Pr_policy.Gen.default with restrictiveness; granularity }
  in
  Pr_core.Scenario.for_size ~policy ~target_ads:size ~seed ()

(* --- design-space ------------------------------------------------- *)

let design_space_cmd =
  let run () = print_string (Pr_core.Design_space.render ()) in
  Cmd.v
    (Cmd.info "design-space" ~doc:"Print the paper's Table 1 with implemented protocols.")
    Term.(const run $ logs_term)

let save_arg =
  let doc = "Save the generated scenario (topology + policies) to this file." in
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)

let load_arg =
  let doc = "Load the scenario from a file written by --save instead of generating." in
  Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE" ~doc)

let scenario_of_args ~seed ~size ~restrictiveness ~granularity ~load =
  match load with
  | None -> scenario_of ~seed ~size ~restrictiveness ~granularity
  | Some path -> (
    match Pr_core.Codec.load_file ~path with
    | Ok s -> s
    | Error e -> usage_error "cannot load %s: %s" path e)

(* --- topology ----------------------------------------------------- *)

let topology_cmd =
  let run () seed size save =
    let s = scenario_of ~seed ~size ~restrictiveness:0.3 ~granularity:Pr_policy.Gen.Source_specific in
    Option.iter
      (fun path ->
        or_usage (Pr_core.Codec.save_file s ~path);
        Format.printf "saved scenario to %s@." path)
      save;
    let g = s.Pr_core.Scenario.graph in
    Format.printf "%a@." Pr_topology.Graph.pp_summary g;
    Format.printf "connected: %b, cyclic: %b@." (Pr_topology.Graph.is_connected g)
      (Pr_topology.Graph.has_cycle g);
    Pr_topology.Graph.fold_links g ~init:() ~f:(fun () l ->
        let name ad = (Pr_topology.Graph.ad g ad).Pr_topology.Ad.name in
        Format.printf "  %-8s -- %-8s %-12s cost %d@." (name l.Pr_topology.Link.a)
          (name l.Pr_topology.Link.b)
          (Pr_topology.Link.kind_to_string l.Pr_topology.Link.kind)
          l.Pr_topology.Link.cost)
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Generate and print a hierarchical internet.")
    Term.(const run $ logs_term $ seed_arg $ size_arg $ save_arg)

(* --- evaluate ----------------------------------------------------- *)

let evaluate_cmd =
  let run () seed size flows restrictiveness granularity load =
    let scenario = scenario_of_args ~seed ~size ~restrictiveness ~granularity ~load in
    let rng = Pr_util.Rng.create (seed + 1) in
    let workload = Pr_core.Scenario.flows scenario ~rng ~count:flows () in
    Format.printf "scenario %s: %a; %a@." scenario.Pr_core.Scenario.label
      Pr_topology.Graph.pp_summary scenario.Pr_core.Scenario.graph
      Pr_policy.Config.pp_summary scenario.Pr_core.Scenario.config;
    let table = Pr_util.Texttable.create ~columns:Pr_core.Experiment.result_columns in
    let n = Pr_topology.Graph.n scenario.Pr_core.Scenario.graph in
    let protocols =
      (* Per-source route replication is the quadratic-state variant the
         paper warns about; only run it where it can finish. *)
      List.filter
        (fun p -> Pr_core.Registry.name p <> "idrp-per-source" || n <= 30)
        Pr_core.Registry.all
    in
    List.iter
      (fun packed ->
        let r = Pr_core.Experiment.evaluate packed scenario ~flows:workload () in
        Pr_util.Texttable.add_row table (Pr_core.Experiment.result_row r))
      protocols;
    Pr_util.Texttable.print ~title:"protocol comparison" table
  in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:"Run every protocol on one scenario and compare against the policy oracle.")
    Term.(
      const run $ logs_term $ seed_arg $ size_arg $ flows_arg $ restrictiveness_arg
      $ granularity_arg $ load_arg)

(* --- dot ----------------------------------------------------------- *)

let dot_cmd =
  let run () seed size =
    let s =
      scenario_of ~seed ~size ~restrictiveness:0.0 ~granularity:Pr_policy.Gen.Coarse
    in
    print_string (Pr_topology.Dot.to_dot s.Pr_core.Scenario.graph)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the generated internet as a Graphviz document on stdout.")
    Term.(const run $ logs_term $ seed_arg $ size_arg)

(* --- oracle -------------------------------------------------------- *)

let oracle_cmd =
  let src_arg =
    Arg.(required & opt (some int) None & info [ "src" ] ~docv:"AD" ~doc:"Source AD id.")
  in
  let dst_arg =
    Arg.(required & opt (some int) None & info [ "dst" ] ~docv:"AD" ~doc:"Destination AD id.")
  in
  let run () seed size restrictiveness granularity src dst =
    let scenario = scenario_of ~seed ~size ~restrictiveness ~granularity in
    let g = scenario.Pr_core.Scenario.graph in
    let config = scenario.Pr_core.Scenario.config in
    let n = Pr_topology.Graph.n g in
    if src < 0 || src >= n || dst < 0 || dst >= n then
      usage_error "--src %d / --dst %d: the generated internet has ADs 0..%d" src dst (n - 1);
    let flow = Pr_policy.Flow.make ~src ~dst () in
    (match Pr_policy.Validate.best_legal g config flow ~max_hops:12 with
    | Some best ->
      Format.printf "best legal route: %s (cost %s)@."
        (Pr_topology.Path.to_string best)
        (match Pr_topology.Path.cost g best with
        | Some c -> string_of_int c
        | None -> "?")
    | None -> Format.printf "no legal route within 12 hops@.");
    let all =
      Pr_policy.Validate.legal_paths g config flow ~max_hops:8 ~limit:10 ()
    in
    Format.printf "%d legal route(s) within 8 hops (showing up to 10):@."
      (List.length all);
    List.iter (fun p -> Format.printf "  %s@." (Pr_topology.Path.to_string p)) all
  in
  Cmd.v
    (Cmd.info "oracle" ~doc:"Query the policy oracle for legal routes between two ADs.")
    Term.(
      const run $ logs_term $ seed_arg $ size_arg $ restrictiveness_arg $ granularity_arg
      $ src_arg $ dst_arg)

(* --- impact -------------------------------------------------------- *)

let impact_cmd =
  let ad_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "ad" ] ~docv:"AD" ~doc:"Transit AD whose policy change to assess.")
  in
  let closed_arg =
    let doc = "Assess closing the AD entirely (no transit) instead of opening it." in
    Arg.(value & flag & info [ "close" ] ~doc)
  in
  let run () seed size restrictiveness granularity ad close =
    let scenario = scenario_of ~seed ~size ~restrictiveness ~granularity in
    let n = Pr_topology.Graph.n scenario.Pr_core.Scenario.graph in
    if ad < 0 || ad >= n then
      usage_error "--ad %d: the generated internet has ADs 0..%d" ad (n - 1);
    let proposed =
      if close then Pr_policy.Transit_policy.no_transit ad
      else Pr_policy.Transit_policy.open_transit ad
    in
    let report = Pr_core.Impact.assess scenario ~proposed () in
    print_string (Pr_core.Impact.summary report)
  in
  Cmd.v
    (Cmd.info "impact"
       ~doc:
         "Predict the impact of replacing one AD's transit policy (section 6's \
          administrator tool).")
    Term.(
      const run $ logs_term $ seed_arg $ size_arg $ restrictiveness_arg $ granularity_arg
      $ ad_arg $ closed_arg)

(* --- conformance ---------------------------------------------------- *)

let conformance_cmd =
  let protocol_arg =
    let doc = "Protocol name (see `prx design-space`); default: all." in
    let arg = Arg.(value & opt (some string) None & info [ "protocol" ] ~docv:"NAME" ~doc) in
    Term.(const (Option.map design_point) $ arg)
  in
  let run () seed size restrictiveness granularity protocol =
    let scenario = scenario_of ~seed ~size ~restrictiveness ~granularity in
    let protocols =
      match protocol with
      | Some p -> [ p ]
      | None ->
        List.filter
          (fun p -> Pr_core.Registry.name p <> "idrp-per-source")
          Pr_core.Registry.all
    in
    let failures = ref 0 in
    List.iter
      (fun packed ->
        List.iter
          (fun (prop, check) ->
            if
              not
                (Pr_core.Registry.name packed = "egp" && prop = "survives fail/restore")
            then begin
              match check packed scenario with
              | Ok () ->
                Format.printf "ok    %-18s %s@." (Pr_core.Registry.name packed) prop
              | Error reason ->
                incr failures;
                Format.printf "FAIL  %-18s %s: %s@." (Pr_core.Registry.name packed) prop
                  reason
            end)
          Pr_core.Properties.all)
      protocols;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "conformance"
       ~doc:"Run the behavioural conformance properties against protocols on a scenario.")
    Term.(
      const run $ logs_term $ seed_arg $ size_arg $ restrictiveness_arg $ granularity_arg
      $ protocol_arg)

(* --- sweep ---------------------------------------------------------- *)

(* The campaign front end: a declarative grid over (protocol × size ×
   policy × churn × replicate), executed by the pr_campaign forked
   worker pool with JSONL checkpoint/resume. *)

let sweep_cmd =
  let open Pr_campaign in
  let protocols_arg =
    let doc =
      "Comma-separated protocol (design point) names, or a group: designs (the four \
       section-5 points), baselines, all. The deliberately broken variant broken-ls is \
       also accepted: under a fault profile the harness must flag it."
    in
    let expand = function
      | "designs" -> Pr_core.Registry.names Pr_core.Registry.policy_designs
      | "baselines" -> Pr_core.Registry.names Pr_core.Registry.baselines
      | "all" -> Pr_core.Registry.names Pr_core.Registry.all
      | s ->
        let names = String.split_on_char ',' s in
        List.iter (fun name -> ignore (design_point name)) names;
        names
    in
    Term.(
      const expand
      $ Arg.(value & opt string "designs" & info [ "protocols" ] ~docv:"PROTOCOLS" ~doc))
  in
  let sizes_arg =
    let doc = "Comma-separated internet sizes (AD counts); 14 and below is Figure 1." in
    Arg.(value & opt (list int) [ 14; 56 ] & info [ "sizes" ] ~docv:"SIZES" ~doc)
  in
  let restrictiveness_list_arg =
    let doc = "Comma-separated policy restrictiveness values in [0,1]." in
    let check rs =
      List.iter check_restrictiveness rs;
      rs
    in
    let arg =
      Arg.(value & opt (list float) [ 0.0; 0.5 ] & info [ "restrictiveness" ] ~docv:"RS" ~doc)
    in
    Term.(const check $ arg)
  in
  let granularities_arg =
    let doc = "Comma-separated policy granularities." in
    Arg.(
      value
      & opt (list granularity_conv) [ Pr_policy.Gen.Source_specific ]
      & info [ "granularities" ] ~docv:"GS" ~doc)
  in
  let churn_arg =
    let doc = "Churn dimension: both (default), on, or off." in
    Arg.(
      value
      & opt (Arg.enum [ ("both", [ false; true ]); ("on", [ true ]); ("off", [ false ]) ])
          [ false; true ]
      & info [ "churn" ] ~docv:"CHURN" ~doc)
  in
  let faults_arg =
    let doc =
      "Comma-separated fault-profile dimension (see `prx chaos`): "
      ^ String.concat ", " Pr_faults.Plan.profile_names
      ^ "."
    in
    (* Run ids name the profile, so this dimension takes profile names only. *)
    let check profiles =
      List.iter
        (fun p -> ignore (or_usage (Pr_faults.Plan.of_string ("profile:" ^ p))))
        profiles;
      profiles
    in
    Term.(
      const check
      $ Arg.(value & opt (list string) [ "none" ] & info [ "faults" ] ~docv:"PROFILES" ~doc))
  in
  let replicates_arg =
    let doc = "Seed replicates per grid point." in
    Arg.(value & opt int 1 & info [ "replicates" ] ~docv:"N" ~doc)
  in
  let jobs_arg =
    let doc = "Parallel worker processes." in
    Arg.(value & opt int 4 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc = "Per-run wall-clock timeout in seconds." in
    Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"SECS" ~doc)
  in
  let max_events_arg =
    let doc = "Simulation event budget per converge call." in
    Arg.(value & opt int 10_000_000 & info [ "max-events" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc =
      "JSONL results file (appended, never truncated); re-invoking resumes from it, \
       re-running only runs whose latest attempt did not complete."
    in
    Arg.(value & opt string "campaign.jsonl" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let summary_arg =
    let doc = "Write the machine-readable aggregate summary here (\"none\" disables)." in
    Arg.(value & opt string "BENCH_campaign.json" & info [ "summary" ] ~docv:"FILE" ~doc)
  in
  let crash_run_arg =
    let doc = "Testing: the worker for this run id crashes (exit 66)." in
    Arg.(value & opt (some string) None & info [ "crash-run" ] ~docv:"ID" ~doc)
  in
  let hang_run_arg =
    let doc = "Testing: the worker for this run id hangs until the timeout kills it." in
    Arg.(value & opt (some string) None & info [ "hang-run" ] ~docv:"ID" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress per-run progress on stderr." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let trace_dir_arg =
    let doc =
      "Write one Chrome trace-event file per run (plus the pool's worker timeline as \
       pool.json) into this directory, created if missing."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"DIR" ~doc)
  in
  let run () protocols sizes restrictiveness granularities churn fault_profiles
      replicates seed flows max_events jobs timeout out summary crash_id hang_id quiet
      trace_dir =
    let spec =
      {
        Grid.protocols;
        sizes;
        restrictiveness;
        granularities;
        churn;
        fault_profiles;
        replicates;
        base_seed = seed;
        flows;
        max_events;
      }
    in
    let summary_path = if summary = "none" then None else Some summary in
    let report =
      or_usage
        (Driver.sweep ~jobs ~timeout_s:timeout ~quiet
           ~chaos:{ Exec.crash_id; hang_id }
           ?summary_path ?trace_dir ~out spec)
    in
    Pr_util.Texttable.print ~title:"campaign: per-design-point totals"
      (Pr_campaign.Aggregate.table report.Driver.rows);
    Printf.printf
      "campaign: %d runs in grid, %d skipped (already complete), %d executed (%d ok, %d \
       failed/crashed/timed-out)\nresults: %s%s\n"
      report.Driver.total report.Driver.skipped report.Driver.executed report.Driver.ok
      report.Driver.not_ok out
      (match summary_path with Some p -> Printf.sprintf "; summary: %s" p | None -> "");
    Option.iter (fun dir -> Printf.printf "traces: %s/\n" dir) trace_dir
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a parallel experiment campaign over (design point x topology x policy x \
          churn) with JSONL checkpoint/resume and per-design-point aggregation.")
    Term.(
      const run $ logs_term $ protocols_arg $ sizes_arg $ restrictiveness_list_arg
      $ granularities_arg $ churn_arg $ faults_arg $ replicates_arg $ seed_arg
      $ flows_arg $ max_events_arg $ jobs_arg $ timeout_arg $ out_arg $ summary_arg
      $ crash_run_arg $ hang_run_arg $ quiet_arg $ trace_dir_arg)

(* --- converge ------------------------------------------------------- *)

(* One bounded convergence run. The metrics dump is byte-stable per
   (seed, scenario), so the runtest smoke diffs it against a golden
   file. *)

let converge_cmd =
  let protocol_arg =
    design_point_arg ~doc:"Protocol (design point) to converge; see `prx design-space`."
  in
  let churn_flag =
    let doc = "Interleave scheduled link churn (its own rng stream) with convergence." in
    Arg.(value & flag & info [ "churn" ] ~doc)
  in
  let max_events_arg =
    let doc = "Simulation event budget." in
    Arg.(value & opt int 10_000_000 & info [ "max-events" ] ~docv:"N" ~doc)
  in
  let metrics_out_arg =
    let doc = "Write the final per-AD metrics as single-line JSON to this file." in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let run ()
      (Pr_core.Registry.Packed (module P) : Pr_core.Registry.packed)
      seed size restrictiveness granularity churn max_events metrics_out =
    let scenario = scenario_of ~seed ~size ~restrictiveness ~granularity in
    let module R = Pr_proto.Runner.Make (P) in
    let r = R.setup scenario.Pr_core.Scenario.graph scenario.Pr_core.Scenario.config in
    if churn then Pr_sim.Churn.standard (R.network r) ~seed;
    let c = R.converge ~max_events r in
    Format.printf "%s on %s: %a@." P.name scenario.Pr_core.Scenario.label
      Pr_proto.Runner.pp_convergence c;
    Printf.printf "table entries: %d (max %d)\n" (R.table_entries r)
      (R.max_table_entries r);
    Option.iter
      (fun path ->
        write_json path (Pr_sim.Metrics.to_json (R.metrics r));
        Printf.printf "metrics: %s\n" path)
      metrics_out
  in
  Cmd.v
    (Cmd.info "converge"
       ~doc:
         "Converge one protocol on a generated scenario and print the convergence \
          totals.")
    Term.(
      const run $ logs_term $ protocol_arg $ seed_arg $ size_arg $ restrictiveness_arg
      $ granularity_arg $ churn_flag $ max_events_arg $ metrics_out_arg)

(* --- trace ---------------------------------------------------------- *)

(* One traced simulation run: converge + workload with an enabled
   recorder, a Chrome trace on disk, and the convergence timeline and
   per-AD load profile printed. *)

let trace_cmd =
  let protocol_arg =
    design_point_arg ~doc:"Protocol (design point) to trace; see `prx design-space`."
  in
  let out_arg =
    let doc = "Chrome trace-event output file (open in Perfetto or chrome://tracing)." in
    Arg.(value & opt string "trace.json" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let window_arg =
    let doc = "Timeline sampling window in simulated time units." in
    Arg.(value & opt float 1.0 & info [ "window" ] ~docv:"W" ~doc)
  in
  let max_events_arg =
    let doc = "Simulation event budget." in
    Arg.(value & opt int 10_000_000 & info [ "max-events" ] ~docv:"N" ~doc)
  in
  let run ()
      (Pr_core.Registry.Packed (module P) : Pr_core.Registry.packed)
      seed size flows restrictiveness granularity window max_events out =
    let scenario = scenario_of ~seed ~size ~restrictiveness ~granularity in
    let g = scenario.Pr_core.Scenario.graph in
    let module R = Pr_proto.Runner.Make (P) in
    let trace = Pr_obs.Trace.create () in
    let r = R.setup ~trace g scenario.Pr_core.Scenario.config in
    let tl = R.timeline ~window r in
    let c = R.converge ~max_events r in
    let rng = Pr_util.Rng.create (seed + 2) in
    let workload = Pr_core.Scenario.flows scenario ~rng ~count:flows () in
    let delivered =
      List.fold_left
        (fun acc f ->
          if Pr_proto.Forwarding.delivered (R.send_flow r f) then acc + 1 else acc)
        0 workload
    in
    Pr_obs.Timeline.finish tl ~now:(Pr_sim.Engine.now (Pr_sim.Network.engine (R.network r)));
    write_json out (Pr_obs.Trace.to_json trace);
    Format.printf "%s on %s: %a; delivered %d/%d@." P.name
      scenario.Pr_core.Scenario.label Pr_proto.Runner.pp_convergence c delivered flows;
    Pr_util.Texttable.print ~title:"convergence timeline" (Pr_obs.Timeline.table tl);
    (match Pr_obs.Timeline.first_nonzero tl "table-entries" with
    | Some ts -> Printf.printf "time to first route:  %.2f\n" ts
    | None -> print_string "time to first route:  never\n");
    Printf.printf "time to quiescence:   %.2f\n" (Pr_obs.Timeline.quiescence tl);
    let per_ad_tables =
      Array.init (Pr_topology.Graph.n g) (fun ad ->
          float_of_int (P.table_entries (R.protocol r) ad))
    in
    let profile =
      Pr_obs.Load_profile.of_series
        (Pr_sim.Metrics.load_series (R.metrics r) @ [ ("table-entries", per_ad_tables) ])
    in
    Pr_util.Texttable.print ~title:"per-AD load profile" (Pr_obs.Load_profile.table profile);
    Printf.printf "trace: %s (%d events%s)\n" out (Pr_obs.Trace.length trace)
      (let d = Pr_obs.Trace.dropped trace in
       if d = 0 then "" else Printf.sprintf ", %d dropped" d)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one protocol with tracing enabled: write a Perfetto-loadable Chrome trace \
          and print the convergence timeline and per-AD load profile.")
    Term.(
      const run $ logs_term $ protocol_arg $ seed_arg $ size_arg $ flows_arg
      $ restrictiveness_arg $ granularity_arg $ window_arg
      $ max_events_arg $ out_arg)

(* --- chaos ---------------------------------------------------------- *)

(* One protocol through the fault-injection gauntlet: compile a fault
   plan onto the event queue, converge through it, and check the
   resilience invariants (loop-freedom, no blackholes, reconvergence).
   Violations exit non-zero, so this doubles as a CI gate. *)

let chaos_cmd =
  let protocol_arg =
    let doc =
      "Protocol (design point) to torture; see `prx design-space`. The deliberately \
       broken variant $(b,broken-ls) is also accepted — the harness must flag it."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PROTOCOL" ~doc)
  in
  let plan_arg =
    plan_arg
      ~doc:
        "$(b,--list-profiles) expands each profile. Adversarial profiles \
         ($(b,byzantine), $(b,leak), $(b,chatter)) add a Byzantine attacker."
  in
  let list_profiles_flag =
    let doc = "List the named fault profiles with their expanded plans, then exit." in
    Arg.(value & flag & info [ "list-profiles" ] ~doc)
  in
  let no_guard_flag =
    let doc =
      "Disable the update guard (validation, flap damping, quarantine): measure the \
       undefended protocol."
    in
    Arg.(value & flag & info [ "no-guard" ] ~doc)
  in
  let probes_arg =
    count_arg ~name:"probes" ~default:40
      ~doc:"Number of probe flows checked against the invariants."
  in
  let churn_flag =
    let doc = "Interleave scheduled link churn (its own rng stream) with the plan." in
    Arg.(value & flag & info [ "churn" ] ~doc)
  in
  let max_events_arg =
    let doc = "Simulation event budget (exhaustion is a no-reconvergence violation)." in
    Arg.(value & opt int 10_000_000 & info [ "max-events" ] ~docv:"N" ~doc)
  in
  let report_arg =
    let doc = "Write the full deterministic report as JSON to this file." in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let post_mortem_arg =
    let doc =
      "On any invariant violation, dump the flight recorder plus a telemetry snapshot \
       to this post-mortem JSON file (\"none\" disables)."
    in
    Arg.(value & opt string "prx-postmortem.json" & info [ "post-mortem" ] ~docv:"FILE" ~doc)
  in
  let run () protocol seed size probes restrictiveness granularity churn
      max_events (plan_name, plan) list_profiles no_guard report_path post_mortem =
    if list_profiles then begin
      List.iter
        (fun (name, p) ->
          let spec = Pr_faults.Plan.to_string p in
          Printf.printf "%-10s %s\n" name (if spec = "" then "(no faults)" else spec))
        Pr_faults.Plan.profiles;
      exit 0
    end;
    let packed =
      match protocol with
      | Some name -> design_point name
      | None -> usage_error "a PROTOCOL argument is required (or use --list-profiles)"
    in
    let scenario = scenario_of ~seed ~size ~restrictiveness ~granularity in
    (match
       Pr_faults.Plan.check_ads plan ~n:(Pr_topology.Graph.n scenario.Pr_core.Scenario.graph)
     with
    | Ok () -> ()
    | Error e -> usage_error "bad --plan %S: %s" plan_name e);
    let guard = if no_guard then Pr_guard.Guard.disabled else Pr_guard.Guard.default_config in
    let report =
      Pr_faults.Chaos.run ~plan ~guard ~probes ~churn ~max_events packed scenario
    in
    Format.printf "%a@." Pr_faults.Chaos.pp report;
    Option.iter
      (fun path ->
        write_json ~pretty:true path (Pr_faults.Chaos.report_json report);
        Printf.printf "report: %s\n" path)
      report_path;
    match report.Pr_faults.Chaos.violations with
    | [] -> ()
    | first :: _ ->
      if post_mortem <> "none" then
        write_post_mortem post_mortem
          ~reason:
            (Printf.sprintf "chaos invariant violation: [%s] %s" first.Pr_faults.Chaos.kind
               first.Pr_faults.Chaos.detail);
      exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run one protocol under a deterministic fault plan (crashes, partitions, link \
          storms, message faults) and check the resilience invariants; exits 1 on any \
          violation.")
    Term.(
      const run $ logs_term $ protocol_arg $ seed_arg $ size_arg $ probes_arg
      $ restrictiveness_arg $ granularity_arg $ churn_flag
      $ max_events_arg $ plan_arg $ list_profiles_flag $ no_guard_flag $ report_arg
      $ post_mortem_arg)

(* --- serve ---------------------------------------------------------- *)

(* The route-server serving layer under load: run the deterministic
   Daemon request loop (skewed workload + fault churn + policy flips)
   at each requested size, print the per-size report, optionally write
   the BENCH_serve.json document, and exit non-zero when any session is
   unhealthy (admission disagreement, handle leak, hash-cons
   violation, or zero answered queries). *)

let serve_cmd =
  let sizes_arg =
    let doc = "Comma-separated internet sizes (AD counts) to serve at." in
    Arg.(value & opt (list int) [ 56 ] & info [ "sizes" ] ~docv:"SIZES" ~doc)
  in
  let duration_arg =
    let doc = "Simulated time to run each session for." in
    Arg.(
      value
      & opt float Pr_serve.Daemon.default_config.Pr_serve.Daemon.duration
      & info [ "duration" ] ~docv:"T" ~doc)
  in
  let batch_arg =
    let doc = "Operations per batch event." in
    Arg.(
      value
      & opt int Pr_serve.Daemon.default_config.Pr_serve.Daemon.batch
      & info [ "batch" ] ~docv:"N" ~doc)
  in
  let interval_arg =
    let doc = "Simulated time between operation batches." in
    Arg.(
      value
      & opt float Pr_serve.Daemon.default_config.Pr_serve.Daemon.interval
      & info [ "interval" ] ~docv:"T" ~doc)
  in
  let plan_arg =
    plan_arg
      ~doc:
        "Adversarial profiles drive the daemon into serve-stale degradation when the \
         update guard quarantines a flapping adjacency."
  in
  let flip_every_arg =
    let doc = "Simulated time between transit-policy flips (0 disables them)." in
    Arg.(
      value
      & opt float Pr_serve.Daemon.default_config.Pr_serve.Daemon.flip_every
      & info [ "flip-every" ] ~docv:"T" ~doc)
  in
  let route_capacity_arg =
    let doc = "Route-cache capacity (LRU entries)." in
    Arg.(
      value
      & opt int Pr_serve.Daemon.default_config.Pr_serve.Daemon.route_capacity
      & info [ "route-capacity" ] ~docv:"N" ~doc)
  in
  let handle_capacity_arg =
    let doc = "Handle-table capacity (LRU entries)." in
    Arg.(
      value
      & opt int Pr_serve.Daemon.default_config.Pr_serve.Daemon.handle_capacity
      & info [ "handle-capacity" ] ~docv:"N" ~doc)
  in
  let check_every_arg =
    let doc = "Cross-check every Nth answered query three ways (0 disables)." in
    Arg.(
      value
      & opt int Pr_serve.Daemon.default_config.Pr_serve.Daemon.check_every
      & info [ "check-every" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc = "Write the BENCH_serve.json document here (\"none\" disables)." in
    Arg.(value & opt string "none" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let metrics_arg =
    let doc =
      "Write the final telemetry-registry snapshot (counters, gauges, latency \
       histograms) as JSON here (\"none\" disables)."
    in
    Arg.(value & opt string "none" & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let post_mortem_arg =
    let doc =
      "On any health-check failure, dump the flight recorder plus a telemetry snapshot \
       to this post-mortem JSON file (\"none\" disables)."
    in
    Arg.(value & opt string "prx-postmortem.json" & info [ "post-mortem" ] ~docv:"FILE" ~doc)
  in
  let run () seed sizes restrictiveness granularity duration batch interval
      (plan_name, plan) flip_every route_capacity handle_capacity check_every out
      metrics_out post_mortem =
    if sizes = [] then usage_error "--sizes must name at least one size";
    let policy = { Pr_policy.Gen.default with restrictiveness; granularity } in
    (* A plan that names no AD fits every internet (it passes even
       against zero ADs); otherwise check it against each size's
       internet before any session runs. *)
    if Result.is_error (Pr_faults.Plan.check_ads plan ~n:0) then
      List.iter
        (fun target_ads ->
          let sc = Pr_core.Scenario.for_size ~policy ~target_ads ~seed () in
          match
            Pr_faults.Plan.check_ads plan
              ~n:(Pr_topology.Graph.n sc.Pr_core.Scenario.graph)
          with
          | Ok () -> ()
          | Error e -> usage_error "bad --plan %S at size %d: %s" plan_name target_ads e)
        sizes;
    let reports =
      List.map
        (fun target_ads ->
          let cfg =
            {
              Pr_serve.Daemon.seed;
              target_ads;
              duration;
              batch;
              interval;
              plan;
              plan_name;
              flip_every;
              route_capacity;
              handle_capacity;
              check_every;
              policy;
              record_exact = false;
            }
          in
          let cfg =
            match Pr_serve.Daemon.check_config cfg with
            | Ok cfg -> cfg
            | Error e -> usage_error "bad serve option: %s" e
          in
          let r = Pr_serve.Daemon.run cfg in
          Format.printf "%a@." Pr_serve.Daemon.pp_report r;
          r)
        sizes
    in
    if out <> "none" then begin
      write_json ~pretty:true out (Pr_serve.Daemon.document_json reports);
      Printf.printf "results: %s\n" out
    end;
    if metrics_out <> "none" then begin
      write_json ~pretty:true metrics_out
        (Pr_telemetry.Registry.snapshot_to_json (telemetry_snapshot ()));
      Printf.printf "metrics: %s\n" metrics_out
    end;
    let sick = List.filter (fun r -> not (Pr_serve.Daemon.healthy r)) reports in
    if sick <> [] then begin
      let describe (r : Pr_serve.Daemon.report) =
        Printf.sprintf "size %d: %s" r.Pr_serve.Daemon.ads
          (match r.Pr_serve.Daemon.self_check_error with
          | Some e -> e
          | None ->
            if r.Pr_serve.Daemon.agreement_failures > 0 then
              Printf.sprintf "%d admission disagreements"
                r.Pr_serve.Daemon.agreement_failures
            else "no queries answered")
      in
      if post_mortem <> "none" then
        write_post_mortem post_mortem
          ~reason:
            ("serve health-check failure: " ^ String.concat "; " (List.map describe sick));
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the route-server query daemon on a simulated request stream concurrent \
          with fault-plan churn and policy flips; measures qps, query latency, diagram \
          rebuild latency and cache hit rates, and exits 1 on any health-check failure.")
    Term.(
      const run $ logs_term $ seed_arg $ sizes_arg $ restrictiveness_arg
      $ granularity_arg $ duration_arg $ batch_arg $ interval_arg $ plan_arg
      $ flip_every_arg $ route_capacity_arg $ handle_capacity_arg $ check_every_arg
      $ out_arg $ metrics_arg $ post_mortem_arg)

(* --- stats ---------------------------------------------------------- *)

(* One instrumented run, then the telemetry registry on stdout: converge
   a protocol on a generated scenario, route a workload through it, and
   print the process-global registry (engine/net counters, per-driver
   computation-work histograms, GC gauges) as Prometheus text
   exposition, optionally also as a JSON snapshot. *)

let stats_cmd =
  let protocol_arg =
    design_point_arg ~doc:"Protocol (design point) to run; see `prx design-space`."
  in
  let out_arg =
    let doc = "Also write the snapshot as a telemetry-snapshot JSON document here." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let run () packed seed size flows restrictiveness granularity out =
    let scenario = scenario_of ~seed ~size ~restrictiveness ~granularity in
    let rng = Pr_util.Rng.create (seed + 1) in
    let workload = Pr_core.Scenario.flows scenario ~rng ~count:flows () in
    ignore (Pr_core.Experiment.evaluate packed scenario ~flows:workload ());
    let snap = telemetry_snapshot () in
    print_string (Pr_telemetry.Registry.to_prometheus snap);
    Option.iter
      (fun path ->
        write_json ~pretty:true path (Pr_telemetry.Registry.snapshot_to_json snap);
        Printf.eprintf "snapshot: %s\n" path)
      out
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run one protocol with full telemetry and print the metrics registry as \
          Prometheus text exposition.")
    Term.(
      const run $ logs_term $ protocol_arg $ seed_arg $ size_arg $ flows_arg
      $ restrictiveness_arg $ granularity_arg $ out_arg)

(* --- bench diff ----------------------------------------------------- *)

(* The regression gate: re-run the serve rows of a committed benchmark
   document from their own configs and gate each fresh row against its
   baseline row (Pr_telemetry.Gate). Exits 1 on any failed field, 2 on
   a malformed document or when nothing could be compared. *)

let bench_cmd =
  let diff_cmd =
    let baseline_arg =
      let doc = "Committed benchmark document to gate against." in
      Arg.(
        value & opt string "BENCH_serve.json" & info [ "baseline" ] ~docv:"FILE" ~doc)
    in
    let sizes_arg =
      let doc = "Only re-run baseline rows with these target_ads sizes (default: all)." in
      Arg.(value & opt (list int) [] & info [ "sizes" ] ~docv:"SIZES" ~doc)
    in
    let run () baseline sizes =
      let module Gate = Pr_telemetry.Gate in
      let module Daemon = Pr_serve.Daemon in
      let rows =
        match Gate.read baseline with
        | Ok (_, rows) -> rows
        | Error e -> usage_error "cannot read baseline %s: %s" baseline e
      in
      (* Every serve row must describe a runnable session before any runs. *)
      let sessions =
        List.concat
          (List.mapi
             (fun i (row : Gate.row) ->
               if row.Gate.layer <> "serve" then []
               else
                 match Daemon.config_of_row row with
                 | Ok cfg -> [ (row, cfg) ]
                 | Error e -> usage_error "%s: results row %d: %s" baseline i e)
             rows)
      in
      let chosen =
        List.filter (fun (_, c) -> sizes = [] || List.mem c.Daemon.target_ads sizes) sessions
      in
      if chosen = [] then
        usage_error "%s: no serve rows to re-run (%d row(s), %d serve)" baseline
          (List.length rows) (List.length sessions);
      let failed =
        List.fold_left
          (fun failed (row, cfg) ->
            let ads = cfg.Daemon.target_ads in
            Printf.printf "re-running size %d (seed %d, plan %s)...\n%!" ads cfg.Daemon.seed
              cfg.Daemon.plan_name;
            let current = Daemon.row (Daemon.run cfg) in
            let bad =
              Gate.report_failures ~tolerance:Gate.default_tolerance ~baseline:row ~current
            in
            Printf.printf "  size %d: %d field(s) out of tolerance\n" ads bad;
            failed + bad)
          0 chosen
      in
      if failed > 0 then begin
        Printf.eprintf "bench diff: FAIL (%d field(s) out of tolerance vs %s)\n" failed baseline;
        exit 1
      end;
      Printf.printf "bench diff: ok (%d row(s) within tolerance of %s)\n" (List.length chosen)
        baseline
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Re-run the serve rows of a committed benchmark document (BENCH_serve.json) \
            and gate them; exits 1 on regression, 2 when nothing was comparable.")
      Term.(const run $ logs_term $ baseline_arg $ sizes_arg)
  in
  Cmd.group
    (Cmd.info "bench" ~doc:"Benchmark-baseline tooling (see `prx bench diff`).")
    [ diff_cmd ]

(* A command line Cmdliner rejects (an unknown command or option, a
   value it cannot convert, a missing argument) is a usage error like
   any other:
   its report, taken unwrapped, is cut to the one [prx:] line before the
   usage block, and the exit status is 2 rather than Cmdliner's 124. *)
let () =
  let info = Cmd.info "prx" ~doc:"Inter-AD policy routing explorer (Breslau & Estrin, SIGCOMM 1990)." in
  let cmd =
    Cmd.group info
      [
        design_space_cmd;
        topology_cmd;
        evaluate_cmd;
        dot_cmd;
        oracle_cmd;
        impact_cmd;
        conformance_cmd;
        sweep_cmd;
        serve_cmd;
        converge_cmd;
        trace_cmd;
        chaos_cmd;
        stats_cmd;
        bench_cmd;
      ]
  in
  let report = Buffer.create 256 in
  let err = Format.formatter_of_buffer report in
  Format.pp_set_margin err 1_000_000;
  let result = Cmd.eval_value ~err cmd in
  Format.pp_print_flush err ();
  let report = Buffer.contents report in
  match result with
  | Ok _ -> exit Cmd.Exit.ok
  | Error (`Parse | `Term) ->
    prerr_endline (List.hd (String.split_on_char '\n' report));
    exit 2
  | Error `Exn ->
    prerr_string report;
    exit Cmd.Exit.internal_error
