(* The 10^5-AD scale smoke: proves on every test run that the paper's
   target internet size (section 2.2 talks of "tens of thousands" of
   ADs) converges and synthesizes routes inside a wall-clock budget.

   Full flooding at 10^5 ADs is off the table by construction — every
   AD holding every LSA is the O(n^2) state bill the paper's section 6
   worries about — so the smoke exercises the two mechanisms this
   repo adds for that scale:

   - hierarchical synthesis (Hierarchy): the link-state protocol
     converges over the ~sqrt(n)-node cluster graph, and full routes
     are stitched from cluster-level + intra-cluster trees;
   - incremental delta-SPF (Spf_delta): single-link events repair a
     retained tree in O(affected region) instead of O(n).

   Exits non-zero if any structural check fails or the whole run
   overruns its budget (--budget=SECONDS, default 150). *)

module Rng = Pr_util.Rng
module Stats = Pr_util.Stats
module Graph = Pr_topology.Graph
module Link = Pr_topology.Link
module Path = Pr_topology.Path
module Generator = Pr_topology.Generator
module Spf = Pr_topology.Spf
module Spf_delta = Pr_kernels.Spf_delta
module Hierarchy = Pr_kernels.Hierarchy
module Config = Pr_policy.Config
module Runner = Pr_proto.Runner
module Registry = Pr_core.Registry

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("scale_smoke: " ^ s); exit 1) fmt

let budget =
  Array.to_list Sys.argv
  |> List.find_map (fun a ->
         let prefix = "--budget=" in
         if String.starts_with ~prefix a then
           float_of_string_opt
             (String.sub a (String.length prefix) (String.length a - String.length prefix))
         else None)
  |> Option.value ~default:150.0

let () =
  let t0 = Unix.gettimeofday () in
  let g = Generator.generate (Rng.create 211) (Generator.scaled ~target_ads:100_000) in
  let n = Graph.n g in
  if n < 90_000 then fail "generator fell short of 10^5 ADs: %d" n;
  if not (Graph.is_connected g) then fail "generated internet is disconnected";
  let t_gen = Unix.gettimeofday () -. t0 in
  (* Hierarchical synthesis: converge the link-state protocol over the
     cluster graph, then stitch full routes on the physical one. *)
  let h = Hierarchy.build g ~cluster_of:(Hierarchy.clusters_of_levels g) in
  let cg = Hierarchy.cluster_graph h in
  let (Registry.Packed (module P)) = Registry.find "link-state" in
  let module R = Runner.Make (P) in
  let r = R.setup cg (Config.defaults cg) in
  let c = R.converge ~max_events:20_000_000 r in
  if not c.Runner.converged then
    fail "link-state did not converge on the %d-cluster graph" (Graph.n cg);
  let t_conv = Unix.gettimeofday () -. t0 in
  (* Sample routes from two sources: every one must be delivered,
     loop-free, and no shorter than the exact distance. *)
  let rng = Rng.create 227 in
  let stretches = ref [] in
  for _ = 1 to 2 do
    let src = Rng.int rng n in
    let exact = Spf.tree g ~src in
    for _ = 1 to 32 do
      let dst = Rng.int rng n in
      if dst <> src then
        match Hierarchy.route h ~src ~dst with
        | None -> fail "no hierarchical route %d -> %d" src dst
        | Some p ->
          if not (Path.is_valid g p) then fail "invalid route %d -> %d" src dst;
          if Path.source p <> src || Path.destination p <> dst then
            fail "route endpoints wrong for %d -> %d" src dst;
          let cost = Hierarchy.route_cost h p in
          if cost < exact.Spf.dist.(dst) then
            fail "route %d -> %d beats the shortest path" src dst;
          stretches :=
            (float_of_int cost /. float_of_int exact.Spf.dist.(dst)) :: !stretches
    done
  done;
  let t_routes = Unix.gettimeofday () -. t0 in
  (* Incremental delta-SPF at full scale: a batch of single-link
     events on a retained tree must land back on the static tree. *)
  let d = Spf_delta.create g ~src:0 in
  let m = Graph.num_links g in
  for i = 0 to 31 do
    let lid = i * m / 32 in
    Spf_delta.set_link d lid ~up:false;
    Spf_delta.set_link d lid ~up:true
  done;
  (match Spf_delta.self_check d with
  | Ok () -> ()
  | Error e -> fail "Spf_delta self-check failed: %s" e);
  if (Spf_delta.to_tree d).Spf.dist <> (Spf.tree g ~src:0).Spf.dist then
    fail "Spf_delta diverged from the from-scratch tree";
  let elapsed = Unix.gettimeofday () -. t0 in
  (* The deterministic summary goes to stdout, where runtest diffs it
     against scale_smoke_golden.txt; wall-clock times go to stderr. *)
  Printf.printf
    "scale_smoke: %d ADs, %d links; %d clusters (graph %d/%d); converged in %d events; \
     64 routes ok, stretch mean %.2f max %.2f; delta repaired %d nodes over %d events\n"
    n m (Hierarchy.num_clusters h) (Graph.n cg) (Graph.num_links cg) c.Runner.events
    (Stats.mean !stretches)
    (List.fold_left Stdlib.max 1.0 !stretches)
    (Spf_delta.nodes_repaired d) (Spf_delta.events d);
  Printf.eprintf "scale_smoke: gen %.1fs conv %.1fs routes %.1fs total %.1fs (budget %.0fs)\n"
    t_gen (t_conv -. t_gen) (t_routes -. t_conv) elapsed budget;
  if elapsed > budget then fail "overran the wall-clock budget: %.1fs > %.0fs" elapsed budget
