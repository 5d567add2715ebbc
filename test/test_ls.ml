(* Tests for the classic link-state baseline. *)

module Rng = Pr_util.Rng
module Graph = Pr_topology.Graph
module Generator = Pr_topology.Generator
module Figure1 = Pr_topology.Figure1
module Path = Pr_topology.Path
module Flow = Pr_policy.Flow
module Config = Pr_policy.Config
module Forwarding = Pr_proto.Forwarding
module Runner = Pr_proto.Runner
module Ls = Pr_ls.Ls
module R = Runner.Make (Ls)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let setup g =
  let r = R.setup g (Config.defaults g) in
  let c = R.converge r in
  check_bool "converged" true c.Runner.converged;
  r

let ls_optimal_paths () =
  let g = Figure1.graph () in
  let r = setup g in
  let all_ok = ref true in
  for src = 0 to Graph.n g - 1 do
    for dst = 0 to Graph.n g - 1 do
      if src <> dst then begin
        let flow = Flow.make ~src ~dst () in
        match R.send_flow r flow with
        | Forwarding.Delivered { path; _ } ->
          let best =
            Path.enumerate_simple g ~src ~dst ~max_hops:13 ()
            |> List.filter_map (fun p -> Path.cost g p)
            |> List.fold_left Stdlib.min max_int
          in
          if Path.cost g path <> Some best then all_ok := false
        | _ -> all_ok := false
      end
    done
  done;
  check_bool "every delivered path is cost-optimal" true !all_ok

let ls_reconvergence () =
  let g = Figure1.graph () in
  let r = setup g in
  let lid = Option.get (Graph.find_link g 0 1) in
  R.fail_link r lid;
  let c = R.converge r in
  check_bool "reconverged" true c.Runner.converged;
  let flow = Flow.make ~src:7 ~dst:12 () in
  (match R.send_flow r flow with
  | Forwarding.Delivered { path; _ } ->
    check_bool "avoids failed link" true
      (not
         (List.exists2
            (fun a b -> (a = 0 && b = 1) || (a = 1 && b = 0))
            (List.filteri (fun i _ -> i < List.length path - 1) path)
            (List.tl path)))
  | o -> Alcotest.failf "expected delivery, got %a" Forwarding.pp_outcome o);
  check_bool "spf ran" true (Ls.spf_runs (R.protocol r) > 0)

let ls_partition () =
  let g = Generator.line ~n:4 in
  let r = setup g in
  let lid = Option.get (Graph.find_link g 1 2) in
  R.fail_link r lid;
  ignore (R.converge r);
  Alcotest.(check (option int)) "no next hop across partition" None
    (Ls.next_hop_of (R.protocol r) ~at:0 ~dst:3);
  Alcotest.(check (option int)) "next hop within partition" (Some 1)
    (Ls.next_hop_of (R.protocol r) ~at:0 ~dst:1)

let ls_cheaper_convergence_messages_than_dv () =
  (* Link state floods O(links) LSAs; DV exchanges full vectors —
     on meshy graphs LS converges with fewer messages. *)
  let g = Generator.random_mesh (Rng.create 4) ~n:30 ~extra_links:25 in
  let module Rdv = Runner.Make (Pr_dv.Dv.Plain) in
  let rls = R.setup g (Config.defaults g) in
  let cls = R.converge rls in
  let rdv = Rdv.setup g (Config.defaults g) in
  let cdv = Rdv.converge rdv in
  check_bool
    (Printf.sprintf "LS fewer messages (%d < %d)" cls.Runner.messages cdv.Runner.messages)
    true
    (cls.Runner.messages < cdv.Runner.messages)

let ls_next_hop_is_neighbor =
  QCheck.Test.make ~name:"next hops are actual neighbors" ~count:10 QCheck.small_int
    (fun seed ->
      let g = Generator.generate (Rng.create seed) Generator.default in
      let r = R.setup g (Config.defaults g) in
      ignore (R.converge r);
      let ok = ref true in
      let n = Graph.n g in
      for at = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if at <> dst then
            match Ls.next_hop_of (R.protocol r) ~at ~dst with
            | None -> ok := false
            | Some nh -> if not (List.mem nh (Graph.neighbor_ids g at)) then ok := false
        done
      done;
      !ok)

(* [Ls.routes] is counted once per spanning tree; it must stay the
   fold over the AD's next hops through link failures and restores,
   crashes (whose reset empties the table) and restarts. *)
let routes_match_fold =
  QCheck.Test.make ~name:"routes equals the fold over next hops" ~count:10 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let g = Generator.random_mesh rng ~n:20 ~extra_links:12 in
      let r = R.setup g (Config.defaults g) in
      ignore (R.converge r);
      let n = Graph.n g and ls = R.protocol r and ok = ref true in
      let check () =
        for at = 0 to n - 1 do
          let fold = ref 0 in
          for dst = 0 to n - 1 do
            if Ls.next_hop_of ls ~at ~dst <> None then incr fold
          done;
          if Ls.routes ls at <> !fold then ok := false
        done
      in
      check ();
      for _ = 1 to 6 do
        let ad = Rng.int rng n and lid = Rng.int rng (Graph.num_links g) in
        (match Rng.int rng 3 with
        | 0 -> R.fail_link r lid
        | 1 -> R.restore_link r lid
        | _ ->
          R.crash_ad r ad;
          ignore (R.converge r);
          R.restart_ad r ad;
          if Ls.routes ls ad <> 0 then ok := false);
        ignore (R.converge r);
        check ()
      done;
      !ok)

(* Every AD starts on one shared all-unreached next-hop table, and a
   restart puts it back there. Each AD's table must still be its own:
   the tables ADs compute do not depend on the order in which ADs
   compute them, and restarting one AD leaves every other AD's routes
   as they were. *)
let tables_are_per_ad () =
  let g = Generator.random_mesh (Rng.create 11) ~n:20 ~extra_links:12 in
  let n = Graph.n g in
  let table r at = List.init n (fun dst -> Ls.next_hop_of (R.protocol r) ~at ~dst) in
  (* Every AD computes its tree, in the given order; then every table
     is read, so a table written through another AD's would show. *)
  let tables r order =
    List.iter (fun at -> ignore (Ls.next_hop_of (R.protocol r) ~at ~dst:at)) order;
    List.init n (table r)
  in
  let ads = List.init n Fun.id in
  let forward = R.setup g (Config.defaults g) and backward = R.setup g (Config.defaults g) in
  ignore (R.converge forward);
  ignore (R.converge backward);
  for at = 0 to n - 1 do
    check_bool "no routes before the first SPF" true (Ls.routes (R.protocol forward) at = 0)
  done;
  let tables_fwd = tables forward ads in
  let tables_bwd = tables backward (List.rev ads) in
  check_bool "tables do not depend on the order ADs compute them" true
    (tables_fwd = tables_bwd);
  let routes_before = List.init n (Ls.routes (R.protocol forward)) in
  R.crash_ad forward 3;
  ignore (R.converge forward);
  R.restart_ad forward 3;
  check_int "the restarted AD's table is empty" 0 (Ls.routes (R.protocol forward) 3);
  List.iteri
    (fun at before ->
      if at <> 3 then
        check_int (Printf.sprintf "routes at %d" at) before (Ls.routes (R.protocol forward) at))
    routes_before;
  ignore (R.converge forward);
  check_bool "after reconverging, every table is as before" true
    (tables forward (List.rev ads) = tables_fwd)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "pr_ls"
    [
      ( "ls",
        [
          Alcotest.test_case "optimal paths" `Quick ls_optimal_paths;
          Alcotest.test_case "reconvergence" `Quick ls_reconvergence;
          Alcotest.test_case "partition" `Quick ls_partition;
          Alcotest.test_case "fewer messages than DV" `Quick
            ls_cheaper_convergence_messages_than_dv;
          Alcotest.test_case "tables are per AD" `Quick tables_are_per_ad;
        ]
        @ qsuite [ ls_next_hop_is_neighbor; routes_match_fold ] );
    ]
