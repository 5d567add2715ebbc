(* Unit and property tests for pr_kernels, the kernels only the
   benchmarks and the scale smoke run: Spf_delta, Hierarchy and the
   Keyed heap under them. *)

module Rng = Pr_util.Rng
module Link = Pr_topology.Link
module Graph = Pr_topology.Graph
module Path = Pr_topology.Path
module Generator = Pr_topology.Generator
module Figure1 = Pr_topology.Figure1
module Spf = Pr_topology.Spf
module Spf_delta = Pr_kernels.Spf_delta
module Hierarchy = Pr_kernels.Hierarchy
module Keyed = Pr_kernels.Keyed

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* --- Spf_delta ------------------------------------------------------ *)

(* Apply one random patch both to the retained tree and to the mirror
   up/cost arrays the from-scratch oracle reads. [crashed] records the
   links each crashed AD took down, as the simulation runner does. *)
let delta_apply_op g d up cost crashed (kind, x, y) =
  let n = Graph.n g and m = Graph.num_links g in
  match kind mod 4 with
  | 0 ->
    let lid = x mod m in
    let to_up = not (Spf_delta.link_up d lid) in
    Spf_delta.set_link d lid ~up:to_up;
    up.(lid) <- to_up
  | 1 ->
    let lid = x mod m in
    let c = 1 + (y mod 9) in
    Spf_delta.set_cost d lid ~cost:c;
    cost.(lid) <- c
  | 2 ->
    let v = x mod n in
    if not (Hashtbl.mem crashed v) then begin
      let links = Spf_delta.node_down d v in
      List.iter (fun lid -> up.(lid) <- false) links;
      Hashtbl.add crashed v links
    end
  | _ -> (
    match Hashtbl.fold (fun v links _ -> Some (v, links)) crashed None with
    | None -> ()
    | Some (v, links) ->
      Spf_delta.node_up d ~links;
      List.iter (fun lid -> up.(lid) <- true) links;
      Hashtbl.remove crashed v)

let delta_graph seed =
  let rng = Rng.create seed in
  match seed mod 4 with
  | 0 -> Generator.generate rng Generator.default
  | 1 -> Generator.generate rng (Generator.scaled ~target_ads:150)
  | 2 -> Generator.random_mesh rng ~n:40 ~extra_links:25
  | _ -> Generator.ring ~n:24

(* The ISSUE's core property: after an arbitrary sequence of link
   up/down, weight-change and crash/restart deltas, the retained tree's
   distances equal a from-scratch SPF under the same link state — after
   every single repair, not just at the end — and the structural audit
   passes. Restoring everything must bring it back to [Spf.tree]. *)
let delta_vs_scratch_prop =
  QCheck.Test.make ~name:"Spf_delta repairs match from-scratch SPF" ~count:40
    QCheck.(pair small_nat (small_list (triple small_nat small_nat small_nat)))
    (fun (seed, ops) ->
      let g = delta_graph seed in
      let n = Graph.n g and m = Graph.num_links g in
      let src = seed * 7 mod n in
      let d = Spf_delta.create g ~src in
      let up = Array.make m true in
      let cost = Array.init m (fun lid -> (Graph.link g lid).Link.cost) in
      let crashed = Hashtbl.create 8 in
      let agrees () =
        let scratch = Spf.tree_state g ~up ~cost ~src in
        (Spf_delta.to_tree d).Spf.dist = scratch.Spf.dist
        && Spf_delta.self_check d = Ok ()
      in
      agrees ()
      && List.for_all
           (fun op ->
             delta_apply_op g d up cost crashed op;
             agrees ())
           ops
      &&
      (* restore everything and compare against the static-cost tree *)
      (Hashtbl.iter (fun _ links -> Spf_delta.node_up d ~links) crashed;
       for lid = 0 to m - 1 do
         Spf_delta.set_link d lid ~up:true;
         Spf_delta.set_cost d lid ~cost:(Graph.link g lid).Link.cost
       done;
       (Spf_delta.to_tree d).Spf.dist = (Spf.tree g ~src).Spf.dist
       && Spf_delta.self_check d = Ok ()))

let delta_basics () =
  let g = Figure1.graph () in
  let src = 0 in
  let d = Spf_delta.create g ~src in
  let t0 = Spf.tree g ~src in
  check_bool "fresh tree = Spf.tree" true ((Spf_delta.to_tree d).Spf.dist = t0.Spf.dist);
  check_int "no events yet" 0 (Spf_delta.events d);
  (* take down every link on the source's shortest-path tree edge to a
     chosen far node, one at a time, and verify against scratch *)
  let up = Array.make (Graph.num_links g) true in
  let cost = Array.init (Graph.num_links g) (fun lid -> (Graph.link g lid).Link.cost) in
  for lid = 0 to Stdlib.min 3 (Graph.num_links g - 1) do
    Spf_delta.set_link d lid ~up:false;
    up.(lid) <- false;
    let scratch = Spf.tree_state g ~up ~cost ~src in
    check_bool
      (Printf.sprintf "dist after link %d down" lid)
      true
      ((Spf_delta.to_tree d).Spf.dist = scratch.Spf.dist)
  done;
  check_int "events counted" 4 (Spf_delta.events d);
  check_bool "self check" true (Spf_delta.self_check d = Ok ());
  (* crash the source: everything else must become unreachable *)
  let links = Spf_delta.node_down d src in
  check_bool "source still at 0" true (Spf_delta.dist d src = 0);
  let others_unreachable = ref true in
  for v = 1 to Graph.n g - 1 do
    if Spf_delta.dist d v >= 0 then others_unreachable := false
  done;
  check_bool "others unreachable after src crash" true !others_unreachable;
  Spf_delta.node_up d ~links;
  List.iter (fun lid -> up.(lid) <- true) links;
  check_bool "restored matches scratch" true
    ((Spf_delta.to_tree d).Spf.dist = (Spf.tree_state g ~up ~cost ~src).Spf.dist);
  check_bool "repaired fewer nodes than full recompute" true
    (Spf_delta.nodes_repaired d <= Spf_delta.events d * Graph.n g)

let delta_cost_guard () =
  let g = Figure1.graph () in
  let d = Spf_delta.create g ~src:0 in
  Alcotest.check_raises "cost below 1 rejected"
    (Invalid_argument "Spf_delta.set_cost: cost must be >= 1") (fun () ->
      Spf_delta.set_cost d 0 ~cost:0)

(* --- Hierarchy ------------------------------------------------------ *)

let hierarchy_partition h n =
  let seen = Array.make n 0 in
  for c = 0 to Hierarchy.num_clusters h - 1 do
    Array.iter
      (fun ad ->
        seen.(ad) <- seen.(ad) + 1;
        if Hierarchy.cluster_of h ad <> c then seen.(ad) <- 99)
      (Hierarchy.members h c)
  done;
  Array.for_all (fun x -> x = 1) seen

let hierarchy_figure1 () =
  let g = Figure1.graph () in
  let h = Hierarchy.build g ~cluster_of:(Hierarchy.clusters_of_levels g) in
  let n = Graph.n g in
  check_bool "clusters partition the ADs" true (hierarchy_partition h n);
  check_bool "more than one cluster" true (Hierarchy.num_clusters h > 1);
  let exact = Array.init n (fun src -> Spf.tree g ~src) in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      match Hierarchy.route h ~src ~dst with
      | None -> Alcotest.failf "no hierarchical route %d -> %d" src dst
      | Some p ->
        check_bool "valid path" true (src = dst || Path.is_valid g p);
        check_int "starts at src" src (Path.source p);
        check_int "ends at dst" dst (Path.destination p);
        check_bool "loop free" true (Path.is_loop_free p);
        let c = Hierarchy.route_cost h p in
        check_bool "stretch >= 1" true (c >= exact.(src).Spf.dist.(dst))
    done
  done

let hierarchy_routes_prop =
  QCheck.Test.make ~name:"hierarchical routes deliver, loop-free, stretch >= 1" ~count:25
    QCheck.small_nat (fun seed ->
      let rng = Rng.create seed in
      let g = Generator.generate rng Generator.default in
      let n = Graph.n g in
      let h = Hierarchy.build g ~cluster_of:(Hierarchy.clusters_of_levels g) in
      hierarchy_partition h n
      && List.for_all
           (fun _ ->
             let src = Rng.int rng n and dst = Rng.int rng n in
             match Hierarchy.route h ~src ~dst with
             | None -> false
             | Some p ->
               (src = dst || Path.is_valid g p)
               && Path.source p = src && Path.destination p = dst
               && Path.is_loop_free p
               && Hierarchy.route_cost h p >= (Spf.tree g ~src).Spf.dist.(dst))
           (List.init 20 (fun i -> i)))

let hierarchy_compact () =
  let rng = Rng.create 17 in
  let g = Generator.generate rng (Generator.scaled ~target_ads:400) in
  let n = Graph.n g in
  let h = Hierarchy.build g ~cluster_of:(Hierarchy.clusters_of_levels g) in
  check_bool "cluster graph much smaller than internet" true
    (Graph.n (Hierarchy.cluster_graph h) < n / 2);
  let all_compact = ref true in
  for ad = 0 to n - 1 do
    if Hierarchy.table_entries h ad >= n then all_compact := false
  done;
  check_bool "every table smaller than flat O(n)" true !all_compact

(* --- Keyed ---------------------------------------------------------- *)

let keyed_basic () =
  let q = Keyed.create ~capacity:8 in
  check_bool "empty" true (Keyed.is_empty q);
  check_bool "insert 3" true (Keyed.insert_or_decrease q 3 ~priority:30);
  check_bool "insert 1" true (Keyed.insert_or_decrease q 1 ~priority:10);
  check_bool "insert 5" true (Keyed.insert_or_decrease q 5 ~priority:20);
  check_int "length" 3 (Keyed.length q);
  check_bool "mem 3" true (Keyed.mem q 3);
  check_bool "not mem 0" false (Keyed.mem q 0);
  Alcotest.(check (option int)) "priority of 3" (Some 30) (Keyed.priority q 3);
  check_bool "worse priority ignored" false (Keyed.insert_or_decrease q 3 ~priority:40);
  Alcotest.(check (option int)) "still 30" (Some 30) (Keyed.priority q 3);
  check_bool "decrease 3" true (Keyed.insert_or_decrease q 3 ~priority:5);
  Alcotest.(check (option (pair int int))) "pop 3 first after decrease" (Some (5, 3))
    (Keyed.pop q);
  check_bool "popped not mem" false (Keyed.mem q 3);
  Alcotest.(check (option (pair int int))) "pop 1" (Some (10, 1)) (Keyed.pop q);
  Alcotest.(check (option (pair int int))) "pop 5" (Some (20, 5)) (Keyed.pop q);
  Alcotest.(check (option (pair int int))) "pop none" None (Keyed.pop q)

let keyed_key_ties () =
  let q = Keyed.create ~capacity:8 in
  List.iter
    (fun k -> ignore (Keyed.insert_or_decrease q k ~priority:7))
    [ 6; 2; 4; 0 ];
  let popped = ref [] in
  let rec drain () =
    match Keyed.pop q with
    | None -> ()
    | Some (_, k) ->
      popped := k :: !popped;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "equal priorities pop by key" [ 0; 2; 4; 6 ] (List.rev !popped)

(* The decrease-key analog of the vacated-slot path: popping moves the
   last heap entry into the root, so the pos bookkeeping must stay
   exact through pop/reinsert cycles that reuse freed keys. *)
let keyed_vacated_reuse () =
  let q = Keyed.create ~capacity:4 in
  for k = 0 to 3 do
    ignore (Keyed.insert_or_decrease q k ~priority:(10 + k))
  done;
  Alcotest.(check (option (pair int int))) "pop 0" (Some (10, 0)) (Keyed.pop q);
  (* key 0 reinserted after its slot was vacated and backfilled *)
  check_bool "reinsert popped key" true (Keyed.insert_or_decrease q 0 ~priority:25);
  check_bool "decrease reinserted" true (Keyed.insert_or_decrease q 0 ~priority:9);
  Alcotest.(check (option (pair int int))) "reinserted pops first" (Some (9, 0))
    (Keyed.pop q);
  Keyed.clear q;
  check_bool "cleared" true (Keyed.is_empty q);
  check_bool "cleared keys absent" false (Keyed.mem q 2);
  check_bool "usable after clear" true (Keyed.insert_or_decrease q 2 ~priority:1);
  Alcotest.(check (option (pair int int))) "pop after clear" (Some (1, 2)) (Keyed.pop q)

(* Model check: a sequence of insert_or_decrease operations against a
   reference map, then drain — pops must come out exactly in
   (priority, key) order of the final model state. *)
let keyed_vs_model =
  QCheck.Test.make ~name:"keyed heap drains in (priority, key) order of the model"
    ~count:300
    QCheck.(list (pair (int_range 0 31) (int_range 0 50)))
    (fun ops ->
      let q = Keyed.create ~capacity:32 in
      let model = Hashtbl.create 32 in
      List.iter
        (fun (k, p) ->
          let changed = Keyed.insert_or_decrease q k ~priority:p in
          (match Hashtbl.find_opt model k with
          | None ->
            if not changed then raise Exit;
            Hashtbl.replace model k p
          | Some old ->
            if changed <> (p < old) then raise Exit;
            if p < old then Hashtbl.replace model k p))
        ops;
      let expect =
        Hashtbl.fold (fun k p acc -> (p, k) :: acc) model [] |> List.sort compare
      in
      let rec drain acc =
        match Keyed.pop q with None -> List.rev acc | Some pk -> drain (pk :: acc)
      in
      drain [] = expect)

(* The swap-based, recursive Keyed heap that the hole-based sifts
   replaced, kept here as the reference for pop order. *)
module Swap_keyed = struct
  type t = { heap : int array; pos : int array; prio : int array; mutable size : int }

  let create n = { heap = Array.make n 0; pos = Array.make n (-1); prio = Array.make n 0; size = 0 }

  let less t a b = t.prio.(a) < t.prio.(b) || (t.prio.(a) = t.prio.(b) && a < b)

  let swap t i j =
    let a = t.heap.(i) and b = t.heap.(j) in
    t.heap.(i) <- b;
    t.heap.(j) <- a;
    t.pos.(b) <- i;
    t.pos.(a) <- j

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less t t.heap.(i) t.heap.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && less t t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && less t t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let insert_or_decrease t key ~priority =
    let slot = t.pos.(key) in
    if slot < 0 then begin
      t.prio.(key) <- priority;
      t.heap.(t.size) <- key;
      t.pos.(key) <- t.size;
      t.size <- t.size + 1;
      sift_up t (t.size - 1);
      true
    end
    else if priority < t.prio.(key) then begin
      t.prio.(key) <- priority;
      sift_up t slot;
      true
    end
    else false

  let pop_min t =
    if t.size = 0 then -1
    else begin
      let top = t.heap.(0) in
      t.size <- t.size - 1;
      t.pos.(top) <- -1;
      if t.size > 0 then begin
        let last = t.heap.(t.size) in
        t.heap.(0) <- last;
        t.pos.(last) <- 0;
        sift_down t 0
      end;
      top
    end
end

(* Interleaved inserts, decreases and pops, with many equal
   priorities: every answer and every popped key is the swap-based
   heap's, down to the final drain. *)
let keyed_matches_swap_heap =
  QCheck.Test.make ~name:"keyed heap pops as the swap-based heap does" ~count:500
    QCheck.(list (pair (int_range 0 63) (int_range (-1) 40)))
    (fun ops ->
      let q = Keyed.create ~capacity:64 and r = Swap_keyed.create 64 in
      List.for_all
        (fun (k, p) ->
          if p < 0 then Keyed.pop_min q = Swap_keyed.pop_min r
          else
            Keyed.insert_or_decrease q k ~priority:p
            = Swap_keyed.insert_or_decrease r k ~priority:p)
        ops
      &&
      let rec drain () =
        let a = Keyed.pop_min q in
        a = Swap_keyed.pop_min r && (a < 0 || drain ())
      in
      drain ())

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "pr_kernels"
    [
      ( "spf-delta",
        [
          Alcotest.test_case "basics" `Quick delta_basics;
          Alcotest.test_case "cost guard" `Quick delta_cost_guard;
        ]
        @ qsuite [ delta_vs_scratch_prop ] );
      ( "hierarchy",
        [
          Alcotest.test_case "figure1 routes" `Quick hierarchy_figure1;
          Alcotest.test_case "compact tables" `Quick hierarchy_compact;
        ]
        @ qsuite [ hierarchy_routes_prop ] );
      ( "pqueue-keyed",
        [
          Alcotest.test_case "basic + decrease-key" `Quick keyed_basic;
          Alcotest.test_case "key ties" `Quick keyed_key_ties;
          Alcotest.test_case "vacated slot reuse + clear" `Quick keyed_vacated_reuse;
        ]
        @ qsuite [ keyed_vs_model; keyed_matches_swap_heap ] );
    ]
