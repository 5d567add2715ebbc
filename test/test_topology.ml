(* Unit and property tests for pr_topology. *)

module Rng = Pr_util.Rng
module Ad = Pr_topology.Ad
module Link = Pr_topology.Link
module Graph = Pr_topology.Graph
module Path = Pr_topology.Path
module Generator = Pr_topology.Generator
module Figure1 = Pr_topology.Figure1
module Partial_order = Pr_topology.Partial_order
module Spf = Pr_topology.Spf
module Spf_delta = Pr_topology.Spf_delta
module Hierarchy = Pr_topology.Hierarchy
module Policy_search = Pr_topology.Policy_search
module Pqueue = Pr_util.Pqueue

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* --- Ad / Link ----------------------------------------------------- *)

let ad_basics () =
  let a = Ad.make ~id:3 ~name:"R1" ~klass:Ad.Transit ~level:Ad.Regional in
  check_bool "transit capable" true (Ad.is_transit_capable a);
  let s = Ad.make ~id:4 ~name:"C1" ~klass:Ad.Stub ~level:Ad.Campus in
  check_bool "stub not transit" false (Ad.is_transit_capable s);
  let m = Ad.make ~id:5 ~name:"C2" ~klass:Ad.Multihomed ~level:Ad.Campus in
  check_bool "multihomed not transit" false (Ad.is_transit_capable m);
  let h = Ad.make ~id:6 ~name:"M1" ~klass:Ad.Hybrid ~level:Ad.Metro in
  check_bool "hybrid transit capable" true (Ad.is_transit_capable h);
  check_int "backbone rank" 0 (Ad.level_rank Ad.Backbone);
  check_int "campus rank" 3 (Ad.level_rank Ad.Campus)

let link_basics () =
  let l = Link.make ~id:0 ~a:1 ~b:2 Link.Lateral in
  check_int "other end of 1" 2 (Link.other_end l 1);
  check_int "other end of 2" 1 (Link.other_end l 2);
  check_bool "connects" true (Link.connects l 2 1);
  check_bool "does not connect" false (Link.connects l 1 3);
  Alcotest.check_raises "not an endpoint" (Invalid_argument "Link.other_end: not an endpoint")
    (fun () -> ignore (Link.other_end l 7));
  Alcotest.check_raises "self loop" (Invalid_argument "Link.make: self loop") (fun () ->
      ignore (Link.make ~id:0 ~a:1 ~b:1 Link.Lateral));
  Alcotest.check_raises "bad cost" (Invalid_argument "Link.make: cost < 1") (fun () ->
      ignore (Link.make ~id:0 ~a:1 ~b:2 ~cost:0 Link.Lateral));
  List.iter
    (fun delay ->
      Alcotest.check_raises
        (Printf.sprintf "bad delay %g" delay)
        (Invalid_argument "Link.make: delay not finite and > 0")
        (fun () -> ignore (Link.make ~id:0 ~a:1 ~b:2 ~delay Link.Lateral)))
    [ 0.0; -1.0; Float.nan; Float.infinity; Float.neg_infinity ]

(* --- Graph --------------------------------------------------------- *)

let triangle () =
  let ads =
    Array.init 3 (fun id ->
        Ad.make ~id ~name:(Printf.sprintf "N%d" id) ~klass:Ad.Hybrid ~level:Ad.Metro)
  in
  let links =
    [|
      Link.make ~id:0 ~a:0 ~b:1 Link.Lateral;
      Link.make ~id:1 ~a:1 ~b:2 ~cost:2 Link.Lateral;
      Link.make ~id:2 ~a:0 ~b:2 ~cost:5 Link.Lateral;
    |]
  in
  Graph.create ads links

let graph_basics () =
  let g = triangle () in
  check_int "n" 3 (Graph.n g);
  check_int "links" 3 (Graph.num_links g);
  check_int "degree" 2 (Graph.degree g 0);
  Alcotest.(check (list int)) "neighbors" [ 1; 2 ] (Graph.neighbor_ids g 0);
  Alcotest.(check (option int)) "find link" (Some 1) (Graph.find_link g 1 2);
  Alcotest.(check (option int)) "no link to self" None (Graph.find_link g 1 1);
  check_bool "connected" true (Graph.is_connected g);
  check_bool "cyclic" true (Graph.has_cycle g)

let graph_validation () =
  let ads = [| Ad.make ~id:1 ~name:"X" ~klass:Ad.Stub ~level:Ad.Campus |] in
  Alcotest.check_raises "id mismatch"
    (Invalid_argument "Graph.create: AD id must equal its index") (fun () ->
      ignore (Graph.create ads [||]))

let graph_bfs () =
  let g = Generator.line ~n:5 in
  let dist = Graph.bfs_hops g 0 in
  Alcotest.(check (array int)) "line distances" [| 0; 1; 2; 3; 4 |] dist

let graph_acyclic_line () =
  let g = Generator.line ~n:4 in
  check_bool "line has no cycle" false (Graph.has_cycle g);
  check_bool "connected" true (Graph.is_connected g)

let graph_counts () =
  let g = Figure1.graph () in
  let klass_count k = List.assoc k (Graph.count_by_klass g) in
  check_int "stubs" 6 (klass_count Ad.Stub);
  check_int "multihomed" 2 (klass_count Ad.Multihomed);
  check_int "transit" 6 (klass_count Ad.Transit);
  let kind_count k = List.assoc k (Graph.count_links_by_kind g) in
  check_int "hierarchical" 13 (kind_count Link.Hierarchical);
  check_int "lateral" 3 (kind_count Link.Lateral);
  check_int "bypass" 1 (kind_count Link.Bypass);
  check_int "hosts = stubs + multihomed" 8 (List.length (Graph.host_ids g));
  check_int "transit ids" 6 (List.length (Graph.transit_ids g))

(* --- CSR adjacency vs naive reference ------------------------------ *)

(* Random connected multigraph: a spanning path for connectivity plus
   random extra links, which freely duplicate AD pairs (parallel links
   with distinct costs — exactly what the CSR unique-neighbor index has
   to get right). *)
let random_multigraph seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 14 in
  let ads =
    Array.init n (fun id ->
        Ad.make ~id ~name:(Printf.sprintf "N%d" id) ~klass:Ad.Hybrid ~level:Ad.Metro)
  in
  let extra = Rng.int rng (2 * n) in
  let links =
    Array.init (n - 1 + extra) (fun id ->
        if id < n - 1 then Link.make ~id ~a:id ~b:(id + 1) ~cost:(1 + Rng.int rng 9) Link.Lateral
        else begin
          let a = Rng.int rng n in
          let rec other () =
            let b = Rng.int rng n in
            if b = a then other () else b
          in
          Link.make ~id ~a ~b:(other ()) ~cost:(1 + Rng.int rng 9) Link.Lateral
        end)
  in
  Graph.create ads links

(* Reference adjacency straight off the link array: incident (nbr, lid)
   slots of [u], sorted the way the CSR rows are. *)
let ref_slots g u =
  Graph.fold_links g ~init:[] ~f:(fun acc l ->
      if l.Link.a = u then (l.Link.b, l.Link.id) :: acc
      else if l.Link.b = u then (l.Link.a, l.Link.id) :: acc
      else acc)
  |> List.sort compare

(* Cheapest link between the pair, lowest id among cost ties (links are
   scanned in id order, so strict [<] keeps the first). *)
let ref_find_link g x y =
  Graph.fold_links g ~init:None ~f:(fun acc l ->
      if Link.connects l x y then
        match acc with
        | Some (best : Link.t) when l.Link.cost >= best.Link.cost -> acc
        | _ -> Some l
      else acc)
  |> fun o -> Option.map (fun (l : Link.t) -> l.Link.id) o

let ref_bfs g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  dist.(src) <- 0;
  let frontier = ref [ src ] in
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun u ->
        List.iter
          (fun (v, _) ->
            if dist.(v) < 0 then begin
              dist.(v) <- dist.(u) + 1;
              next := v :: !next
            end)
          (ref_slots g u))
      !frontier;
    frontier := List.sort_uniq compare !next
  done;
  dist

let all_ids g = List.init (Graph.n g) (fun i -> i)

let csr_neighbors_prop =
  QCheck.Test.make ~name:"CSR rows match the naive adjacency" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_multigraph seed in
      List.for_all
        (fun u ->
          let slots = ref_slots g u in
          Graph.neighbors g u = slots
          && Graph.neighbor_ids g u = List.sort_uniq compare (List.map fst slots)
          && Graph.degree g u = List.length slots
          && Graph.fold_neighbors g u ~init:[] ~f:(fun acc v lid -> (v, lid) :: acc)
             = List.rev slots)
        (all_ids g))

let csr_find_link_prop =
  QCheck.Test.make ~name:"find_link returns the cheapest parallel link" ~count:100
    QCheck.small_int (fun seed ->
      let g = random_multigraph seed in
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              let expected = ref_find_link g x y in
              Graph.find_link g x y = expected
              && Graph.link_cost g x y
                 = (match expected with
                   | None -> -1
                   | Some lid -> (Graph.link g lid).Link.cost))
            (all_ids g))
        (all_ids g))

let csr_slot_links_prop =
  QCheck.Test.make
    ~name:"uniq_slot, fold_slot_links and cheapest_up_link match the link array"
    ~count:100 QCheck.small_int (fun seed ->
      let g = random_multigraph seed in
      let rng = Rng.create (seed + 1) in
      let up = Array.init (Graph.num_links g) (fun _ -> Rng.chance rng 0.6) in
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              let expected =
                Graph.fold_links g ~init:[] ~f:(fun acc l ->
                    if Link.connects l x y then l.Link.id :: acc else acc)
                |> List.sort compare
              in
              let cheapest_up =
                List.fold_left
                  (fun best lid ->
                    if up.(lid)
                       && (best < 0
                          || (Graph.link g lid).Link.cost < (Graph.link g best).Link.cost)
                    then lid
                    else best)
                  (-1) expected
              in
              let k = Graph.uniq_slot g x y in
              if expected = [] then k = -1
              else
                k >= 0
                && List.rev (Graph.fold_slot_links g k ~init:[] ~f:(fun acc l -> l :: acc))
                   = expected
                && Graph.cheapest_up_link g k ~up = cheapest_up)
            (all_ids g))
        (all_ids g))

let csr_bfs_prop =
  QCheck.Test.make ~name:"bfs_hops and is_connected match the reference" ~count:100
    QCheck.small_int (fun seed ->
      let g = random_multigraph seed in
      Graph.is_connected g
      && List.for_all (fun src -> Graph.bfs_hops g src = ref_bfs g src) (all_ids g))

(* Bellman-Ford over the raw link array as the oracle for the CSR
   Dijkstra kernel. *)
let spf_tree_prop =
  QCheck.Test.make ~name:"Spf.tree distances match Bellman-Ford" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_multigraph seed in
      let n = Graph.n g in
      let bellman src =
        let dist = Array.make n max_int in
        dist.(src) <- 0;
        for _ = 1 to n do
          Graph.fold_links g ~init:() ~f:(fun () l ->
              let relax a b =
                if dist.(a) < max_int && dist.(a) + l.Link.cost < dist.(b) then
                  dist.(b) <- dist.(a) + l.Link.cost
              in
              relax l.Link.a l.Link.b;
              relax l.Link.b l.Link.a)
        done;
        Array.map (fun d -> if d = max_int then -1 else d) dist
      in
      List.for_all
        (fun src ->
          let t = Pr_topology.Spf.tree g ~src in
          t.Pr_topology.Spf.dist = bellman src
          && List.for_all
               (fun dst ->
                 match Pr_topology.Spf.path t dst with
                 | None -> t.Pr_topology.Spf.dist.(dst) < 0
                 | Some p ->
                   Path.source p = src
                   && Path.destination p = dst
                   && Path.cost g p = Some t.Pr_topology.Spf.dist.(dst))
               (all_ids g))
        (all_ids g))

(* The dense lazy-deletion Dijkstra [Spf.tree] ran before it became a
   caller of [Spf.search], generalized to an up mask, per-link costs
   and an early exit at [dst] (-1: none). Returns the tree and the
   number of nodes settled. *)
let reference_search g ~up ~cost ~src ~dst =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let first_hop = Array.make n (-1) in
  let settled = Array.make n false in
  let best = Array.make n max_int in
  let count = ref 0 in
  let q = Pqueue.create () in
  best.(src) <- 0;
  Pqueue.add q ~priority:0.0 src;
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (_, u) ->
      if settled.(u) then drain ()
      else begin
        settled.(u) <- true;
        incr count;
        dist.(u) <- best.(u);
        if u <> dst then begin
          Graph.iter_neighbors g u ~f:(fun v lid ->
              if up.(lid) && not settled.(v) then begin
                let d = best.(u) + cost.(lid) in
                if d < best.(v) then begin
                  best.(v) <- d;
                  parent.(v) <- u;
                  first_hop.(v) <- (if u = src then v else first_hop.(u));
                  Pqueue.add q ~priority:(float_of_int d) v
                end
              end);
          drain ()
        end
      end
  in
  drain ();
  ({ Spf.src; dist; parent; first_hop }, !count)

(* Multigraphs built to stress tie-breaking: parallel links, costs in
   1..3 so many routes tie, a random down mask and, half the time, a
   destination to stop at. *)
let search_matches_reference =
  QCheck.Test.make ~name:"Spf.search matches the dense lazy-deletion reference" ~count:300
    QCheck.small_nat
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 16 in
      let ads =
        Array.init n (fun id ->
            Ad.make ~id ~name:(Printf.sprintf "N%d" id) ~klass:Ad.Hybrid ~level:Ad.Metro)
      in
      let m = Rng.int rng (3 * n) in
      let links =
        Array.init m (fun id ->
            let a = Rng.int rng n in
            let b = (a + 1 + Rng.int rng (n - 1)) mod n in
            Link.make ~id ~a ~b ~cost:(1 + Rng.int rng 3) Link.Lateral)
      in
      let g = Graph.create ads links in
      let up = Array.init m (fun _ -> Rng.int rng 5 > 0) in
      let cost = Array.init m (fun lid -> (Graph.link g lid).Link.cost) in
      let src = Rng.int rng n in
      let dst = if Rng.bool rng then Rng.int rng n else -1 in
      let relax u f =
        Graph.iter_neighbors g u ~f:(fun v lid -> if up.(lid) then f v cost.(lid))
      in
      let got =
        if dst < 0 then Spf.search ~n ~src ~relax ()
        else Spf.search ~n ~src ~dst ~relax ()
      in
      got = reference_search g ~up ~cost ~src ~dst)

(* Ties break the same way everywhere: with every link up at its
   static cost, [tree_state] is [tree], parents and first hops
   included. *)
let tree_state_is_tree () =
  List.iter
    (fun g ->
      let m = Graph.num_links g in
      let up = Array.make m true in
      let cost = Array.init m (fun lid -> (Graph.link g lid).Link.cost) in
      for src = 0 to Graph.n g - 1 do
        check_bool
          (Printf.sprintf "tree_state = tree from %d" src)
          true
          (Spf.tree_state g ~up ~cost ~src = Spf.tree g ~src)
      done)
    [
      Figure1.graph ();
      Generator.ring ~n:12;
      random_multigraph 17;
      Generator.generate (Rng.create 1) (Generator.scaled ~target_ads:150);
    ]

(* --- Path ---------------------------------------------------------- *)

let path_basics () =
  let p = [ 0; 1; 2 ] in
  check_int "source" 0 (Path.source p);
  check_int "destination" 2 (Path.destination p);
  check_int "hops" 2 (Path.hops p);
  check_bool "loop free" true (Path.is_loop_free p);
  check_bool "loop detected" false (Path.is_loop_free [ 0; 1; 0 ]);
  Alcotest.(check (list int)) "transit" [ 1 ] (Path.transit_ads p);
  Alcotest.(check (list int)) "no transit on 2-path" [] (Path.transit_ads [ 0; 1 ]);
  Alcotest.(check string) "to_string" "0->1->2" (Path.to_string p)

let path_cost () =
  let g = triangle () in
  Alcotest.(check (option int)) "cost 0-1-2" (Some 3) (Path.cost g [ 0; 1; 2 ]);
  Alcotest.(check (option int)) "cost direct" (Some 5) (Path.cost g [ 0; 2 ]);
  check_bool "valid" true (Path.is_valid g [ 0; 1; 2 ]);
  check_bool "invalid loop" false (Path.is_valid g [ 0; 1; 0 ]);
  check_bool "invalid empty" false (Path.is_valid g [])

let path_enumerate () =
  let g = triangle () in
  let paths = Path.enumerate_simple g ~src:0 ~dst:2 ~max_hops:3 () in
  Alcotest.(check int) "two simple paths" 2 (List.length paths);
  check_bool "all valid" true (List.for_all (Path.is_valid g) paths);
  let bounded = Path.enumerate_simple g ~src:0 ~dst:2 ~max_hops:1 () in
  Alcotest.(check (list (list int))) "hop bound" [ [ 0; 2 ] ] bounded;
  let pruned =
    Path.enumerate_simple g ~src:0 ~dst:2 ~max_hops:3 ~node_ok:(fun v -> v <> 1) ()
  in
  Alcotest.(check (list (list int))) "interior filter" [ [ 0; 2 ] ] pruned;
  let edge_pruned =
    Path.enumerate_simple g ~src:0 ~dst:2 ~max_hops:3
      ~edge_ok:(fun u v -> not (u = 0 && v = 2))
      ()
  in
  Alcotest.(check (list (list int))) "edge filter" [ [ 0; 1; 2 ] ] edge_pruned

let path_enumerate_limit () =
  let g = Generator.random_mesh (Rng.create 3) ~n:10 ~extra_links:10 in
  let paths = Path.enumerate_simple g ~src:0 ~dst:9 ~max_hops:9 ~limit:5 () in
  check_bool "limit respected" true (List.length paths <= 5)

(* --- Generator ----------------------------------------------------- *)

let generator_structure =
  QCheck.Test.make ~name:"generated internets are connected and well-classed" ~count:30
    QCheck.small_int (fun seed ->
      let g = Generator.generate (Rng.create seed) Generator.default in
      Graph.is_connected g
      && Array.for_all
           (fun (a : Ad.t) ->
             match (a.Ad.level, a.Ad.klass) with
             | Ad.Backbone, Ad.Transit | Ad.Regional, Ad.Transit -> true
             | Ad.Metro, (Ad.Transit | Ad.Hybrid) -> true
             | Ad.Campus, (Ad.Stub | Ad.Multihomed) -> true
             | _ -> false)
           (Graph.ads g)
      && Graph.fold_links g ~init:true ~f:(fun acc l -> acc && l.Link.a <> l.Link.b))

let generator_multihomed_consistent =
  QCheck.Test.make ~name:"campus with >1 link is multihomed, with 1 is stub" ~count:30
    QCheck.small_int (fun seed ->
      let g = Generator.generate (Rng.create seed) Generator.default in
      Array.for_all
        (fun (a : Ad.t) ->
          match a.Ad.level with
          | Ad.Campus ->
            let d = Graph.degree g a.Ad.id in
            if d > 1 then a.Ad.klass = Ad.Multihomed else a.Ad.klass = Ad.Stub
          | _ -> true)
        (Graph.ads g))

let generator_no_duplicate_links =
  QCheck.Test.make ~name:"no duplicate links between an AD pair" ~count:30 QCheck.small_int
    (fun seed ->
      let g = Generator.generate (Rng.create seed) Generator.default in
      let pairs =
        Graph.fold_links g ~init:[] ~f:(fun acc l ->
            (Stdlib.min l.Link.a l.Link.b, Stdlib.max l.Link.a l.Link.b) :: acc)
      in
      List.length pairs = List.length (List.sort_uniq compare pairs))

let generator_deterministic () =
  let g1 = Generator.generate (Rng.create 99) Generator.default in
  let g2 = Generator.generate (Rng.create 99) Generator.default in
  check_int "same n" (Graph.n g1) (Graph.n g2);
  check_int "same links" (Graph.num_links g1) (Graph.num_links g2);
  Graph.fold_links g1 ~init:() ~f:(fun () l ->
      let l2 = Graph.link g2 l.Link.id in
      check_bool "same link endpoints" true (l.Link.a = l2.Link.a && l.Link.b = l2.Link.b))

let generator_scaled () =
  List.iter
    (fun target ->
      let p = Generator.scaled ~target_ads:target in
      let g = Generator.generate (Rng.create 7) p in
      let n = Graph.n g in
      check_bool
        (Printf.sprintf "size %d within 2x of target %d" n target)
        true
        (n >= target / 2 && n <= target * 2))
    [ 25; 50; 100; 200 ]

let generator_mesh () =
  let g = Generator.random_mesh (Rng.create 5) ~n:20 ~extra_links:10 in
  check_int "n" 20 (Graph.n g);
  check_bool "connected" true (Graph.is_connected g);
  check_bool "has cycles" true (Graph.has_cycle g);
  check_int "links" 29 (Graph.num_links g);
  let tree = Generator.random_mesh (Rng.create 5) ~n:20 ~extra_links:0 in
  check_bool "tree acyclic" false (Graph.has_cycle tree);
  check_int "tree links" 19 (Graph.num_links tree)

let generator_ring () =
  let g = Generator.ring ~n:6 in
  check_int "links" 6 (Graph.num_links g);
  check_bool "cycle" true (Graph.has_cycle g);
  check_bool "all degree 2" true
    (List.for_all (fun i -> Graph.degree g i = 2) (List.init 6 (fun i -> i)))

(* --- Figure 1 ------------------------------------------------------ *)

let figure1_shape () =
  let g = Figure1.graph () in
  check_int "14 ADs" 14 (Graph.n g);
  check_int "17 links" 17 (Graph.num_links g);
  check_bool "connected" true (Graph.is_connected g);
  check_bool "cyclic (lateral+bypass)" true (Graph.has_cycle g);
  check_int "multihomed degree" 2 (Graph.degree g Figure1.multihomed_campus);
  check_int "bypass campus degree" 2 (Graph.degree g Figure1.bypass_campus);
  check_bool "backbones adjacent" true
    (Graph.find_link g Figure1.backbone_1 Figure1.backbone_2 <> None);
  check_int "four regionals" 4 (List.length Figure1.regionals);
  check_int "eight campuses" 8 (List.length Figure1.campuses)

(* --- Partial order ------------------------------------------------- *)

let po_of_levels () =
  let g = Figure1.graph () in
  let po = Partial_order.of_levels g in
  check_int "backbone rank" 0 (Partial_order.rank po Figure1.backbone_1);
  check_bool "campus below backbone" true
    (Partial_order.rank po Figure1.bypass_campus > Partial_order.rank po Figure1.backbone_1);
  check_bool "direction up" true
    (Partial_order.direction po ~from_ad:Figure1.bypass_campus ~to_ad:Figure1.backbone_1
    = Partial_order.Up);
  check_bool "direction level" true
    (Partial_order.direction po ~from_ad:Figure1.backbone_1 ~to_ad:Figure1.backbone_2
    = Partial_order.Level)

let po_valley_free () =
  let g = Figure1.graph () in
  let po = Partial_order.of_levels g in
  check_bool "up then down ok" true (Partial_order.is_valley_free po [ 7; 2; 0; 1; 4; 10 ]);
  check_bool "valley rejected" false (Partial_order.is_valley_free po [ 2; 7; 2 ]);
  check_bool "violation reported" true
    (Partial_order.valley_free_violation po [ 2; 7; 2 ] <> None);
  check_bool "single node fine" true (Partial_order.is_valley_free po [ 3 ])

let po_embeddable () =
  let cs = [ { Partial_order.above = 0; below = 1 }; { above = 1; below = 2 } ] in
  (match Partial_order.embeddable ~n:3 cs with
  | None -> Alcotest.fail "chain should embed"
  | Some ranks ->
    check_bool "order respected" true (ranks.(0) < ranks.(1) && ranks.(1) < ranks.(2)));
  let cyclic =
    [
      { Partial_order.above = 0; below = 1 };
      { above = 1; below = 2 };
      { above = 2; below = 0 };
    ]
  in
  check_bool "cycle rejected" true (Partial_order.embeddable ~n:3 cyclic = None)

let po_embeddable_prop =
  QCheck.Test.make ~name:"embeddable witness satisfies all constraints" ~count:200
    QCheck.(list (pair (int_range 0 9) (int_range 0 9)))
    (fun pairs ->
      let cs =
        List.filter_map
          (fun (a, b) -> if a = b then None else Some { Partial_order.above = a; below = b })
          pairs
      in
      match Partial_order.embeddable ~n:10 cs with
      | None -> true
      | Some ranks ->
        List.for_all
          (fun { Partial_order.above; below } -> ranks.(above) < ranks.(below))
          cs)

(* --- Dot ------------------------------------------------------------ *)

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let dot_well_formed () =
  let g = Figure1.graph () in
  let dot = Pr_topology.Dot.to_dot g in
  check_bool "opens graph" true (contains_substring dot "graph internet {");
  check_bool "closes graph" true (dot.[String.length dot - 2] = '}');
  (* One node statement per AD, one edge per link. *)
  for i = 0 to Graph.n g - 1 do
    check_bool
      (Printf.sprintf "node %d present" i)
      true
      (contains_substring dot (Printf.sprintf "n%d [" i))
  done;
  Graph.fold_links g ~init:() ~f:(fun () l ->
      check_bool "edge present" true
        (contains_substring dot (Printf.sprintf "n%d -- n%d" l.Link.a l.Link.b)));
  check_bool "lateral dashed" true (contains_substring dot "style=dashed");
  check_bool "bypass bold" true (contains_substring dot "style=bold")

let dot_highlight () =
  let g = Figure1.graph () in
  let dot = Pr_topology.Dot.to_dot ~highlight:[ 7; 2; 0 ] g in
  check_bool "highlighted edge" true (contains_substring dot "color=red");
  let plain = Pr_topology.Dot.to_dot g in
  check_bool "no highlight by default" false (contains_substring plain "color=red")

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

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* --- Policy_search ----------------------------------------------- *)

(* Admission as a pure pseudo-random function of the crossing. *)
let random_admit seed pct v p w = Hashtbl.hash (seed, v, p, w) mod 100 < pct

(* The textbook formulation the kernel replaces: dense (v, p) states,
   one heap entry per strict improvement through each parallel link,
   float priorities with FIFO ties, lazy deletion. Returns the outcome
   and the number of states settled. *)
let reference_search g ~src ~dst ~avoid ~admit =
  let n = Graph.n g in
  if src = dst then (Policy_search.Route [ src ], 0)
  else begin
    let dist = Array.make (n * n) infinity and parent = Array.make (n * n) (-1) in
    let settled = Array.make (n * n) false in
    let q = Pqueue.create () in
    let start = (src * n) + src and work = ref 0 and final = ref (-1) in
    dist.(start) <- 0.0;
    Pqueue.add q ~priority:0.0 start;
    while !final < 0 && not (Pqueue.is_empty q) do
      match Pqueue.pop q with
      | None -> ()
      | Some (d, st) ->
        if not settled.(st) then begin
          settled.(st) <- true;
          incr work;
          let v = st / n and p = st mod n in
          if v = dst then final := st
          else
            Graph.iter_neighbors g v ~f:(fun w lid ->
                if
                  w <> src
                  && (w = dst || not (List.mem w avoid))
                  && (v = src || admit v p w)
                then begin
                  let st' = (w * n) + v in
                  let d' = d +. float_of_int (Graph.link g lid).Link.cost in
                  if d' < dist.(st') then begin
                    dist.(st') <- d';
                    parent.(st') <- st;
                    Pqueue.add q ~priority:d' st'
                  end
                end)
        end
    done;
    let outcome =
      if !final < 0 then Policy_search.Unreachable
      else begin
        let rec build acc st =
          if st = start then src :: acc else build ((st / n) :: acc) parent.(st)
        in
        let path = build [] !final in
        if Path.is_loop_free path then Policy_search.Route path else Policy_search.Revisits
      end
    in
    (outcome, !work)
  end

let policy_search_matches_reference =
  QCheck.Test.make ~name:"Policy_search = dense lazy-deletion reference (route, work)"
    ~count:300
    QCheck.(
      pair small_int (triple small_int (int_range 20 100) (list_of_size Gen.(0 -- 3) small_int)))
    (fun (gseed, (aseed, pct, avoid)) ->
      let g = random_multigraph gseed in
      let n = Graph.n g in
      let avoid = List.map (fun a -> a mod n) avoid in
      let view = Policy_search.of_graph g in
      let scratch = Policy_search.scratch_for view in
      let admit = random_admit aseed pct in
      let metric _ _ k = Graph.slot_cost g k in
      let ok = ref true in
      (* Every pair, on one reused scratch: stale stamps must never leak
         from one search into the next. *)
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let got = Policy_search.search scratch view ~src ~dst ~avoid ~metric ~admit () in
          let want, work = reference_search g ~src ~dst ~avoid ~admit in
          if got <> want || Policy_search.settled scratch <> work then ok := false
        done
      done;
      !ok)

(* The bounded search against the unbounded one, on live metrics the
   label only bounds: some AD pairs are down for good (the label skips
   them too, so some ADs get no label), some directed edges are down
   for now, and live metrics exceed the cheapest link's. *)
let policy_search_bounded_matches_unbounded =
  QCheck.Test.make ~name:"bounded Policy_search = unbounded (outcome; exact pass settles fewer)"
    ~count:300
    QCheck.(
      pair (pair small_int (int_range 0 30))
        (triple small_int (int_range 20 100) (list_of_size Gen.(0 -- 3) small_int)))
    (fun ((gseed, pdown), (aseed, pct, avoid)) ->
      let g = random_multigraph gseed in
      let n = Graph.n g in
      let avoid = List.map (fun a -> a mod n) avoid in
      let view = Policy_search.of_graph g in
      let bounded = Policy_search.scratch_for view and plain = Policy_search.scratch_for view in
      let admit = random_admit aseed pct in
      let roll x = Hashtbl.hash (gseed, aseed, x) mod 100 in
      let dead v w = roll (`Pair (min v w, max v w)) < pdown in
      let metric v w k =
        if dead v w || roll (`Edge (v, w)) < pdown then -1
        else Graph.slot_cost g k + (roll (`Extra k) mod 3)
      in
      let label dst =
        let relax u f =
          Policy_search.iter_row view u ~f:(fun w k ->
              if not (dead u w) then f w (Graph.slot_cost g k))
        in
        Array.map
          (fun d -> if d < 0 then max_int else d)
          (fst (Spf.search ~n ~src:dst ~relax ())).Spf.dist
      in
      let ok = ref true in
      for dst = 0 to n - 1 do
        let lower = label dst in
        for src = 0 to n - 1 do
          let want = Policy_search.search plain view ~src ~dst ~avoid ~metric ~admit () in
          let got = Policy_search.search bounded view ~src ~dst ~avoid ~lower ~metric ~admit () in
          let exact_pass = Policy_search.settled bounded - Policy_search.bound_settled bounded in
          if got <> want || exact_pass > Policy_search.settled plain then ok := false
        done
      done;
      !ok)

let policy_search_basics () =
  (* A triangle 0-1-2 plus a tail 2-3, where 1 refuses 0 -> 1 -> 2. *)
  let ads =
    Array.init 4 (fun id -> Ad.make ~id ~name:(string_of_int id) ~klass:Ad.Hybrid ~level:Ad.Metro)
  in
  let link id a b cost = Link.make ~id ~a ~b ~cost Link.Lateral in
  let g = Graph.create ads [| link 0 0 1 1; link 1 1 2 1; link 2 0 2 5; link 3 2 3 1 |] in
  let view = Policy_search.of_graph g in
  let scratch = Policy_search.scratch_for view in
  let metric _ _ k = Graph.slot_cost g k in
  let search ?avoid ~admit src dst =
    Policy_search.search scratch view ~src ~dst ?avoid ~metric ~admit ()
  in
  let all _ _ _ = true in
  check_bool "cheapest route" true (search ~admit:all 0 3 = Policy_search.Route [ 0; 1; 2; 3 ]);
  check_int "states settled" 5 (Policy_search.settled scratch);
  let no_012 v p w = not (v = 1 && p = 0 && w = 2) in
  check_bool "hop-constrained refusal reroutes" true
    (search ~admit:no_012 0 3 = Policy_search.Route [ 0; 2; 3 ]);
  check_bool "avoided interior" true
    (search ~avoid:[ 1 ] ~admit:all 0 3 = Policy_search.Route [ 0; 2; 3 ]);
  check_bool "avoided destination is exempt" true
    (search ~avoid:[ 3 ] ~admit:all 0 3 = Policy_search.Route [ 0; 1; 2; 3 ]);
  check_bool "nothing admitted" true
    (search ~admit:(fun _ _ _ -> false) 0 3 = Policy_search.Unreachable);
  check_bool "source to itself" true (search ~admit:all 2 2 = Policy_search.Route [ 2 ]);
  (* Exact distances to 3 as the bound: each pass settles 4 states. *)
  let lower = [| 3; 2; 1; 0 |] in
  check_bool "bounded: same route" true
    (Policy_search.search scratch view ~src:0 ~dst:3 ~lower ~metric ~admit:all ()
    = Policy_search.Route [ 0; 1; 2; 3 ]);
  check_int "bounded: states, both passes" 8 (Policy_search.settled scratch);
  check_int "bounded: states, bound pass" 4 (Policy_search.bound_settled scratch);
  Alcotest.check_raises "bound shorter than the view"
    (Invalid_argument "Policy_search.search: lower bound shorter than the view") (fun () ->
      ignore
        (Policy_search.search scratch view ~src:0 ~dst:3 ~lower:[| 0 |] ~metric ~admit:all ()));
  let unusable _ w _ = if w = 3 then -1 else 1 in
  check_bool "negative metric = unusable edge" true
    (Policy_search.search scratch view ~src:0 ~dst:3 ~metric:unusable ~admit:all ()
    = Policy_search.Unreachable);
  (* 2 admits only 0 -> 2 -> 1 and 1 -> 2 -> 3 and 1 only 2 -> 1 -> 2:
     the cheapest walk from 0 to 3 is 0-2-1-2-3, which revisits 2. *)
  let loop v p w = (v = 2 && ((p = 0 && w = 1) || (p = 1 && w = 3))) || (v = 1 && p = 2 && w = 2) in
  check_bool "revisiting walk" true (search ~admit:loop 0 3 = Policy_search.Revisits);
  Alcotest.check_raises "asymmetric rows"
    (Invalid_argument "Policy_search.of_csr: rows are not symmetric") (fun () ->
      ignore (Policy_search.of_csr ~off:[| 0; 1; 1 |] ~nbr:[| 1 |]))

let () =
  Alcotest.run "pr_topology"
    [
      ( "ad-link",
        [
          Alcotest.test_case "ad basics" `Quick ad_basics;
          Alcotest.test_case "link basics" `Quick link_basics;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick graph_basics;
          Alcotest.test_case "validation" `Quick graph_validation;
          Alcotest.test_case "bfs" `Quick graph_bfs;
          Alcotest.test_case "acyclic line" `Quick graph_acyclic_line;
          Alcotest.test_case "figure1 counts" `Quick graph_counts;
        ]
        @ qsuite
            [
              csr_neighbors_prop;
              csr_find_link_prop;
              csr_slot_links_prop;
              csr_bfs_prop;
              spf_tree_prop;
            ] );
      ( "spf",
        [ Alcotest.test_case "tree_state = tree" `Quick tree_state_is_tree ]
        @ qsuite [ search_matches_reference ] );
      ( "path",
        [
          Alcotest.test_case "basics" `Quick path_basics;
          Alcotest.test_case "cost" `Quick path_cost;
          Alcotest.test_case "enumerate" `Quick path_enumerate;
          Alcotest.test_case "enumerate limit" `Quick path_enumerate_limit;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick generator_deterministic;
          Alcotest.test_case "scaled sizes" `Quick generator_scaled;
          Alcotest.test_case "mesh and tree" `Quick generator_mesh;
          Alcotest.test_case "ring" `Quick generator_ring;
        ]
        @ qsuite
            [
              generator_structure;
              generator_multihomed_consistent;
              generator_no_duplicate_links;
            ] );
      ("figure1", [ Alcotest.test_case "shape" `Quick figure1_shape ]);
      ( "spf-delta",
        [
          Alcotest.test_case "basics" `Quick delta_basics;
          Alcotest.test_case "cost guard" `Quick delta_cost_guard;
        ]
        @ qsuite [ delta_vs_scratch_prop ] );
      ( "policy-search",
        [ Alcotest.test_case "basics" `Quick policy_search_basics ]
        @ qsuite [ policy_search_matches_reference; policy_search_bounded_matches_unbounded ] );
      ( "hierarchy",
        [
          Alcotest.test_case "figure1 routes" `Quick hierarchy_figure1;
          Alcotest.test_case "compact tables" `Quick hierarchy_compact;
        ]
        @ qsuite [ hierarchy_routes_prop ] );
      ( "dot",
        [
          Alcotest.test_case "well formed" `Quick dot_well_formed;
          Alcotest.test_case "highlight" `Quick dot_highlight;
        ] );
      ( "partial-order",
        [
          Alcotest.test_case "of levels" `Quick po_of_levels;
          Alcotest.test_case "valley free" `Quick po_valley_free;
          Alcotest.test_case "embeddable" `Quick po_embeddable;
        ]
        @ qsuite [ po_embeddable_prop ] );
    ]
