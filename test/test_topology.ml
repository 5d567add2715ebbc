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
module Policy_search = Pr_topology.Policy_search
module Dial = Pr_util.Dial
module Keyed = Pr_kernels.Keyed

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

(* The priority queue of the reference searches below: a set ordered
   by (priority, insertion seq), so equal priorities pop FIFO. *)
module Fifo_queue = struct
  module S = Set.Make (struct
    type t = float * int * int

    let compare (p, s, _) (q, r, _) = if p = q then Int.compare s r else Float.compare p q
  end)

  type t = { mutable set : S.t; mutable seq : int }

  let create () = { set = S.empty; seq = 0 }

  let is_empty q = S.is_empty q.set

  let add q ~priority v =
    q.set <- S.add (priority, q.seq, v) q.set;
    q.seq <- q.seq + 1

  let pop q =
    match S.min_elt_opt q.set with
    | None -> None
    | Some ((p, _, v) as e) ->
      q.set <- S.remove e q.set;
      Some (p, v)
end

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
  let q = Fifo_queue.create () in
  best.(src) <- 0;
  Fifo_queue.add q ~priority:0.0 src;
  let rec drain () =
    match Fifo_queue.pop q with
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
                  Fifo_queue.add q ~priority:(float_of_int d) v
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
    let q = Fifo_queue.create () in
    let start = (src * n) + src and work = ref 0 and final = ref (-1) in
    dist.(start) <- 0.0;
    Fifo_queue.add q ~priority:0.0 start;
    while !final < 0 && not (Fifo_queue.is_empty q) do
      match Fifo_queue.pop q with
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
                    Fifo_queue.add q ~priority:d' st'
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
      let rows = Policy_search.of_graph g and scratch = Policy_search.scratch () in
      let admit = random_admit aseed pct in
      let metric _ _ k = Graph.slot_cost g k in
      let ok = ref true in
      (* Every pair, on one reused scratch: stale stamps must never leak
         from one search into the next. *)
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let got = Policy_search.search scratch rows ~src ~dst ~avoid ~metric ~admit () in
          let want, work = reference_search g ~src ~dst ~avoid ~admit in
          if got <> want || Policy_search.settled scratch <> work then ok := false
        done
      done;
      !ok)

(* The bounded search against the unbounded one over full rows, where a
   bound by AD is a bound by node, on live metrics the label only
   bounds: some AD pairs are down for good (the label skips them too,
   so some ADs get no label), some directed edges are down for now, and
   live metrics exceed the cheapest link's. *)
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
      let rows = Policy_search.of_graph g in
      let bounded = Policy_search.scratch () and plain = Policy_search.scratch () in
      let admit = random_admit aseed pct in
      let roll x = Hashtbl.hash (gseed, aseed, x) mod 100 in
      let dead v w = roll (`Pair (min v w, max v w)) < pdown in
      let metric v w k =
        if dead v w || roll (`Edge (v, w)) < pdown then -1
        else Graph.slot_cost g k + (roll (`Extra k) mod 3)
      in
      let label dst =
        let relax u f =
          Policy_search.iter_row rows u ~f:(fun w k ->
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
          let want = Policy_search.search plain rows ~src ~dst ~avoid ~metric ~admit () in
          let got = Policy_search.search bounded rows ~src ~dst ~avoid ~lower ~metric ~admit () in
          let exact_pass = Policy_search.settled bounded - Policy_search.bound_settled bounded in
          if got <> want || exact_pass > Policy_search.settled plain then ok := false
        done
      done;
      !ok)

(* Restricted rows against full rows. Rows are shuffled, so slot
   order is not neighbor order and the merged slot to an unkept dst
   must land at its place. Every (src, dst) pair is searched, so kept
   and unkept srcs and dsts, adjacent pairs and src = dst all occur, with
   some ADs avoided. An unkept AD admits no crossing, so the label over
   the kept rows, expanded to full rows with [max_int] at every unkept
   AD but dst, bounds every admissible route. Some kept ADs refuse
   every crossing too, and the restricted search is told so: skipping
   their rows, but never src's, must leave the outcome and the work of
   the full-row searches, which are not told. *)
let policy_search_restricted_rows =
  QCheck.Test.make ~name:"restricted rows = full rows (outcome, settled, bound settled)"
    ~count:300
    QCheck.(pair small_int (quad small_int (int_range 20 100) (int_range 0 100) (int_range 0 40)))
    (fun (gseed, (aseed, pct, pkeep, prefuse)) ->
      let g = random_multigraph gseed in
      let n = Graph.n g in
      let roll x = Hashtbl.hash (gseed, aseed, x) mod 100 in
      let off, nbr = Graph.unique_csr g in
      let nbr = Array.copy nbr in
      let rng = Rng.create (gseed + aseed) in
      for v = 0 to n - 1 do
        for i = off.(v + 1) - 1 downto off.(v) + 1 do
          let j = off.(v) + Rng.int rng (i - off.(v) + 1) in
          let x = nbr.(i) in
          nbr.(i) <- nbr.(j);
          nbr.(j) <- x
        done
      done;
      let all = Policy_search.of_csr ~off ~nbr in
      let rows = Policy_search.restrict all ~keep:(fun v -> roll (`Keep v) < pkeep) in
      let kept = Policy_search.kept rows in
      (* Kept ADs are numbered in increasing order. *)
      let index = Array.make n (-1) and count = ref 0 in
      for v = 0 to n - 1 do
        if kept v then begin
          index.(v) <- !count;
          incr count
        end
      done;
      let base = Array.init (Array.length nbr) (fun k -> 1 + (roll (`Cost k) mod 5)) in
      let metric v w k =
        if roll (`Down (v, w)) < 10 then -1 else base.(k) + (roll (`Extra k) mod 2)
      in
      let refuses v = (not (kept v)) || roll (`Refuse v) < prefuse in
      let admit v p w = (not (refuses v)) && random_admit aseed pct v p w in
      let avoid = List.filter (fun v -> roll (`Avoid v) < 10) (List.init n Fun.id) in
      let plain = Policy_search.scratch () and whole = Policy_search.scratch () in
      let dense = Policy_search.scratch () and ring = Dial.create () in
      let ok = ref (Policy_search.size rows = !count) in
      for dst = 0 to n - 1 do
        let label = Policy_search.lower_bound rows ring ~dst ~metric:base in
        let lower =
          Array.init n (fun v -> if v = dst then 0 else if kept v then label.(index.(v)) else max_int)
        in
        if Array.length label <> !count then ok := false;
        for src = 0 to n - 1 do
          let want = Policy_search.search plain all ~src ~dst ~avoid ~metric ~admit () in
          let bounded = Policy_search.search whole all ~src ~dst ~avoid ~lower ~metric ~admit () in
          let got =
            Policy_search.search dense rows ~src ~dst ~avoid ~lower:label ~refuses ~metric ~admit ()
          in
          if
            got <> bounded || got <> want
            || Policy_search.settled dense <> Policy_search.settled whole
            || Policy_search.bound_settled dense <> Policy_search.bound_settled whole
          then ok := false
        done
      done;
      !ok)

(* The search as it ran on an indexed heap, before its bucket queue:
   state (v, p) is [v * (n + 1) + p], the start [src * (n + 1) + n];
   a push keys the heap by (key, seq), seq counting up in the exact
   pass (FIFO ties) and down in the bound pass (LIFO ties), and an
   improved state has its key decreased. Same passes, cuts, avoid
   marks and refusals as [Policy_search.search] over full rows, walking
   the CSR rows [off]/[nbr] (slot [k] is [nbr.(k)]) itself. Returns the
   outcome, the states settled and those the bound pass settled. *)
let keyed_reference_search (off, nbr) ~n ~src ~dst ~avoid ?lower ~refuses ~metric ~admit () =
  let states = n * (n + 1) and start = (src * (n + 1)) + n in
  let dist = Array.make states 0 and parent = Array.make states (-1) in
  let reached = Array.make states (-1) and q = Keyed.create ~capacity:states in
  let work = ref 0 and seq_bits = 24 in
  let pass ~h ~astar ~cut gen =
    let cut = ref cut and seq = ref 1 and final = ref (-1) in
    let tie = if astar then (1 lsl seq_bits) - 1 else 0 in
    Keyed.clear q;
    dist.(start) <- 0;
    parent.(start) <- -1;
    reached.(start) <- gen;
    ignore (Keyed.insert_or_decrease q start ~priority:0);
    while !final < 0 && not (Keyed.is_empty q) do
      let st = Keyed.pop_min q in
      incr work;
      let at = st / (n + 1) and from = st mod (n + 1) in
      if at = dst then final := st
      else if st = start || not (refuses at) then begin
        let d = dist.(st) in
        for k = off.(at) to off.(at + 1) - 1 do
          let w = nbr.(k) in
          if w <> src && (w = dst || not (List.mem w avoid)) then begin
            let c = metric at w k in
            let st' = (w * (n + 1)) + at and d' = d + c in
            if c >= 0 && (reached.(st') <> gen || d' < dist.(st')) then begin
              let hw = match h with None -> 0 | Some h -> h.(w) in
              if hw <> max_int && hw <= !cut - d' && (st = start || admit at from w) then begin
                let f = if astar then d' + hw else d' in
                if astar && w = dst then cut := d';
                reached.(st') <- gen;
                dist.(st') <- d';
                parent.(st') <- st;
                ignore
                  (Keyed.insert_or_decrease q st'
                     ~priority:((f lsl seq_bits) lor (!seq lxor tie)));
                incr seq
              end
            end
          end
        done
      end
    done;
    !final
  in
  if src = dst then (Policy_search.Route [ src ], 0, 0)
  else begin
    let final, bound_work =
      match lower with
      | None -> (pass ~h:None ~astar:false ~cut:max_int 0, 0)
      | Some h ->
        let goal = pass ~h:(Some h) ~astar:true ~cut:max_int 0 in
        let bound_work = !work in
        if goal < 0 then (-1, bound_work)
        else (pass ~h:(Some h) ~astar:false ~cut:dist.(goal) 1, bound_work)
    in
    let outcome =
      if final < 0 then Policy_search.Unreachable
      else begin
        let rec walk acc st = if st < 0 then acc else walk ((st / (n + 1)) :: acc) parent.(st) in
        let path = walk [] final in
        if Path.is_loop_free path then Policy_search.Route path else Policy_search.Revisits
      end
    in
    (outcome, !work, bound_work)
  end

(* The bucket queue pops the heap's order. Most metrics lie in
   [0, 3], so ties are everywhere and a queue popping equal keys in
   the wrong order changes [settled] or the route. The others lie in
   [0, C]: C = 300 spans more keys than the ring's first 64 buckets,
   so it grows mid-search with ties queued; C = 200 000 spans more
   than its 2^16-bucket limit, so a bucket holds several keys. Some
   edges are unusable, some ADs are avoided, some refuse every
   crossing. Each (src, dst) pair is searched plain and with the label
   expanded to full rows, and over restricted rows with the label and
   without it, where they are the kept subgraph: the heap search's
   over the full rows with every edge into or out of an unkept AD other
   than src and dst unusable. The scratches are
   fresh per destination, so the ring grows again, and reused across
   its sources. *)
let policy_search_buckets_match_heap =
  QCheck.Test.make ~name:"bucket queue = indexed heap (outcome, settled, bound settled)"
    ~count:200
    QCheck.(
      pair (pair small_int (oneofl [ 3; 300; 200_000 ]))
        (quad small_int (int_range 20 100) (int_range 0 100) (int_range 0 30)))
    (fun ((gseed, c), (aseed, pct, pkeep, prefuse)) ->
      let g = random_multigraph gseed in
      let n = Graph.n g in
      let roll x = Hashtbl.hash (gseed, aseed, c, x) mod 100 in
      let all = Policy_search.of_graph g in
      let slots = Array.length (snd (Graph.unique_csr g)) in
      let base =
        Array.init slots (fun k ->
            Hashtbl.hash (gseed, aseed, k) mod if roll (`Wide k) < 20 then c + 1 else 4)
      in
      let metric v w k = if roll (`Down (v, w)) < 8 then -1 else base.(k) in
      let rows = Policy_search.restrict all ~keep:(fun v -> roll (`Keep v) < pkeep) in
      let kept = Policy_search.kept rows in
      let refuses v = (not (kept v)) || roll (`Refuse v) < prefuse in
      let admit v p w = (not (refuses v)) && random_admit aseed pct v p w in
      let avoid = List.filter (fun v -> roll (`Avoid v) < 10) (List.init n Fun.id) in
      let ring = Dial.create () in
      let index = Array.make n (-1) and count = ref 0 in
      for v = 0 to n - 1 do
        if kept v then begin
          index.(v) <- !count;
          incr count
        end
      done;
      let ok = ref true in
      let agree s (outcome, work, bound_work) got =
        if
          got <> outcome
          || Policy_search.settled s <> work
          || Policy_search.bound_settled s <> bound_work
        then ok := false
      in
      for dst = 0 to n - 1 do
        let label = Policy_search.lower_bound rows ring ~dst ~metric:base in
        let lower =
          Array.init n (fun v -> if v = dst then 0 else if kept v then label.(index.(v)) else max_int)
        in
        let plain = Policy_search.scratch () and whole = Policy_search.scratch () in
        let dense = Policy_search.scratch () in
        for src = 0 to n - 1 do
          let reference ?lower ?(metric = metric) () =
            keyed_reference_search (Graph.unique_csr g) ~n ~src ~dst ~avoid ?lower ~refuses ~metric
              ~admit ()
          in
          agree plain (reference ())
            (Policy_search.search plain all ~src ~dst ~avoid ~metric ~admit ());
          let bounded = reference ~lower () in
          agree whole bounded
            (Policy_search.search whole all ~src ~dst ~avoid ~lower ~metric ~admit ());
          agree dense bounded
            (Policy_search.search dense rows ~src ~dst ~avoid ~lower:label ~refuses ~metric
               ~admit ());
          let inside v = kept v || v = src || v = dst in
          let kept_only v w k = if inside v && inside w then metric v w k else -1 in
          agree dense (reference ~metric:kept_only ())
            (Policy_search.search dense rows ~src ~dst ~avoid ~refuses ~metric ~admit ())
        done
      done;
      !ok)

(* Rows from [of_csr] on random symmetric adjacencies, isolated ADs
   and shuffled rows included, and their [restrict] to a random keep
   set, against the heap reference over the kept subgraph, which walks
   the test's own CSR with every edge into or out of an unkept AD other
   than src and dst unusable. Every (src, dst) pair is searched, so kept
   and unkept srcs and dsts all occur: unbounded, and bounded by the
   label over the kept rows (expanded to every AD for the full rows).
   Route, [settled] and [bound_settled] must all agree. *)
let policy_search_rows_match_kept_reference =
  QCheck.Test.make ~name:"of_csr and restricted rows = reference over the kept subgraph"
    ~count:300
    QCheck.(quad small_int (int_range 1 12) (int_range 0 100) (int_range 0 100))
    (fun (seed, n, pedge, pkeep) ->
      let rng = Rng.create seed in
      let roll x = Hashtbl.hash (seed, n, pedge, x) mod 100 in
      let adj = Array.make n [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if roll (`Edge (u, v)) < pedge then begin
            adj.(u) <- v :: adj.(u);
            adj.(v) <- u :: adj.(v)
          end
        done
      done;
      (* Each row in a random order: a sample of all its members. *)
      let adj = Array.map (fun l -> Rng.sample rng (List.length l) l) adj in
      let off = Array.make (n + 1) 0 in
      Array.iteri (fun u l -> off.(u + 1) <- off.(u) + List.length l) adj;
      let nbr = Array.of_list (List.concat (Array.to_list adj)) in
      let full = Policy_search.of_csr ~off ~nbr in
      let keep v = roll (`Keep v) < pkeep in
      let rows = Policy_search.restrict full ~keep in
      let index = Array.make n (-1) and count = ref 0 in
      for v = 0 to n - 1 do
        if keep v then begin
          index.(v) <- !count;
          incr count
        end
      done;
      let base = Array.init (Array.length nbr) (fun k -> roll (`Cost k) mod 5) in
      let metric v w k = if roll (`Down (v, w)) < 10 then -1 else base.(k) in
      let refuses v = roll (`Refuse v) < 15 in
      let admit v p w = (not (refuses v)) && random_admit seed 70 v p w in
      let avoid = List.filter (fun v -> roll (`Avoid v) < 10) (List.init n Fun.id) in
      let ring = Dial.create () and s = Policy_search.scratch () and ok = ref true in
      let agree (outcome, work, bound_work) got =
        if
          got <> outcome
          || Policy_search.settled s <> work
          || Policy_search.bound_settled s <> bound_work
        then ok := false
      in
      for dst = 0 to n - 1 do
        let label = Policy_search.lower_bound rows ring ~dst ~metric:base in
        let lower =
          Array.init n (fun v -> if v = dst then 0 else if keep v then label.(index.(v)) else max_int)
        in
        for src = 0 to n - 1 do
          let inside v = keep v || v = src || v = dst in
          let kept_only v w k = if inside v && inside w then metric v w k else -1 in
          let reference ?lower () =
            keyed_reference_search (off, nbr) ~n ~src ~dst ~avoid ?lower ~refuses ~metric:kept_only
              ~admit ()
          in
          let search r ?lower metric =
            Policy_search.search s r ~src ~dst ~avoid ?lower ~refuses ~metric ~admit ()
          in
          let plain = reference () and bounded = reference ~lower () in
          agree plain (search full kept_only);
          agree plain (search rows metric);
          agree bounded (search full ~lower kept_only);
          agree bounded (search rows ~lower:label metric)
        done
      done;
      !ok)

(* Labels against a plain Bellman-Ford kept here, off the queue: per
   kept AD, the least metric of a walk to [dst] through kept ADs, an
   edge priced by the slot of the AD it leaves. [dst] is kept or not;
   some metrics are 0, and the others lie in [0, C]: C = 300 spans more
   keys than the ring's first 64 buckets, C = 200 000 more than its
   2^16-bucket limit, so buckets alias. One ring serves every build,
   and every other build writes into the last label's array. *)
let lower_bound_matches_bellman_ford =
  QCheck.Test.make ~name:"lower_bound = Bellman-Ford over the kept ADs" ~count:300
    QCheck.(quad small_int (oneofl [ 3; 300; 200_000 ]) (int_range 0 100) (int_range 0 50))
    (fun (gseed, c, pkeep, pzero) ->
      let g = random_multigraph gseed in
      let n = Graph.n g in
      let all = Policy_search.of_graph g in
      let off, nbr = Graph.unique_csr g in
      let roll x = Hashtbl.hash (gseed, c, pkeep, x) mod 100 in
      let metric =
        Array.init (Array.length nbr) (fun k ->
            if roll (`Zero k) < pzero then 0 else Hashtbl.hash (gseed, k) mod (c + 1))
      in
      let keep v = roll (`Keep v) < pkeep in
      let rows = Policy_search.restrict all ~keep in
      let ads = List.filter keep (List.init n Fun.id) in
      let ring = Dial.create () and last = ref [||] in
      List.for_all
        (fun dst ->
          let d = Array.make n max_int and changed = ref true in
          d.(dst) <- 0;
          while !changed do
            changed := false;
            List.iter
              (fun u ->
                for k = off.(u) to off.(u + 1) - 1 do
                  let w = nbr.(k) in
                  if (w = dst || keep w) && d.(w) < max_int && metric.(k) + d.(w) < d.(u) then begin
                    d.(u) <- metric.(k) + d.(w);
                    changed := true
                  end
                done)
              ads
          done;
          let label =
            if dst land 1 = 1 && Array.length !last = Policy_search.size rows then
              Policy_search.lower_bound ~into:!last rows ring ~dst ~metric
            else Policy_search.lower_bound rows ring ~dst ~metric
          in
          last := label;
          List.length ads = Array.length label
          && List.for_all2 (fun u l -> l = d.(u)) ads (Array.to_list label))
        (List.init n Fun.id))

(* The label cache builds into the arrays of the labels it evicts, and
   a join rebuilds the rows. Under any sequence of requests and
   joins, every label it returns is a fresh [lower_bound] over the
   rows of the ADs kept so far. *)
let policy_search_labels_recycle =
  QCheck.Test.make ~name:"recycled labels = fresh lower bounds" ~count:200
    QCheck.(triple small_int (int_range 1 4) (int_range 0 100))
    (fun (gseed, capacity, pkeep) ->
      let g = random_multigraph gseed in
      let n = Graph.n g and rng = Rng.create gseed in
      let all = Policy_search.of_graph g in
      let keep v = Hashtbl.hash (gseed, v) mod 100 < pkeep in
      let labels = Policy_search.labels (Policy_search.restrict all ~keep) ~capacity in
      let kept = Array.init n keep in
      let metric = Array.init (Array.length (snd (Graph.unique_csr g))) (Graph.slot_cost g) in
      let ring = Dial.create () and ok = ref true in
      for _ = 1 to 40 do
        if Rng.int rng 8 = 0 then begin
          let v = Rng.int rng n in
          kept.(v) <- true;
          Policy_search.join labels v
        end
        else begin
          let dst = Rng.int rng n in
          let got = Policy_search.label labels ~key:dst ~dst ~metric in
          let rows = Policy_search.restrict all ~keep:(fun v -> kept.(v)) in
          if got <> Policy_search.lower_bound rows ring ~dst ~metric then ok := false;
          if Policy_search.carrying labels |> Policy_search.size <> Policy_search.size rows then
            ok := false
        end
      done;
      !ok)

(* Once the cache is full, a build writes into the label it evicts:
   it allocates a cache entry, not a label. *)
let policy_search_label_builds_recycle () =
  let g = Generator.generate (Rng.create 1) (Generator.scaled ~target_ads:2000) in
  let rows =
    Policy_search.restrict (Policy_search.of_graph g) ~keep:(fun v ->
        Ad.is_transit_capable (Graph.ad g v))
  in
  let labels = Policy_search.labels rows ~capacity:4 in
  let metric = Array.init (Array.length (snd (Graph.unique_csr g))) (Graph.slot_cost g) in
  for dst = 0 to 3 do
    ignore (Policy_search.label labels ~key:dst ~dst ~metric)
  done;
  let builds = 16 in
  let words =
    Pr_telemetry.Alloc.words (fun () ->
        for dst = 4 to 3 + builds do
          ignore (Policy_search.label labels ~key:dst ~dst ~metric)
        done)
  in
  Alcotest.(check int) "labels evicted" builds (Policy_search.label_evictions labels);
  let per_build = words /. float_of_int builds in
  if per_build > 32.0 then
    Alcotest.failf "%.1f words per build on a full cache (budget 32; a label is %d)" per_build
      (Policy_search.size rows)

let policy_search_basics () =
  (* A triangle 0-1-2 plus a tail 2-3, where 1 refuses 0 -> 1 -> 2. *)
  let ads =
    Array.init 4 (fun id -> Ad.make ~id ~name:(string_of_int id) ~klass:Ad.Hybrid ~level:Ad.Metro)
  in
  let link id a b cost = Link.make ~id ~a ~b ~cost Link.Lateral in
  let g = Graph.create ads [| link 0 0 1 1; link 1 1 2 1; link 2 0 2 5; link 3 2 3 1 |] in
  let whole = Policy_search.of_graph g and scratch = Policy_search.scratch () in
  let metric _ _ k = Graph.slot_cost g k in
  let search ?avoid ~admit src dst =
    Policy_search.search scratch whole ~src ~dst ?avoid ~metric ~admit ()
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
    (Policy_search.search scratch whole ~src:0 ~dst:3 ~lower ~metric ~admit:all ()
    = Policy_search.Route [ 0; 1; 2; 3 ]);
  check_int "bounded: states, both passes" 8 (Policy_search.settled scratch);
  check_int "bounded: states, bound pass" 4 (Policy_search.bound_settled scratch);
  Alcotest.check_raises "bound shorter than the rows"
    (Invalid_argument "Policy_search.search: lower bound shorter than the rows") (fun () ->
      ignore
        (Policy_search.search scratch whole ~src:0 ~dst:3 ~lower:[| 0 |] ~metric ~admit:all ()));
  let unusable _ w _ = if w = 3 then -1 else 1 in
  check_bool "negative metric = unusable edge" true
    (Policy_search.search scratch whole ~src:0 ~dst:3 ~metric:unusable ~admit:all ()
    = Policy_search.Unreachable);
  (* 2 admits only 0 -> 2 -> 1 and 1 -> 2 -> 3 and 1 only 2 -> 1 -> 2:
     the cheapest walk from 0 to 3 is 0-2-1-2-3, which revisits 2. *)
  let loop v p w = (v = 2 && ((p = 0 && w = 1) || (p = 1 && w = 3))) || (v = 1 && p = 2 && w = 2) in
  check_bool "revisiting walk" true (search ~admit:loop 0 3 = Policy_search.Revisits);
  (* Refusing ADs relax nothing, but the start at src always relaxes:
     0 -> 1 needs no admission. Unbounded over full rows, and bounded
     over rows that keep every AD, 0 and 1, or none. *)
  let refuses _ = true and none _ _ _ = false in
  check_bool "a refusing src still relaxes" true
    (Policy_search.search scratch whole ~src:0 ~dst:1 ~refuses ~metric ~admit:none ()
    = Policy_search.Route [ 0; 1 ]);
  let slot_cost = Array.init 8 (Graph.slot_cost g) in
  List.iter
    (fun keep ->
      let rows = Policy_search.restrict whole ~keep in
      let ring = Dial.create () in
      let lower dst = Policy_search.lower_bound rows ring ~dst ~metric:slot_cost in
      check_bool "a refusing src still relaxes (bounded)" true
        (Policy_search.search scratch rows ~src:0 ~dst:1 ~lower:(lower 1) ~refuses ~metric
           ~admit:none ()
        = Policy_search.Route [ 0; 1 ]);
      (* Admission would let 1 and 2 carry the route: only the skip
         leaves 3 unreached. *)
      check_bool "a refusing interior relaxes nothing (bounded)" true
        (Policy_search.search scratch rows ~src:0 ~dst:3 ~lower:(lower 3) ~refuses ~metric
           ~admit:all ()
        = Policy_search.Unreachable))
    [ (fun _ -> true); (fun v -> v < 2); (fun _ -> false) ];
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
      ( "policy-search",
        [
          Alcotest.test_case "basics" `Quick policy_search_basics;
          Alcotest.test_case "label builds recycle" `Quick policy_search_label_builds_recycle;
        ]
        @ qsuite
            [
              policy_search_matches_reference;
              policy_search_bounded_matches_unbounded;
              policy_search_restricted_rows;
              policy_search_buckets_match_heap;
              policy_search_rows_match_kept_reference;
              lower_bound_matches_bellman_ford;
              policy_search_labels_recycle;
            ] );
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
