(* Tests for the pr_proto framework: design points, cost model, LSDB,
   flooding, constrained route computation, forwarding. *)

module Rng = Pr_util.Rng
module Graph = Pr_topology.Graph
module Figure1 = Pr_topology.Figure1
module Generator = Pr_topology.Generator
module Path = Pr_topology.Path
module Flow = Pr_policy.Flow
module Config = Pr_policy.Config
module Gen = Pr_policy.Gen
module Validate = Pr_policy.Validate
module Transit_policy = Pr_policy.Transit_policy
module Engine = Pr_sim.Engine
module Metrics = Pr_sim.Metrics
module Network = Pr_sim.Network
module Design_point = Pr_proto.Design_point
module Cost_model = Pr_proto.Cost_model
module Packet = Pr_proto.Packet
module Lsdb = Pr_proto.Lsdb
module Ls_flood = Pr_proto.Ls_flood
module Policy_route = Pr_proto.Policy_route
module Forwarding = Pr_proto.Forwarding

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* --- Design points -------------------------------------------------- *)

let design_points_distinct () =
  check_int "eight points" 8 (List.length Design_point.all);
  check_int "all distinct" 8 (List.length (List.sort_uniq compare Design_point.all))

let design_point_strings () =
  let p =
    Design_point.make Design_point.Link_state Design_point.Source_routing
      Design_point.Policy_terms
  in
  Alcotest.(check string) "to_string"
    "link state / source routing / explicit policy terms" (Design_point.to_string p)

(* --- Cost model ------------------------------------------------------ *)

let cost_model_shapes () =
  check_bool "source route grows with length" true
    (Cost_model.source_route_bytes 10 > Cost_model.source_route_bytes 3);
  check_bool "handle cheaper than any source route" true
    (Cost_model.handle_bytes < Cost_model.source_route_bytes 2);
  check_bool "path vector entry grows with path" true
    (Cost_model.path_vector_entry_bytes ~path_len:8 ~pt_bytes:0
    > Cost_model.path_vector_entry_bytes ~path_len:2 ~pt_bytes:0);
  check_bool "lsa grows with pts" true
    (Cost_model.lsa_bytes ~link_count:3 ~pt_bytes:40 > Cost_model.lsa_bytes ~link_count:3 ~pt_bytes:0);
  check_bool "setup packet bigger than base header" true
    (Cost_model.setup_packet_bytes ~route_len:4 ~pt_count:2 > Cost_model.base_header_bytes)

(* --- Lsdb ------------------------------------------------------------ *)

let adj nbr cost = { Lsdb.nbr; cost; delay = 1.0 }

let lsa origin seq adjacencies = Lsdb.make_lsa ~origin ~seq ~adjacencies ~terms:[]

let lsdb_sequencing () =
  let db = Lsdb.create ~n:4 in
  check_bool "first insert" true (Lsdb.insert db (lsa 1 1 [ adj 2 1 ]));
  check_bool "duplicate rejected" false (Lsdb.insert db (lsa 1 1 [ adj 2 1 ]));
  check_bool "stale rejected" false (Lsdb.insert db (lsa 1 0 []));
  check_bool "newer accepted" true (Lsdb.insert db (lsa 1 2 [ adj 3 2 ]));
  check_int "seq stored" 2 (Lsdb.seq_of db 1);
  check_int "entries" 1 (Lsdb.entry_count db);
  Alcotest.(check (option int)) "adjacency updated" (Some 2) (Lsdb.adjacency_cost db 1 3);
  Alcotest.(check (option int)) "old adjacency gone" None (Lsdb.adjacency_cost db 1 2)

let lsdb_bidirectional () =
  let db = Lsdb.create ~n:4 in
  ignore (Lsdb.insert db (lsa 1 1 [ adj 2 3 ]));
  Alcotest.(check (option int)) "one-way not bidirectional" None (Lsdb.bidirectional db 1 2);
  ignore (Lsdb.insert db (lsa 2 1 [ adj 1 5 ]));
  Alcotest.(check (option int)) "max of directions" (Some 5) (Lsdb.bidirectional db 1 2)

let lsdb_known_and_fold () =
  let db = Lsdb.create ~n:5 in
  ignore (Lsdb.insert db (lsa 0 1 []));
  ignore (Lsdb.insert db (lsa 3 1 []));
  check_int "fold" 2 (Lsdb.fold db ~init:0 ~f:(fun acc _ -> acc + 1))

let lsdb_bytes_pinned () =
  (* The cached LSA size must stay pinned to the cost model: a 12-byte
     header, 4 bytes per adjacency plus 2 for its delay metric, and
     each PT at its 8 + 2·ids advertisement size. *)
  check_int "bare LSA" 12 (Lsdb.lsa_bytes (lsa 1 1 []));
  check_int "two adjacencies" (12 + (2 * (4 + 2))) (Lsdb.lsa_bytes (lsa 1 1 [ adj 2 1; adj 3 1 ]));
  let terms =
    [
      Pr_policy.Policy_term.make ~owner:1
        ~sources:(Pr_policy.Policy_term.Only [| 2; 3; 4 |]) ();
      Pr_policy.Policy_term.make ~owner:1 ();
    ]
  in
  let with_terms = Lsdb.make_lsa ~origin:1 ~seq:1 ~adjacencies:[ adj 2 1 ] ~terms in
  check_int "adjacency + two PTs" (12 + 4 + 2 + (8 + (2 * 3)) + 8) (Lsdb.lsa_bytes with_terms);
  (* And the compiled form is cached in the LSA itself: repeated
     lookups return the same compilation. *)
  let db = Lsdb.create ~n:5 in
  ignore (Lsdb.insert db with_terms);
  check_bool "compiled once" true (Lsdb.compiled_of db 1 == Lsdb.compiled_of db 1);
  check_int "empty compilation for unknown ADs" 0
    (Pr_policy.Compiled.term_count (Lsdb.compiled_of db 4))

(* Empty slots hold one shared sentinel record (seq -1). It never
   leaks: no accessor returns or counts it, [compiled_of] never caches
   into it (two databases of different sizes each get their own empty
   compilation), a seq-0 record is fresher than it and a forged seq -1
   record is not. *)
let lsdb_sentinel_hidden () =
  let db = Lsdb.create ~n:4 and wide = Lsdb.create ~n:9 in
  let empty_view db =
    let view, _ = Lsdb.search_view db Pr_policy.Qos.Default in
    let rows = ref 0 in
    for u = 0 to 3 do
      Pr_topology.Policy_search.iter_row view u ~f:(fun _ _ -> incr rows)
    done;
    !rows
  in
  let hidden label db ad =
    check_bool (label ^ ": get") true (Lsdb.get db ad = None);
    check_int (label ^ ": seq_of") (-1) (Lsdb.seq_of db ad);
    check_bool (label ^ ": adjacencies_of") true (Lsdb.adjacencies_of db ad = []);
    check_bool (label ^ ": terms_of") true (Lsdb.terms_of db ad = []);
    check_int (label ^ ": compiled_of") 0
      (Pr_policy.Compiled.term_count (Lsdb.compiled_of db ad))
  in
  for ad = 0 to 3 do
    hidden "empty" db ad
  done;
  check_int "empty: entry_count" 0 (Lsdb.entry_count db);
  check_int "empty: fold" 0 (Lsdb.fold db ~init:0 ~f:(fun acc _ -> acc + 1));
  check_int "empty: no view rows" 0 (empty_view db);
  check_bool "each database its own empty compilation" true
    (Lsdb.compiled_of db 0 != Lsdb.compiled_of wide 0);
  let first = lsa 2 0 [ adj 1 1 ] in
  check_bool "seq 0 accepted into an empty slot" true (Lsdb.insert db first);
  check_bool "get returns the record" true
    (match Lsdb.get db 2 with Some l -> l == first | None -> false);
  check_int "seq 0 stored" 0 (Lsdb.seq_of db 2);
  check_bool "forged seq -1 refused" false (Lsdb.insert db (lsa 3 (-1) [ adj 2 4 ]));
  check_bool "forged seq -1 refused over a record" false
    (Lsdb.insert db (lsa 2 (-1) [ adj 3 4 ]));
  hidden "after a refusal" db 3;
  check_int "one entry" 1 (Lsdb.entry_count db);
  check_bool "fold sees only the record" true
    (Lsdb.fold db ~init:[] ~f:(fun acc l -> l :: acc) = [ first ]);
  check_int "one-way adjacency gives no view rows" 0 (empty_view db);
  for ad = 0 to 8 do
    hidden "wider database" wide ad
  done

(* Siblings share search views exactly by record identity. A pool of
   LSAs over three ADs, each origination paired with a corrupted twin
   that keeps the honest [seq] but retargets one adjacency (as
   [Ls_flood.corrupt_lsa] does), is fed to three sibling databases in
   random order, with resets. Every search must return the view a
   private database fed the same records builds, and must reuse the
   family's last view exactly when its store holds, slot for slot,
   the physically same records that view was built from. *)

let shared_view_n = 3

let shared_view_pool =
  let n = shared_view_n in
  let honest origin seq =
    let adjacencies =
      List.filter_map
        (fun w ->
          if w = origin || (origin + w + seq) mod 3 = 0 then None
          else
            Some
              {
                Lsdb.nbr = w;
                cost = 1 + (((origin * w) + seq) mod 4);
                delay = float_of_int (1 + ((origin + w) mod 3));
              })
        (List.init n Fun.id)
    in
    lsa origin seq adjacencies
  in
  let twin (l : Lsdb.lsa) =
    match l.Lsdb.adjacencies with
    | [] -> { l with Lsdb.adjacencies = [ adj ((l.Lsdb.origin + 1) mod n) 9 ]; compiled = None }
    | a :: rest ->
      let nbr = (a.Lsdb.nbr + 1) mod n in
      { l with Lsdb.adjacencies = { a with Lsdb.nbr; cost = a.Lsdb.cost + 3 } :: rest; compiled = None }
  in
  Array.of_list
    (List.concat_map
       (fun origin ->
         List.concat_map
           (fun seq ->
             let l = honest origin seq in
             [ l; twin l ])
           [ 1; 2 ])
       (List.init n Fun.id))

type shared_view_op = Insert of int * int | Reset of int | Search of int

let shared_view_dbs = 3

let shared_view_op_gen =
  let open QCheck.Gen in
  let db = int_bound (shared_view_dbs - 1) in
  frequency
    [
      (6, map2 (fun d p -> Insert (d, p)) db (int_bound (Array.length shared_view_pool - 1)));
      (1, map (fun d -> Reset d) db);
      (4, map (fun d -> Search d) db);
    ]

let shared_view_op_print = function
  | Insert (d, p) -> Printf.sprintf "insert db%d pool%d" d p
  | Reset d -> Printf.sprintf "reset db%d" d
  | Search d -> Printf.sprintf "search db%d" d

let store_of db = Array.init shared_view_n (Lsdb.get db)

let same_records a b =
  Array.for_all2
    (fun x y ->
      match (x, y) with
      | Some x, Some y -> x == y
      | None, None -> true
      | _ -> false)
    a b

let view_rows view =
  Array.init shared_view_n (fun u ->
      let row = ref [] in
      Pr_topology.Policy_search.iter_row view u ~f:(fun w k -> row := (w, k) :: !row);
      List.rev !row)

(* The view and every class's metrics, as plain data. *)
let view_contents db =
  let view = fst (Lsdb.search_view db Pr_policy.Qos.Default) in
  (view_rows view, List.map (fun q -> snd (Lsdb.search_view db q)) Pr_policy.Qos.all)

let lsdb_shared_view =
  QCheck.Test.make ~name:"sibling views shared by record identity" ~count:300
    QCheck.(
      make
        ~print:(Print.list shared_view_op_print) ~shrink:Shrink.list
        Gen.(list_size (int_range 1 60) shared_view_op_gen))
    (fun ops ->
      let first = Lsdb.create ~n:shared_view_n in
      let dbs =
        Array.init shared_view_dbs (fun i -> if i = 0 then first else Lsdb.sibling first)
      in
      (* [held.(d)]: the view database [d] last returned, while its
         store is unchanged; [last]: the store the family's last fresh
         view came from, with that view. *)
      let held = Array.make shared_view_dbs None in
      let last = ref None in
      let search d =
        let db = dbs.(d) in
        let view, _ = Lsdb.search_view db Pr_policy.Qos.Default in
        let private_db = Lsdb.create ~n:shared_view_n in
        Lsdb.fold db ~init:() ~f:(fun () l -> ignore (Lsdb.insert private_db l));
        if view_contents db <> view_contents private_db then
          QCheck.Test.fail_reportf "db%d: view differs from a private build" d;
        let store = store_of db in
        (match (held.(d), !last) with
         | Some (_, held_view), _ ->
           if held_view != view then QCheck.Test.fail_reportf "db%d: held view dropped" d
         | None, Some (key, last_view) ->
           if same_records key store <> (view == last_view) then
             QCheck.Test.fail_reportf "db%d: view %s although the records %s" d
               (if view == last_view then "shared" else "not shared")
               (if same_records key store then "match" else "differ")
         | None, None -> ());
        if Option.is_none held.(d) then last := Some (store, view);
        held.(d) <- Some (store, view);
        Array.iteri
          (fun e h ->
            match h with
            | Some (other, other_view) when e <> d && other_view == view ->
              if not (same_records other store) then
                QCheck.Test.fail_reportf "db%d and db%d share a view over different records" d e
            | _ -> ())
          held
      in
      List.iter
        (function
          | Insert (d, p) -> if Lsdb.insert dbs.(d) shared_view_pool.(p) then held.(d) <- None
          | Reset d ->
            dbs.(d) <- Lsdb.sibling dbs.(d);
            held.(d) <- None
          | Search d -> search d)
        ops;
      Array.iteri (fun d _ -> search d) dbs;
      true)

(* --- Ls_flood -------------------------------------------------------- *)

let flood_setup () =
  let g = Figure1.graph () in
  let e = Engine.create () in
  let m = Metrics.create ~n:(Graph.n g) in
  let net = Network.create e g m in
  let flood = Ls_flood.create net ~terms_for:(fun _ -> []) () in
  Network.set_message_handler net (fun ~at ~from msg -> Ls_flood.handle_message flood ~at ~from msg);
  Network.set_link_handler net (fun ~at ~link ~up -> Ls_flood.handle_link flood ~at ~link ~up);
  (g, e, net, flood)

let flood_converges_consistent () =
  let g, e, _, flood = flood_setup () in
  Ls_flood.start flood;
  Alcotest.(check bool) "drained" true (Engine.run e = Engine.Drained);
  (* Every node has every LSA and all databases agree. *)
  let n = Graph.n g in
  for ad = 0 to n - 1 do
    check_int (Printf.sprintf "db size at %d" ad) n (Ls_flood.db_entries flood ad)
  done;
  for origin = 0 to n - 1 do
    let seq0 = Lsdb.seq_of (Ls_flood.db flood 0) origin in
    for ad = 1 to n - 1 do
      check_int "same seq everywhere" seq0 (Lsdb.seq_of (Ls_flood.db flood ad) origin)
    done
  done

let flood_reacts_to_failure () =
  let g, e, net, flood = flood_setup () in
  Ls_flood.start flood;
  ignore (Engine.run e);
  let lid = Option.get (Graph.find_link g 0 1) in
  Network.set_link_state net lid ~up:false;
  ignore (Engine.run e);
  (* Everyone learns that 0 and 1 are no longer adjacent. *)
  for ad = 0 to Graph.n g - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "adjacency gone in db of %d" ad)
      None
      (Lsdb.bidirectional (Ls_flood.db flood ad) 0 1)
  done

let flood_take_delta () =
  let _, e, _, flood = flood_setup () in
  Ls_flood.start flood;
  ignore (Engine.run e);
  (* Nothing is tracked before the first drain, which answers Full. *)
  check_bool "first drain is full" true (Ls_flood.take_delta flood 0 = Ls_flood.Full);
  check_bool "then unchanged" true (Ls_flood.take_delta flood 0 = Ls_flood.Unchanged);
  let seq o = Lsdb.seq_of (Ls_flood.db flood 0) o in
  let deliver o = Ls_flood.handle_message flood ~at:0 ~from:1 (lsa o (seq o + 1) []) in
  List.iter deliver [ 5; 2; 5; 9 ];
  Alcotest.(check bool) "origins, deduplicated, oldest first" true
    (Ls_flood.take_delta flood 0 = Ls_flood.Origins [ 5; 2; 9 ]);
  check_bool "drained" true (Ls_flood.take_delta flood 0 = Ls_flood.Unchanged)

let flood_change_callback () =
  let _, e, _, flood = flood_setup () in
  let changes = ref 0 in
  Ls_flood.set_on_change flood (fun _ ~origin:_ -> incr changes);
  Ls_flood.start flood;
  ignore (Engine.run e);
  check_bool "callbacks fired" true (!changes > 0)

(* --- Policy_route ---------------------------------------------------- *)

let converged_policy_db config =
  let g = Figure1.graph () in
  let e = Engine.create () in
  let m = Metrics.create ~n:(Graph.n g) in
  let net = Network.create e g m in
  let flood =
    Ls_flood.create net
      ~terms_for:(fun ad -> (Config.transit config ad).Transit_policy.terms)
      ()
  in
  Network.set_message_handler net (fun ~at ~from msg -> Ls_flood.handle_message flood ~at ~from msg);
  Ls_flood.start flood;
  ignore (Engine.run e);
  (g, flood)

(* --- Ls_flood vetting ------------------------------------------------- *)

(* Honest records of a converged policy flood over Figure 1: every
   origin's LSA as AD 0 holds it, Policy Terms included. *)
let honest_records () =
  let g, flood = converged_policy_db (Config.defaults (Figure1.graph ())) in
  let records = Lsdb.fold (Ls_flood.db flood 0) ~init:[] ~f:(fun acc l -> l :: acc) in
  (g, flood, List.rev records)

(* A flood over [g] that has vetted nothing yet. *)
let fresh_flood g =
  let net = Network.create (Engine.create ()) g (Metrics.create ~n:(Graph.n g)) in
  Ls_flood.create net ~terms_for:(fun _ -> []) ()

let with_delay (l : Lsdb.lsa) delay =
  match l.Lsdb.adjacencies with
  | [] -> None
  | a :: rest -> Some { l with Lsdb.adjacencies = { a with Lsdb.delay } :: rest; compiled = None }

(* Forged twins of an honest adjacency whose delay no link can have
   are refused; the honest record is accepted before and after. *)
let flood_rejects_bad_delays () =
  let _, flood, records = honest_records () in
  List.iter
    (fun (l : Lsdb.lsa) ->
      check_bool "honest accepted" true (Ls_flood.check_lsa flood ~at:0 l = Ok ());
      List.iter
        (fun delay ->
          match with_delay l delay with
          | None -> ()
          | Some bad -> (
            match Ls_flood.check_lsa flood ~at:0 bad with
            | Ok () -> Alcotest.failf "delay %g from ad %d accepted" delay l.Lsdb.origin
            | Error reason ->
              check_bool (Printf.sprintf "reason names the delay: %s" reason) true
                (String.starts_with ~prefix:"adjacency to" reason)))
        [ Float.nan; -1.0; 0.0; Float.infinity ];
      check_bool "honest still accepted" true (Ls_flood.check_lsa flood ~at:0 l = Ok ()))
    records

(* The vetted [check_lsa] answers exactly what a fresh flood (nothing
   vetted yet) answers, for any stream of honest records, honest
   copies and re-sequenced copies, corruptions (which keep the honest
   seq), forgeries, field-level forgeries and replays. *)
type vet_op = Pick of int | Replay_last | Corrupt of int | Forge of int

let vet_op_print = function
  | Pick i -> Printf.sprintf "pick %d" i
  | Replay_last -> "replay last"
  | Corrupt i -> Printf.sprintf "corrupt %d" i
  | Forge o -> Printf.sprintf "forge %d" o

let vetting_matches_fresh =
  let g, base, honest = honest_records () in
  let n = Graph.n g in
  let forged (l : Lsdb.lsa) = { l with Lsdb.compiled = None } in
  let variants (l : Lsdb.lsa) =
    let foreign_terms =
      match l.Lsdb.terms with
      | [] -> []
      | t :: rest ->
        let owner = (l.Lsdb.origin + 1) mod n in
        [ { (forged l) with Lsdb.terms = { t with Pr_policy.Policy_term.owner } :: rest } ]
    in
    let bad_adjacency =
      match l.Lsdb.adjacencies with
      | [] -> []
      | a :: rest ->
        List.map
          (fun a' -> { (forged l) with Lsdb.adjacencies = a' :: rest })
          [ { a with Lsdb.cost = -1 }; { a with Lsdb.nbr = n + 3 } ]
    in
    [
      l;
      forged l;
      { (forged l) with Lsdb.seq = l.Lsdb.seq + 1 };
      { (forged l) with Lsdb.origin = n };
      { (forged l) with Lsdb.origin = (l.Lsdb.origin + 1) mod n };
    ]
    @ foreign_terms @ bad_adjacency
    @ List.filter_map (with_delay l) [ Float.nan; -1.0 ]
  in
  let pool = Array.of_list (List.concat_map variants honest) in
  let honest = Array.of_list honest in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun i -> Pick i) (int_bound (Array.length pool - 1)));
          (3, return Replay_last);
          (2, map (fun i -> Corrupt i) (int_bound (Array.length honest - 1)));
          (1, map (fun o -> Forge o) (int_bound (n - 1)));
        ])
  in
  QCheck.Test.make ~name:"vetted check_lsa = fresh check_lsa" ~count:300
    QCheck.(
      make ~print:(Print.list vet_op_print) ~shrink:Shrink.list
        Gen.(list_size (int_range 1 80) op_gen))
    (fun ops ->
      let vetted = fresh_flood g in
      let rng = Rng.create 7 in
      let last = ref pool.(0) in
      List.for_all
        (fun op ->
          let l =
            match op with
            | Pick i -> pool.(i)
            | Replay_last -> !last
            | Corrupt i ->
              Option.value (Ls_flood.corrupt_lsa base ~rng honest.(i)) ~default:honest.(i)
            | Forge o -> (
              match Ls_flood.forge_lsa base o with Some (l, _) -> l | None -> !last)
          in
          last := l;
          Ls_flood.check_lsa vetted ~at:0 l = Ls_flood.check_lsa (fresh_flood g) ~at:0 l)
        ops)

let policy_route_matches_oracle () =
  let g0 = Figure1.graph () in
  let config = Config.defaults g0 in
  let g, flood = converged_policy_db config in
  let n = Graph.n g in
  let db = Ls_flood.db flood 7 in
  let flow = Flow.make ~src:7 ~dst:12 () in
  let path, work = Policy_route.shortest (Policy_route.engine db ~n flow) () in
  check_bool "found" true (path <> None);
  check_bool "work recorded" true (work > 0);
  let p = Option.get path in
  check_bool "legal per oracle" true (Validate.transit_legal g config flow p);
  (* Cost-optimal: equal to the oracle's best. *)
  let oracle_best = Option.get (Validate.best_legal g config flow ~max_hops:12) in
  Alcotest.(check (option int)) "same cost as oracle" (Path.cost g oracle_best)
    (Path.cost g p)

let policy_route_respects_avoid () =
  let g0 = Figure1.graph () in
  let config = Config.defaults g0 in
  let _, flood = converged_policy_db config in
  let n = 14 in
  let db = Ls_flood.db flood 8 in
  (* C2a(8) -> C3a(10): the route via the regional lateral R2--R3
     avoids BB1; a route through BB1 also exists. *)
  let flow = Flow.make ~src:8 ~dst:10 () in
  let path, _ = Policy_route.shortest (Policy_route.engine db ~n flow) ~avoid:[ 0 ] () in
  match path with
  | None -> Alcotest.fail "a route avoiding BB1 exists (via the R2-R3 lateral)"
  | Some p -> check_bool "avoids BB1" true (not (List.mem 0 (Path.transit_ads p)))

let policy_route_respects_policy =
  QCheck.Test.make ~name:"policy route legal per the same terms" ~count:25 QCheck.small_int
    (fun seed ->
      let g0 = Figure1.graph () in
      let rng = Rng.create seed in
      let config = Gen.generate rng g0 { Gen.default with restrictiveness = 0.5 } in
      let g, flood = converged_policy_db config in
      let hosts = Graph.host_ids g in
      let src = Rng.choose rng hosts and dst = Rng.choose rng hosts in
      src = dst
      ||
      let flow = Flow.make ~src ~dst () in
      let db = Ls_flood.db flood src in
      match Policy_route.shortest (Policy_route.engine db ~n:(Graph.n g) flow) () with
      | None, _ -> true
      | Some p, _ -> Validate.transit_legal g config flow p)

let policy_route_enumerate_legal () =
  let g0 = Figure1.graph () in
  let config = Config.defaults g0 in
  let g, flood = converged_policy_db config in
  let db = Ls_flood.db flood 7 in
  let flow = Flow.make ~src:7 ~dst:8 () in
  let paths = Policy_route.enumerate (Policy_route.engine db ~n:(Graph.n g) flow) ~max_hops:7 () in
  check_bool "nonempty" true (paths <> []);
  check_bool "all legal" true
    (List.for_all (fun p -> Validate.transit_legal g config flow p) paths)

let qos_metric_shapes () =
  let m q = Pr_proto.Qos_metric.metric q ~cost:4 ~delay:2.5 in
  check_int "default follows cost" 4 (m Pr_policy.Qos.Default);
  check_int "throughput follows cost" 4 (m Pr_policy.Qos.High_throughput);
  check_int "low delay follows delay" 25 (m Pr_policy.Qos.Low_delay);
  check_int "reliability counts hops" 1 (m Pr_policy.Qos.High_reliability);
  check_int "metrics never zero" 1
    (Pr_proto.Qos_metric.metric Pr_policy.Qos.Low_delay ~cost:1 ~delay:0.01)

(* Two parallel transits: X is cheap but slow, Y expensive but fast.
   Default traffic must ride X, Low_delay traffic Y. *)
let qos_path_delay () =
  let g = Figure1.graph () in
  (* All figure1 delays default to 1.0: delay = hop count. *)
  Alcotest.(check (option (float 1e-9))) "delay sums" (Some 4.0)
    (Pr_proto.Qos_metric.path_delay g [ 7; 2; 0; 1; 4 ]);
  Alcotest.(check (option (float 1e-9))) "broken path" None
    (Pr_proto.Qos_metric.path_delay g [ 7; 8 ])

let qos_routes_differ () =
  let module Ad = Pr_topology.Ad in
  let module Link = Pr_topology.Link in
  let ads =
    [|
      Ad.make ~id:0 ~name:"A" ~klass:Ad.Hybrid ~level:Ad.Metro;
      Ad.make ~id:1 ~name:"B" ~klass:Ad.Hybrid ~level:Ad.Metro;
      Ad.make ~id:2 ~name:"X" ~klass:Ad.Transit ~level:Ad.Regional;
      Ad.make ~id:3 ~name:"Y" ~klass:Ad.Transit ~level:Ad.Regional;
    |]
  in
  let links =
    [|
      Link.make ~id:0 ~a:2 ~b:0 ~cost:1 ~delay:3.0 Link.Hierarchical;
      Link.make ~id:1 ~a:2 ~b:1 ~cost:1 ~delay:3.0 Link.Hierarchical;
      Link.make ~id:2 ~a:3 ~b:0 ~cost:3 ~delay:0.5 Link.Hierarchical;
      Link.make ~id:3 ~a:3 ~b:1 ~cost:3 ~delay:0.5 Link.Hierarchical;
    |]
  in
  let g = Graph.create ads links in
  let config = Config.defaults g in
  let module R = Pr_proto.Runner.Make (Pr_lshbh.Lshbh) in
  let r = R.setup g config in
  ignore (R.converge r);
  let path_for qos =
    match R.send_flow r (Flow.make ~src:0 ~dst:1 ~qos ()) with
    | Pr_proto.Forwarding.Delivered { path; _ } -> path
    | o -> Alcotest.failf "expected delivery, got %a" Pr_proto.Forwarding.pp_outcome o
  in
  Alcotest.(check (list int)) "default rides the cheap transit" [ 0; 2; 1 ]
    (path_for Pr_policy.Qos.Default);
  Alcotest.(check (list int)) "low delay rides the fast transit" [ 0; 3; 1 ]
    (path_for Pr_policy.Qos.Low_delay);
  (* ECMA's per-QOS FIBs make the same split. *)
  let module Re = Pr_proto.Runner.Make (Pr_ecma.Ecma) in
  let re = Re.setup g config in
  ignore (Re.converge re);
  let epath qos =
    match Re.send_flow re (Flow.make ~src:0 ~dst:1 ~qos ()) with
    | Pr_proto.Forwarding.Delivered { path; _ } -> path
    | o -> Alcotest.failf "ecma: expected delivery, got %a" Pr_proto.Forwarding.pp_outcome o
  in
  Alcotest.(check (list int)) "ecma default via X" [ 0; 2; 1 ] (epath Pr_policy.Qos.Default);
  Alcotest.(check (list int)) "ecma low delay via Y" [ 0; 3; 1 ]
    (epath Pr_policy.Qos.Low_delay)

(* --- Forwarding ------------------------------------------------------ *)

let forwarding_delivers () =
  let outcome =
    Forwarding.send ~n:5
      ~prepare:(fun _ -> Packet.no_prep)
      ~originate:(fun _ -> ())
      ~forward:(fun ~at ~from:_ packet ->
        if at = packet.Packet.flow.Flow.dst then Packet.Deliver else Packet.Forward (at + 1))
      ~adjacent:(fun _ _ -> true)
      (Flow.make ~src:0 ~dst:3 ())
  in
  match outcome with
  | Forwarding.Delivered { path; _ } ->
    Alcotest.(check (list int)) "hop by hop" [ 0; 1; 2; 3 ] path
  | o -> Alcotest.failf "expected delivery, got %a" Forwarding.pp_outcome o

let forwarding_detects_loop () =
  let outcome =
    Forwarding.send ~n:4
      ~prepare:(fun _ -> Packet.no_prep)
      ~originate:(fun _ -> ())
      ~forward:(fun ~at ~from:_ _ -> Packet.Forward ((at + 1) mod 2))
      ~adjacent:(fun _ _ -> true)
      (Flow.make ~src:0 ~dst:3 ())
  in
  match outcome with
  | Forwarding.Looped _ -> ()
  | o -> Alcotest.failf "expected loop, got %a" Forwarding.pp_outcome o

let forwarding_detects_dead_link () =
  let outcome =
    Forwarding.send ~n:4
      ~prepare:(fun _ -> Packet.no_prep)
      ~originate:(fun _ -> ())
      ~forward:(fun ~at:_ ~from:_ _ -> Packet.Forward 2)
      ~adjacent:(fun _ _ -> false)
      (Flow.make ~src:0 ~dst:3 ())
  in
  match outcome with
  | Forwarding.Dropped { at; _ } -> check_int "dropped at source" 0 at
  | o -> Alcotest.failf "expected drop, got %a" Forwarding.pp_outcome o

let forwarding_prep_failure () =
  let outcome =
    Forwarding.send ~n:4
      ~prepare:(fun _ -> { Packet.no_prep with failure = Some "nope" })
      ~originate:(fun _ -> Alcotest.fail "originate must not run")
      ~forward:(fun ~at:_ ~from:_ _ -> Packet.Deliver)
      ~adjacent:(fun _ _ -> true)
      (Flow.make ~src:0 ~dst:3 ())
  in
  match outcome with
  | Forwarding.Prep_failed { reason; _ } -> Alcotest.(check string) "reason" "nope" reason
  | o -> Alcotest.failf "expected prep failure, got %a" Forwarding.pp_outcome o

let forwarding_wrong_delivery () =
  let outcome =
    Forwarding.send ~n:4
      ~prepare:(fun _ -> Packet.no_prep)
      ~originate:(fun _ -> ())
      ~forward:(fun ~at:_ ~from:_ _ -> Packet.Deliver)
      ~adjacent:(fun _ _ -> true)
      (Flow.make ~src:0 ~dst:3 ())
  in
  match outcome with
  | Forwarding.Dropped { reason; _ } ->
    Alcotest.(check string) "reason" "delivered at wrong AD" reason
  | o -> Alcotest.failf "expected drop, got %a" Forwarding.pp_outcome o

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "pr_proto"
    [
      ( "design-point",
        [
          Alcotest.test_case "distinct" `Quick design_points_distinct;
          Alcotest.test_case "strings" `Quick design_point_strings;
        ] );
      ("cost-model", [ Alcotest.test_case "shapes" `Quick cost_model_shapes ]);
      ( "lsdb",
        [
          Alcotest.test_case "sequencing" `Quick lsdb_sequencing;
          Alcotest.test_case "bidirectional" `Quick lsdb_bidirectional;
          Alcotest.test_case "known/fold" `Quick lsdb_known_and_fold;
          Alcotest.test_case "bytes pinned" `Quick lsdb_bytes_pinned;
          Alcotest.test_case "empty-slot sentinel hidden" `Quick lsdb_sentinel_hidden;
        ]
        @ qsuite [ lsdb_shared_view ] );
      ( "ls-flood",
        [
          Alcotest.test_case "converges consistent" `Quick flood_converges_consistent;
          Alcotest.test_case "reacts to failure" `Quick flood_reacts_to_failure;
          Alcotest.test_case "take delta" `Quick flood_take_delta;
          Alcotest.test_case "change callback" `Quick flood_change_callback;
          Alcotest.test_case "rejects impossible delays" `Quick flood_rejects_bad_delays;
        ]
        @ qsuite [ vetting_matches_fresh ] );
      ( "policy-route",
        [
          Alcotest.test_case "matches oracle" `Quick policy_route_matches_oracle;
          Alcotest.test_case "respects avoid" `Quick policy_route_respects_avoid;
          Alcotest.test_case "enumerate legal" `Quick policy_route_enumerate_legal;
        ]
        @ qsuite [ policy_route_respects_policy ] );
      ( "qos-routing",
        [
          Alcotest.test_case "metric shapes" `Quick qos_metric_shapes;
          Alcotest.test_case "path delay" `Quick qos_path_delay;
          Alcotest.test_case "per-QOS paths differ" `Quick qos_routes_differ;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "delivers" `Quick forwarding_delivers;
          Alcotest.test_case "detects loop" `Quick forwarding_detects_loop;
          Alcotest.test_case "detects dead link" `Quick forwarding_detects_dead_link;
          Alcotest.test_case "prep failure" `Quick forwarding_prep_failure;
          Alcotest.test_case "wrong delivery" `Quick forwarding_wrong_delivery;
        ] );
    ]
