(* Unit and property tests for pr_policy. *)

module Rng = Pr_util.Rng
module Bitset = Pr_util.Bitset
module Ad = Pr_topology.Ad
module Graph = Pr_topology.Graph
module Figure1 = Pr_topology.Figure1
module Qos = Pr_policy.Qos
module Uci = Pr_policy.Uci
module Flow = Pr_policy.Flow
module Policy_term = Pr_policy.Policy_term
module Transit_policy = Pr_policy.Transit_policy
module Source_policy = Pr_policy.Source_policy
module Config = Pr_policy.Config
module Gen = Pr_policy.Gen
module Validate = Pr_policy.Validate
module Compiled = Pr_policy.Compiled
module Policy_store = Pr_policy.Policy_store
module Path = Pr_topology.Path
module Policy_search = Pr_topology.Policy_search

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* --- Qos / Uci ----------------------------------------------------- *)

let qos_roundtrip () =
  List.iter
    (fun q -> check_bool "roundtrip" true (Qos.equal q (Qos.of_index (Qos.index q))))
    Qos.all;
  check_int "count" (List.length Qos.all) Qos.count;
  Alcotest.check_raises "bad index" (Invalid_argument "Qos.of_index") (fun () ->
      ignore (Qos.of_index 99))

let uci_roundtrip () =
  List.iter
    (fun u -> check_bool "roundtrip" true (Uci.equal u (Uci.of_index (Uci.index u))))
    Uci.all;
  check_int "count" (List.length Uci.all) Uci.count

(* --- Flow ---------------------------------------------------------- *)

let flow_basics () =
  let f = Flow.make ~src:1 ~dst:2 () in
  check_int "src" 1 f.Flow.src;
  check_int "dst" 2 f.Flow.dst;
  let r = Flow.reverse f in
  check_int "reversed src" 2 r.Flow.src;
  Alcotest.check_raises "bad hour" (Invalid_argument "Flow.make: hour out of range")
    (fun () -> ignore (Flow.make ~src:0 ~dst:1 ~hour:24 ()))

let flow_class_keys () =
  let keys =
    List.concat_map
      (fun q -> List.map (fun u -> Flow.class_key (Flow.make ~src:0 ~dst:1 ~qos:q ~uci:u ())) Uci.all)
      Qos.all
  in
  check_int "distinct class keys" Flow.class_count (List.length (List.sort_uniq compare keys));
  check_bool "keys in range" true (List.for_all (fun k -> k >= 0 && k < Flow.class_count) keys)

let flow_class_with_source =
  QCheck.Test.make ~name:"class_key_with_source is injective per (class, src)" ~count:200
    QCheck.(quad (int_range 0 3) (int_range 0 2) (int_range 0 19) (int_range 0 19))
    (fun (qi, ui, s1, s2) ->
      let f1 = Flow.make ~src:s1 ~dst:0 ~qos:(Qos.of_index qi) ~uci:(Uci.of_index ui) () in
      let f2 = Flow.make ~src:s2 ~dst:0 ~qos:(Qos.of_index qi) ~uci:(Uci.of_index ui) () in
      let k1 = Flow.class_key_with_source ~n:20 f1
      and k2 = Flow.class_key_with_source ~n:20 f2 in
      (s1 = s2) = (k1 = k2))

(* --- Policy terms -------------------------------------------------- *)

let ctx ?(src = 0) ?(dst = 9) ?(qos = Qos.Default) ?(uci = Uci.Research) ?(hour = 12)
    ?(auth = false) ?prev ?next () =
  {
    Policy_term.flow = Flow.make ~src ~dst ~qos ~uci ~hour ~authenticated:auth ();
    prev;
    next;
  }

let pt_open () =
  let t = Policy_term.open_term 5 in
  check_bool "admits anything" true (Policy_term.admits t (ctx ~prev:1 ~next:2 ()));
  check_bool "admits none endpoints" true (Policy_term.admits t (ctx ()))

let pt_source_pred () =
  let t = Policy_term.make ~owner:5 ~sources:(Policy_term.Only [| 1; 2 |]) () in
  check_bool "admits listed source" true (Policy_term.admits t (ctx ~src:1 ()));
  check_bool "rejects other source" false (Policy_term.admits t (ctx ~src:3 ()));
  let e = Policy_term.make ~owner:5 ~sources:(Policy_term.Except [| 1 |]) () in
  check_bool "except rejects listed" false (Policy_term.admits e (ctx ~src:1 ()));
  check_bool "except admits others" true (Policy_term.admits e (ctx ~src:3 ()))

let pt_hop_preds () =
  let t =
    Policy_term.make ~owner:5 ~prev_hops:(Policy_term.Only [| 7 |])
      ~next_hops:(Policy_term.Except [| 8 |]) ()
  in
  check_bool "good hops" true (Policy_term.admits t (ctx ~prev:7 ~next:9 ()));
  check_bool "bad prev" false (Policy_term.admits t (ctx ~prev:6 ~next:9 ()));
  check_bool "bad next" false (Policy_term.admits t (ctx ~prev:7 ~next:8 ()));
  check_bool "missing prev passes" true (Policy_term.admits t (ctx ~next:9 ()))

let pt_qos_uci () =
  let t = Policy_term.make ~owner:5 ~qos:[ Qos.Low_delay ] ~ucis:[ Uci.Commercial ] () in
  check_bool "matching class" true
    (Policy_term.admits t (ctx ~qos:Qos.Low_delay ~uci:Uci.Commercial ()));
  check_bool "wrong qos" false (Policy_term.admits t (ctx ~qos:Qos.Default ~uci:Uci.Commercial ()));
  check_bool "wrong uci" false (Policy_term.admits t (ctx ~qos:Qos.Low_delay ()));
  Alcotest.check_raises "empty qos" (Invalid_argument "Policy_term.make: empty QOS list")
    (fun () -> ignore (Policy_term.make ~owner:1 ~qos:[] ()))

let pt_hours () =
  let t = Policy_term.make ~owner:5 ~hours:(9, 17) () in
  check_bool "inside window" true (Policy_term.admits t (ctx ~hour:12 ()));
  check_bool "before window" false (Policy_term.admits t (ctx ~hour:8 ()));
  check_bool "at end (half open)" false (Policy_term.admits t (ctx ~hour:17 ()));
  let w = Policy_term.make ~owner:5 ~hours:(22, 6) () in
  check_bool "wrapping window late" true (Policy_term.admits w (ctx ~hour:23 ()));
  check_bool "wrapping window early" true (Policy_term.admits w (ctx ~hour:3 ()));
  check_bool "wrapping window midday" false (Policy_term.admits w (ctx ~hour:12 ()))

let pt_auth () =
  let t = Policy_term.make ~owner:5 ~auth_required:true () in
  check_bool "unauthenticated rejected" false (Policy_term.admits t (ctx ()));
  check_bool "authenticated accepted" true (Policy_term.admits t (ctx ~auth:true ()))

(* [sort_pred] checks for ascending input before sorting; its result
   must be what a full polymorphic sort of a copy gives. *)
let sort_pred_matches_sort =
  let open QCheck in
  let shaped =
    Gen.(
      pair
        (oneofl [ `Random; `Ascending; `Descending; `Duplicates ])
        (list_size (int_bound 60) (int_range (-5) 40))
      >|= fun (shape, xs) ->
      match shape with
      | `Random -> xs
      | `Ascending -> List.sort compare xs
      | `Descending -> List.sort (fun a b -> compare b a) xs
      | `Duplicates -> List.sort compare (xs @ xs))
  in
  Test.make ~name:"sort_pred equals Array.sort compare" ~count:500
    (make ~print:Print.(list int) shaped)
    (fun xs ->
      let ids = Array.of_list xs in
      let expected = Array.copy ids in
      Array.sort compare expected;
      let before = Array.copy ids in
      (match Policy_term.sort_pred (Policy_term.Only ids) with
      | Policy_term.Only a -> a = expected
      | _ -> false)
      && (match Policy_term.sort_pred (Policy_term.Except ids) with
         | Policy_term.Except a -> a = expected && (ids = [||] || not (a == ids))
         | _ -> false)
      && ids = before)

let pt_bytes () =
  let open_bytes = Policy_term.advertisement_bytes (Policy_term.open_term 1) in
  let listed =
    Policy_term.advertisement_bytes
      (Policy_term.make ~owner:1 ~sources:(Policy_term.Only [| 1; 2; 3 |]) ())
  in
  check_bool "listing sources costs bytes" true (listed = open_bytes + 6)

(* --- Transit policy ------------------------------------------------ *)

let transit_policy_semantics () =
  let p = Transit_policy.no_transit 3 in
  check_bool "stub never allows" false
    (Transit_policy.allows p (ctx ~prev:1 ~next:2 ()));
  let o = Transit_policy.open_transit 3 in
  check_bool "open allows" true (Transit_policy.allows o (ctx ~prev:1 ~next:2 ()));
  check_bool "admitting term found" true
    (Transit_policy.admitting_term o (ctx ()) <> None);
  Alcotest.check_raises "owner mismatch"
    (Invalid_argument "Transit_policy.make: term owner mismatch") (fun () ->
      ignore (Transit_policy.make 3 [ Policy_term.open_term 4 ]))

let transit_policy_any_term () =
  (* A flow passes if ANY term admits it. *)
  let t1 = Policy_term.make ~owner:3 ~qos:[ Qos.Low_delay ] () in
  let t2 = Policy_term.make ~owner:3 ~ucis:[ Uci.Government ] () in
  let p = Transit_policy.make 3 [ t1; t2 ] in
  check_bool "first term" true (Transit_policy.allows p (ctx ~qos:Qos.Low_delay ()));
  check_bool "second term" true (Transit_policy.allows p (ctx ~uci:Uci.Government ()));
  check_bool "neither" false (Transit_policy.allows p (ctx ()))

(* --- Source policy ------------------------------------------------- *)

let source_policy_permits () =
  let p = Source_policy.make ~owner:0 ~avoid:[ 5 ] ~max_hops:3 () in
  check_bool "clean path" true (Source_policy.permits p [ 0; 1; 2 ]);
  check_bool "avoided transit" false (Source_policy.permits p [ 0; 5; 2 ]);
  check_bool "avoid only applies to interior" true (Source_policy.permits p [ 0; 1; 5 ]);
  check_bool "hop budget" false (Source_policy.permits p [ 0; 1; 2; 3; 4 ])

let source_policy_best () =
  let g = Figure1.graph () in
  let p = Source_policy.make ~owner:7 ~prefer:[ 0 ] () in
  let paths = [ [ 7; 2; 0; 3; 8 ]; [ 7; 2; 0; 1; 4; 10 ] ] in
  match Source_policy.best p g paths with
  | None -> Alcotest.fail "expected a best path"
  | Some best -> check_bool "picks a permitted path" true (List.mem best paths)

let source_policy_score () =
  let g = Figure1.graph () in
  let unrestricted = Source_policy.unrestricted 7 in
  let s = Source_policy.score unrestricted g [ 7; 2; 0 ] in
  check_bool "score finite for valid" true (s < infinity);
  let avoid = Source_policy.make ~owner:7 ~avoid:[ 2 ] () in
  check_bool "score infinite for refused" true
    (Source_policy.score avoid g [ 7; 2; 0 ] = infinity)

(* --- Config -------------------------------------------------------- *)

let config_defaults () =
  let g = Figure1.graph () in
  let c = Config.defaults g in
  check_int "n" 14 (Config.n c);
  (* Stubs have no terms; transit ADs have one open term. *)
  check_int "stub terms" 0 (Transit_policy.term_count (Config.transit c 7));
  check_int "backbone terms" 1 (Transit_policy.term_count (Config.transit c 0));
  check_bool "no source policies" true (not (Config.has_source_policy c 7));
  check_bool "source defaults to unrestricted" true
    ((Config.source c 7).Source_policy.avoid = [])

let config_validation () =
  Alcotest.check_raises "owner mismatch" (Invalid_argument "Config.make: transit owner mismatch")
    (fun () -> ignore (Config.make ~transit:[| Transit_policy.no_transit 5 |] ()))

(* --- Gen ----------------------------------------------------------- *)

let gen_stubs_never_transit =
  QCheck.Test.make ~name:"generated stubs have no policy terms" ~count:40
    QCheck.(pair small_int (float_bound_inclusive 1.0))
    (fun (seed, r) ->
      let g = Figure1.graph () in
      let c =
        Gen.generate (Rng.create seed) g { Gen.default with restrictiveness = r }
      in
      List.for_all
        (fun ad -> Transit_policy.term_count (Config.transit c ad) = 0)
        (Graph.stub_ids g))

let gen_zero_restrictiveness_is_open () =
  let g = Figure1.graph () in
  let c =
    Gen.generate (Rng.create 4) g
      { Gen.restrictiveness = 0.0; granularity = Gen.Coarse; source_policy_prob = 0.0 }
  in
  List.iter
    (fun ad ->
      let flow_ctx = ctx ~src:7 ~dst:8 ~prev:1 ~next:2 () in
      check_bool "transit AD open" true (Transit_policy.allows (Config.transit c ad) flow_ctx))
    (List.filter
       (fun ad -> (Graph.ad g ad).Ad.klass = Ad.Transit)
       (Graph.transit_ids g))

let gen_fine_means_more_terms =
  QCheck.Test.make ~name:"fine granularity produces at least as many terms as coarse"
    ~count:20 QCheck.small_int (fun seed ->
      let g = Figure1.graph () in
      let coarse =
        Gen.generate (Rng.create seed) g
          { Gen.restrictiveness = 1.0; granularity = Gen.Coarse; source_policy_prob = 0.0 }
      in
      let fine =
        Gen.generate (Rng.create seed) g
          { Gen.restrictiveness = 1.0; granularity = Gen.Fine; source_policy_prob = 0.0 }
      in
      Config.total_terms fine >= Config.total_terms coarse)

let gen_deterministic () =
  let g = Figure1.graph () in
  let c1 = Gen.generate (Rng.create 11) g Gen.default in
  let c2 = Gen.generate (Rng.create 11) g Gen.default in
  check_int "same total terms" (Config.total_terms c1) (Config.total_terms c2);
  check_int "same bytes" (Config.total_advertisement_bytes c1)
    (Config.total_advertisement_bytes c2)

(* The list-based generator that [Gen] replaced, kept as the reference
   model: one list cell per kept id, [List.filter] draws and the
   n-element cone scan. [Gen.generate] must return an equal
   configuration and leave the generator at the same next draw. *)
module Reference_gen = struct
  let hierarchy_descendants g root =
    let seen = Array.make (Graph.n g) false in
    let rec go u =
      if not seen.(u) then begin
        seen.(u) <- true;
        Graph.iter_neighbors g u ~f:(fun v lid ->
            let l = Graph.link g lid in
            if
              l.Pr_topology.Link.kind = Pr_topology.Link.Hierarchical
              && Ad.level_rank (Graph.ad g v).Ad.level > Ad.level_rank (Graph.ad g u).Ad.level
            then go v)
      end
    in
    go root;
    let acc = ref [] in
    for i = Graph.n g - 1 downto 0 do
      if seen.(i) then acc := i :: !acc
    done;
    !acc

  let sublist rng keep xs =
    let chosen = List.filter (fun _ -> Rng.chance rng keep) xs in
    match chosen with
    | [] -> [ Rng.choose rng xs ]
    | _ -> chosen

  let coarse_terms rng r owner =
    if Rng.chance rng 0.5 then
      [ Policy_term.make ~owner ~qos:(sublist rng (1.0 -. r) Qos.all) () ]
    else begin
      let width = Stdlib.min 23 (Stdlib.max 4 (24 - int_of_float (r *. 20.0))) in
      let start = Rng.int rng 24 in
      [ Policy_term.make ~owner ~hours:(start, (start + width) mod 24) () ]
    end

  let destination_terms rng r owner hosts =
    let keep = Stdlib.max 0.1 (1.0 -. r) in
    let dests = sublist rng keep hosts in
    [ Policy_term.make ~owner ~destinations:(Policy_term.Only (Array.of_list dests)) () ]

  let source_specific_terms rng r owner hosts =
    let excluded = List.filter (fun ad -> ad <> owner && Rng.chance rng (r *. 0.5)) hosts in
    match excluded with
    | [] -> [ Policy_term.open_term owner ]
    | _ -> [ Policy_term.make ~owner ~sources:(Policy_term.Except (Array.of_list excluded)) () ]

  let fine_terms rng r owner hosts =
    List.map
      (fun uci ->
        let keep = Stdlib.max 0.15 (1.0 -. r) in
        let sources = sublist rng keep hosts in
        Policy_term.make ~owner
          ~sources:(Policy_term.Only (Array.of_list sources))
          ~qos:(sublist rng (1.0 -. (r *. 0.5)) Qos.all)
          ~ucis:[ uci ] ())
      Uci.all

  let transit_terms rng (p : Gen.params) g (ad : Ad.t) hosts =
    let owner = ad.Ad.id in
    let restricted = Rng.chance rng p.Gen.restrictiveness in
    let r = p.Gen.restrictiveness in
    let base =
      if not restricted then [ Policy_term.open_term owner ]
      else
        match p.Gen.granularity with
        | Gen.Coarse -> coarse_terms rng r owner
        | Gen.Destination -> destination_terms rng r owner hosts
        | Gen.Source_specific -> source_specific_terms rng r owner hosts
        | Gen.Fine -> fine_terms rng r owner hosts
    in
    let cone = hierarchy_descendants g owner in
    let customer_terms =
      if List.length cone <= 1 then []
      else
        [
          Policy_term.make ~owner ~sources:(Policy_term.Only (Array.of_list cone)) ();
          Policy_term.make ~owner ~destinations:(Policy_term.Only (Array.of_list cone)) ();
        ]
    in
    match ad.Ad.klass with
    | Ad.Hybrid ->
      let scope = sublist rng 0.4 hosts in
      let dests = Policy_term.sort_pred (Policy_term.Only (Array.of_list scope)) in
      let scoped =
        List.map
          (fun (t : Policy_term.t) ->
            match t.Policy_term.destinations with
            | Policy_term.Any -> { t with Policy_term.destinations = dests }
            | _ -> t)
          base
      in
      customer_terms @ scoped
    | Ad.Transit -> if restricted then customer_terms @ base else base
    | Ad.Stub | Ad.Multihomed -> []

  let generate rng g (p : Gen.params) =
    let hosts = Graph.host_ids g in
    let transit =
      Array.map
        (fun (ad : Ad.t) ->
          if Ad.is_transit_capable ad then
            Transit_policy.make ad.Ad.id (transit_terms rng p g ad hosts)
          else Transit_policy.no_transit ad.Ad.id)
        (Graph.ads g)
    in
    let transit_ids = Graph.transit_ids g in
    let source =
      Array.map
        (fun (ad : Ad.t) ->
          let hosts_here =
            match ad.Ad.klass with
            | Ad.Stub | Ad.Multihomed | Ad.Hybrid -> true
            | Ad.Transit -> false
          in
          if hosts_here && Rng.chance rng p.Gen.source_policy_prob && transit_ids <> [] then begin
            let avoid =
              List.filter
                (fun t -> t <> ad.Ad.id && Rng.chance rng (p.Gen.restrictiveness *. 0.4))
                transit_ids
            in
            match avoid with
            | [] -> None
            | _ -> Some (Source_policy.make ~owner:ad.Ad.id ~avoid ())
          end
          else None)
        (Graph.ads g)
    in
    Config.make ~transit ~source ()
end

let gen_matches_reference =
  let params =
    QCheck.Gen.(
      quad (oneofl Gen.all_granularities) (oneofl [ 0.0; 0.3; 0.8; 1.0 ])
        (oneofl [ 0.0; 0.3; 1.0 ])
        (pair (int_range 14 400) small_nat))
  in
  QCheck.Test.make ~name:"generate equals the list-based reference generator" ~count:120
    (QCheck.make
       ~print:(fun (gr, r, sp, (size, seed)) ->
         Printf.sprintf "%s r=%g sp=%g size=%d seed=%d" (Gen.granularity_to_string gr) r sp
           size seed)
       params)
    (fun (granularity, restrictiveness, source_policy_prob, (size, seed)) ->
      let g =
        if size <= 14 then Figure1.graph ()
        else
          Pr_topology.Generator.generate (Rng.create seed)
            (Pr_topology.Generator.scaled ~target_ads:size)
      in
      let p = { Gen.restrictiveness; granularity; source_policy_prob } in
      let rng = Rng.create (seed + 1) and reference = Rng.create (seed + 1) in
      let c = Gen.generate rng g p in
      let expected = Reference_gen.generate reference g p in
      c = expected && Rng.bits64 rng = Rng.bits64 reference)

(* --- Validate ------------------------------------------------------ *)

let oracle_open_config () =
  let g = Figure1.graph () in
  let c = Config.defaults g in
  let flow = Flow.make ~src:7 ~dst:8 () in
  (* 7 -> R1(2) -> BB1(0) -> R2(3) -> 8 is legal under open transit. *)
  check_bool "legal path" true (Validate.legal g c flow [ 7; 2; 0; 3; 8 ]);
  (* A path through a stub is refused. *)
  (match Validate.check g c (Flow.make ~src:2 ~dst:1 ()) [ 2; 6; 1 ] with
  | Validate.Transit_refused { ad; _ } -> check_int "refused at stub" 6 ad
  | v -> Alcotest.failf "expected transit refusal, got %a" Validate.pp_verdict v);
  (* Broken path. *)
  (match Validate.check g c flow [ 7; 0; 8 ] with
  | Validate.Broken _ -> ()
  | v -> Alcotest.failf "expected broken, got %a" Validate.pp_verdict v);
  (match Validate.check g c flow [ 8; 3; 0; 2; 7 ] with
  | Validate.Broken _ -> ()
  | v -> Alcotest.failf "expected wrong-endpoint broken, got %a" Validate.pp_verdict v)

let oracle_source_refusal () =
  let g = Figure1.graph () in
  let transit =
    Array.map
      (fun (a : Ad.t) ->
        if Ad.is_transit_capable a then Transit_policy.open_transit a.Ad.id
        else Transit_policy.no_transit a.Ad.id)
      (Graph.ads g)
  in
  let source = Array.make 14 None in
  source.(7) <- Some (Source_policy.make ~owner:7 ~avoid:[ 0 ] ());
  let c = Config.make ~transit ~source () in
  let flow = Flow.make ~src:7 ~dst:8 () in
  check_bool "source refused" true
    (Validate.check g c flow [ 7; 2; 0; 3; 8 ] = Validate.Source_refused);
  check_bool "transit-legal nonetheless" true (Validate.transit_legal g c flow [ 7; 2; 0; 3; 8 ])

let oracle_enumeration_matches_unconstrained () =
  let g = Figure1.graph () in
  let c = Config.defaults g in
  let flow = Flow.make ~src:7 ~dst:8 () in
  let legal = Validate.legal_paths g c flow ~max_hops:6 () in
  check_bool "all returned paths are legal" true
    (List.for_all (fun p -> Validate.transit_legal g c flow p) legal);
  (* Compare against brute-force enumeration + filter. *)
  let all =
    Pr_topology.Path.enumerate_simple g ~src:7 ~dst:8 ~max_hops:6 ()
    |> List.filter (fun p -> Validate.transit_legal g c flow p)
  in
  check_int "same count as brute force" (List.length all) (List.length legal)

let oracle_route_exists () =
  let g = Figure1.graph () in
  let c = Config.defaults g in
  check_bool "route exists" true
    (Validate.route_exists g c (Flow.make ~src:7 ~dst:12 ()) ~max_hops:8);
  (* With all transit closed, only direct neighbors are reachable. *)
  let closed =
    Config.make
      ~transit:(Array.init 14 (fun i -> Transit_policy.no_transit i))
      ()
  in
  check_bool "no transit, remote unreachable" false
    (Validate.route_exists g closed (Flow.make ~src:7 ~dst:12 ()) ~max_hops:8);
  check_bool "direct neighbor ok" true
    (Validate.route_exists g closed (Flow.make ~src:7 ~dst:2 ()) ~max_hops:8)

let oracle_best_legal () =
  let g = Figure1.graph () in
  let c = Config.defaults g in
  let flow = Flow.make ~src:9 ~dst:10 () in
  match Validate.best_legal g c flow ~max_hops:8 with
  | None -> Alcotest.fail "expected a best path"
  | Some best ->
    (* The campus lateral link 9--10 is the 1-hop best route. *)
    Alcotest.(check (list int)) "direct lateral" [ 9; 10 ] best

let oracle_qcheck_consistency =
  QCheck.Test.make ~name:"every enumerated legal path passes check" ~count:30
    QCheck.small_int (fun seed ->
      let g = Figure1.graph () in
      let rng = Rng.create seed in
      let c = Gen.generate rng g { Gen.default with restrictiveness = 0.5 } in
      let hosts = Graph.host_ids g in
      let src = Rng.choose rng hosts in
      let dst = List.nth hosts ((List.length hosts - 1) mod List.length hosts) in
      src = dst
      ||
      let flow = Flow.make ~src ~dst () in
      let paths = Validate.legal_paths g c flow ~max_hops:7 () in
      List.for_all (fun p -> Validate.transit_legal g c flow p) paths)

(* Random policy-term generator for algebraic properties. *)
let gen_pred =
  QCheck.Gen.(
    frequency
      [
        (2, return Policy_term.Any);
        (1, map (fun l -> Policy_term.Only (Array.of_list (List.sort_uniq compare l)))
             (list_size (int_range 1 5) (int_range 0 13)));
        (1, map (fun l -> Policy_term.Except (Array.of_list (List.sort_uniq compare l)))
             (list_size (int_range 1 5) (int_range 0 13)));
      ])

let gen_ctx =
  QCheck.Gen.(
    let id = int_range 0 13 in
    map
      (fun (src, dst, (qi, ui, hour, auth), prev, next) ->
        {
          Policy_term.flow =
            Flow.make ~src ~dst ~qos:(Qos.of_index qi) ~uci:(Uci.of_index ui) ~hour
              ~authenticated:auth ();
          prev = (if prev < 0 then None else Some prev);
          next = (if next < 0 then None else Some next);
        })
      (tup5 id id
         (tup4 (int_range 0 3) (int_range 0 2) (int_range 0 23) bool)
         (int_range (-1) 13) (int_range (-1) 13)))

let pt_open_admits_everything =
  QCheck.Test.make ~name:"open term admits every crossing" ~count:300
    (QCheck.make gen_ctx)
    (fun ctx -> Policy_term.admits (Policy_term.open_term 5) ctx)

let pt_only_except_complement =
  QCheck.Test.make ~name:"Only and Except are complementary on sources" ~count:300
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 0 6) (int_range 0 13)) gen_ctx))
    (fun (ids, ctx) ->
      let ids = List.sort_uniq compare ids in
      let only = Policy_term.make ~owner:5 ~sources:(Policy_term.Only (Array.of_list ids)) () in
      let except = Policy_term.make ~owner:5 ~sources:(Policy_term.Except (Array.of_list ids)) () in
      Policy_term.admits only ctx <> Policy_term.admits except ctx)

let pt_restriction_monotone =
  QCheck.Test.make ~name:"adding a constraint never admits more" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_pred gen_ctx))
    (fun (pred, ctx) ->
      let base = Policy_term.open_term 5 in
      let restricted = { base with Policy_term.sources = pred } in
      (not (Policy_term.admits restricted ctx)) || Policy_term.admits base ctx)

let hour_window_complement =
  QCheck.Test.make ~name:"an hour window and its complement cover the day" ~count:300
    (QCheck.make QCheck.Gen.(tup3 (int_range 0 23) (int_range 0 23) (int_range 0 23)))
    (fun (h1, h2, hour) ->
      h1 = h2
      || Policy_term.hour_in_window (Some (h1, h2)) hour
         <> Policy_term.hour_in_window (Some (h2, h1)) hour)

let transit_union_monotone =
  QCheck.Test.make ~name:"adding a term to a policy never refuses more" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_pred gen_ctx))
    (fun (pred, ctx) ->
      let t1 = Policy_term.make ~owner:5 ~sources:pred () in
      let t2 = Policy_term.make ~owner:5 ~destinations:pred () in
      let small = Transit_policy.make 5 [ t1 ] in
      let big = Transit_policy.make 5 [ t1; t2 ] in
      (not (Transit_policy.allows small ctx)) || Transit_policy.allows big ctx)

let oracle_dijkstra_matches_enumeration =
  (* shortest_legal (state Dijkstra) must find a route exactly when the
     exhaustive enumeration does, and of equal optimal cost. best_legal
     and route_exists skip the enumeration when the state search proves
     no route exists; under fine-grained policies and source avoid
     lists they must still agree with it. *)
  QCheck.Test.make ~name:"shortest_legal agrees with exhaustive enumeration" ~count:80
    QCheck.(triple small_int (pair (int_range 0 13) (int_range 0 13)) bool)
    (fun (seed, (src, dst), fine) ->
      src = dst
      ||
      let g = Figure1.graph () in
      let rng = Rng.create seed in
      let granularity = if fine then Gen.Fine else Gen.default.Gen.granularity in
      let c =
        Gen.generate rng g
          { Gen.restrictiveness = 0.6; granularity; source_policy_prob = 0.5 }
      in
      let flow =
        Flow.make ~src ~dst
          ~qos:(Rng.choose rng Qos.all)
          ~uci:(Rng.choose rng Uci.all)
          ~hour:(Rng.int rng 24) ~authenticated:(Rng.bool rng) ()
      in
      let dijkstra = Validate.shortest_legal g c flow () in
      let enumerated = Validate.legal_paths g c flow ~max_hops:13 () in
      let best_enumerated =
        List.filter_map (fun p -> Pr_topology.Path.cost g p) enumerated
        |> List.fold_left Stdlib.min max_int
      in
      let source = Config.source c src in
      let permitted = List.filter (Source_policy.permits source) enumerated in
      (match dijkstra with
      | None -> enumerated = []
      | Some p ->
        Validate.transit_legal g c flow p
        && Pr_topology.Path.cost g p = Some best_enumerated)
      && Validate.route_exists g c flow ~max_hops:13 = (enumerated <> [])
      &&
      match Validate.best_legal g c flow ~max_hops:13 with
      | None -> permitted = []
      | Some p -> Validate.transit_legal g c flow p && Source_policy.permits source p)

(* Paper §5.4.1: restrictiveness trades against availability. Opening
   one transit-capable AD's policy completely can only add legal
   routes, so no flow that had one before loses it. *)
let opening_a_policy_never_loses_a_route =
  QCheck.Test.make ~name:"opening one AD's transit policy never removes a route"
    ~count:60
    QCheck.(triple (int_range 14 40) small_int bool)
    (fun (size, seed, fine) ->
      let g = (Pr_core.Scenario.for_size ~target_ads:size ~seed ()).Pr_core.Scenario.graph in
      let n = Graph.n g in
      let rng = Rng.create seed in
      let granularity = if fine then Gen.Fine else Gen.default.Gen.granularity in
      let before =
        Gen.generate rng g
          {
            Gen.restrictiveness = 0.5 +. Rng.float rng 0.4;
            granularity;
            source_policy_prob = 0.5;
          }
      in
      match Graph.transit_ids g with
      | [] -> true
      | transit_ads ->
        let opened = Rng.choose rng transit_ads in
        let after =
          Config.make
            ~transit:
              (Array.init n (fun ad ->
                   if ad = opened then Transit_policy.open_transit ad
                   else Config.transit before ad))
            ~source:
              (Array.init n (fun ad ->
                   if Config.has_source_policy before ad then
                     Some (Config.source before ad)
                   else None))
            ()
        in
        List.for_all
          (fun _ ->
            let flow =
              Flow.make ~src:(Rng.int rng n) ~dst:(Rng.int rng n)
                ~qos:(Rng.choose rng Qos.all) ~uci:(Rng.choose rng Uci.all)
                ~hour:(Rng.int rng 24) ~authenticated:(Rng.bool rng) ()
            in
            (not (Validate.route_exists g before flow ~max_hops:n))
            || Validate.route_exists g after flow ~max_hops:n)
          (List.init 12 Fun.id))

(* The oracle runs where the system benchmarks. At 10^4 ADs a search
   touches sparse (node, arrived-from) state, never n^2 slots, and once
   its scratch is warm it allocates little beyond the route itself. *)
let oracle_at_ten_thousand_ads () =
  let sc = Pr_core.Scenario.for_size ~target_ads:10_000 ~seed:3 () in
  let g = sc.Pr_core.Scenario.graph and c = sc.Pr_core.Scenario.config in
  check_bool "10^4 ADs" true (Graph.n g >= 10_000);
  let flows = Pr_core.Scenario.flows sc ~rng:(Rng.create 5) ~count:6 () in
  let routed = ref 0 in
  List.iter
    (fun (flow : Flow.t) ->
      match Validate.shortest_legal g c flow () with
      | None -> ()
      | Some p ->
        incr routed;
        check_bool "transit legal" true (Validate.transit_legal g c flow p);
        let again = ref None in
        let words =
          Pr_telemetry.Alloc.words (fun () -> again := Validate.shortest_legal g c flow ())
        in
        check_bool "same route again" true (!again = Some p);
        let bound = 64.0 +. (8.0 *. float_of_int (List.length p)) in
        if words > bound then
          Alcotest.failf "flow %d->%d: a warm search allocated %.0f words for a %d-AD route"
            flow.Flow.src flow.Flow.dst words (List.length p))
    flows;
  check_bool "some flow routed" true (!routed > 0)

(* --- The bounded oracle against the unbounded search --------------- *)

(* The oracle's state search as it was before it ran in the carrying
   subgraph: the unbounded (node, arrived-from) search over every AD's
   full row, admitting each crossing straight off the compiled terms. *)
let reference_state_search g config flow ~avoid =
  let store = Policy_store.of_config config in
  let scratch = Policy_search.scratch () in
  let outcome =
    Policy_search.search scratch (Policy_search.of_graph g)
      ~src:flow.Flow.src ~dst:flow.Flow.dst ~avoid
      ~metric:(fun _ _ k -> Graph.slot_cost g k)
      ~admit:(fun v p w ->
        Compiled.allows_crossing (Policy_store.compiled store v) flow ~prev:p ~next:w)
      ()
  in
  (outcome, Policy_search.settled scratch)

(* [Validate]'s answers over the reference search, with its fallbacks. *)
type reference = No_walk | Found of Path.t option

let reference_shortest g config flow ~apply_source_policy =
  let policy = Config.source config flow.Flow.src in
  let avoid = if apply_source_policy then policy.Source_policy.avoid else [] in
  match fst (reference_state_search g config flow ~avoid) with
  | Policy_search.Unreachable -> No_walk
  | Policy_search.Route p when (not apply_source_policy) || Source_policy.permits policy p ->
    Found (Some p)
  | Policy_search.Route _ | Policy_search.Revisits ->
    let paths = Validate.legal_paths g config flow ~max_hops:12 ~limit:2000 () in
    if apply_source_policy then Found (Source_policy.best policy g paths)
    else begin
      let scored = List.filter_map (fun p -> Option.map (fun c -> (c, p)) (Path.cost g p)) paths in
      match List.sort compare scored with [] -> Found None | (_, p) :: _ -> Found (Some p)
    end

let reference_shortest_legal g config flow ~apply_source_policy =
  match reference_shortest g config flow ~apply_source_policy with
  | No_walk -> None
  | Found p -> p

let reference_route_exists g config flow ~max_hops =
  match fst (reference_state_search g config flow ~avoid:[]) with
  | Policy_search.Route p when Path.hops p <= max_hops -> true
  | Policy_search.Unreachable -> false
  | Policy_search.Route _ | Policy_search.Revisits ->
    Validate.legal_paths g config flow ~max_hops ~limit:1 () <> []

let reference_best_legal g config flow ~max_hops =
  match reference_shortest g config flow ~apply_source_policy:true with
  | No_walk -> None
  | Found (Some p) when Path.hops p <= max_hops -> Some p
  | Found _ ->
    let paths = Validate.legal_paths g config flow ~max_hops ~limit:2000 () in
    Source_policy.best (Config.source config flow.Flow.src) g paths

(* A random internet whose policies hit every case the bounds must
   respect: generated fine-grained terms; ADs (stubs among them) given
   a term that constrains its previous and next hops, built by
   [Policy_term.make] as [Codec] loads terms, alone or beside a
   hop-free one; transit ADs closed to transit; and sources that avoid
   transit ADs. *)
let oracle_internet ~size ~seed =
  let g = (Pr_core.Scenario.for_size ~target_ads:size ~seed ()).Pr_core.Scenario.graph in
  let n = Graph.n g and rng = Rng.create (seed + 17) in
  let base =
    Gen.generate rng g
      { Gen.restrictiveness = 0.5; granularity = Gen.Fine; source_policy_prob = 0.3 }
  in
  let some ids = Array.of_list (List.filter (fun _ -> Rng.int rng 3 > 0) ids) in
  let hop_term ad =
    let nbrs = Graph.neighbor_ids g ad in
    let next_hops =
      match nbrs with [] -> Policy_term.Any | _ -> Policy_term.Except [| Rng.choose rng nbrs |]
    in
    Policy_term.make ~owner:ad ~prev_hops:(Policy_term.Only (some nbrs)) ~next_hops ()
  in
  let transit =
    Array.init n (fun ad ->
        let own = Config.transit base ad in
        match Rng.int rng 6 with
        | 0 -> Transit_policy.make ad [ hop_term ad ]
        | 1 -> Transit_policy.make ad (hop_term ad :: own.Transit_policy.terms)
        | 2 when Ad.is_transit_capable (Graph.ad g ad) -> Transit_policy.no_transit ad
        | _ -> own)
  in
  let transit_ids = Array.of_list (Graph.transit_ids g) in
  let source =
    Array.init n (fun ad ->
        if Rng.int rng 3 = 0 && Array.length transit_ids > 0 then
          Some
            (Source_policy.make ~owner:ad
               ~avoid:(List.init (1 + Rng.int rng 3) (fun _ -> Rng.choose_array rng transit_ids))
               ())
        else if Config.has_source_policy base ad then Some (Config.source base ad)
        else None)
  in
  (g, Config.make ~transit ~source ())

(* Flows with every endpoint case: src = dst, stub to stub, and any
   pair, in random classes. *)
let oracle_flows g rng ~count =
  let n = Graph.n g in
  let stubs =
    Array.of_list
      (List.filter (fun ad -> not (Ad.is_transit_capable (Graph.ad g ad))) (List.init n Fun.id))
  in
  List.init count (fun q ->
      let src, dst =
        match q mod 4 with
        | 0 ->
          let a = Rng.int rng n in
          (a, a)
        | 1 when Array.length stubs > 1 -> (Rng.choose_array rng stubs, Rng.choose_array rng stubs)
        | _ -> (Rng.int rng n, Rng.int rng n)
      in
      Flow.make ~src ~dst ~qos:(Rng.choose rng Qos.all) ~uci:(Rng.choose rng Uci.all)
        ~hour:(Rng.int rng 24) ~authenticated:(Rng.bool rng) ())

let bounded_oracle_matches_unbounded =
  QCheck.Test.make ~name:"the bounded oracle answers as the unbounded search" ~count:40
    QCheck.(pair (int_range 14 300) small_int)
    (fun (size, seed) ->
      let g, c = oracle_internet ~size ~seed in
      let bad = ref None in
      List.iter
        (fun (f : Flow.t) ->
          let differs what =
            if !bad = None then
              bad := Some (Printf.sprintf "%s %d -> %d" what f.Flow.src f.Flow.dst)
          in
          if
            Validate.shortest_legal g c f ()
            <> reference_shortest_legal g c f ~apply_source_policy:false
          then differs "shortest_legal";
          if Validate.shortest_legal g c f ~apply_source_policy:true ()
             <> reference_shortest_legal g c f ~apply_source_policy:true
          then differs "shortest_legal with source policy";
          List.iter
            (fun max_hops ->
              if Validate.route_exists g c f ~max_hops <> reference_route_exists g c f ~max_hops
              then differs (Printf.sprintf "route_exists within %d hops" max_hops);
              if Validate.best_legal g c f ~max_hops <> reference_best_legal g c f ~max_hops then
                differs (Printf.sprintf "best_legal within %d hops" max_hops))
            [ 3; 12 ])
        (oracle_flows g (Rng.create seed) ~count:24);
      match !bad with Some m -> QCheck.Test.fail_report m | None -> true)

(* At 10^3 ADs, the classification E9 makes per flow ([best_legal],
   then [route_exists]) settles a small fraction of the unbounded
   search's states: the labels leave out the ADs with no term. *)
let oracle_states_at_scale () =
  let sc = Pr_core.Scenario.for_size ~target_ads:1000 ~seed:1 () in
  let g = sc.Pr_core.Scenario.graph and c = sc.Pr_core.Scenario.config in
  let flows = Pr_core.Scenario.flows sc ~rng:(Rng.create 2) ~count:100 () in
  let before = Validate.searched_states () and unbounded = ref 0 in
  List.iter
    (fun (f : Flow.t) ->
      let best = Validate.best_legal g c f ~max_hops:12 in
      check_bool "best_legal" true (best = reference_best_legal g c f ~max_hops:12);
      check_bool "route_exists" true
        (Validate.route_exists g c f ~max_hops:12 = reference_route_exists g c f ~max_hops:12);
      let policy = Config.source c f.Flow.src in
      List.iter
        (fun avoid -> unbounded := !unbounded + snd (reference_state_search g c f ~avoid))
        [ policy.Source_policy.avoid; [] ])
    flows;
  let bounded = Validate.searched_states () - before in
  check_bool "bounded states <= 10% of unbounded" true (bounded * 10 <= !unbounded);
  check_int "unbounded states" 96690 !unbounded;
  check_int "bounded states, both passes" 3680 bounded

(* --- Compiled engine ------------------------------------------------ *)

(* The compiled engine's whole contract is observational equivalence
   with the interpreted term walk, so these properties generate term
   lists that hit every compilation edge: empty Only/Except arrays,
   out-of-universe ids (dropped from the bitsets), unsorted duplicate
   id lists (sorted by [make], duplicates kept for byte accounting),
   wrap-around hour windows, and auth-required terms. *)

let universe = 14

let gen_pred_full =
  QCheck.Gen.(
    frequency
      [
        (3, return Policy_term.Any);
        (1, return (Policy_term.Only [||]));
        (1, return (Policy_term.Except [||]));
        ( 3,
          map
            (fun l -> Policy_term.Only (Array.of_list l))
            (list_size (int_range 1 6) (int_range 0 20)) );
        ( 3,
          map
            (fun l -> Policy_term.Except (Array.of_list l))
            (list_size (int_range 1 6) (int_range 0 20)) );
      ])

let gen_subset all =
  QCheck.Gen.(
    map
      (fun mask ->
        match List.filteri (fun i _ -> (mask lsr i) land 1 = 1) all with
        | [] -> all
        | l -> l)
      (int_range 0 ((1 lsl List.length all) - 1)))

let gen_hours =
  QCheck.Gen.(
    frequency
      [
        (2, return None);
        ( 3,
          map2
            (fun a b -> if a = b then None else Some (a, b))
            (int_range 0 23) (int_range 0 23) );
      ])

let gen_term =
  QCheck.Gen.(
    map
      (fun ((src, dst, prev, next), qos, ucis, (hours, auth)) ->
        Policy_term.make ~owner:5 ~sources:src ~destinations:dst ~prev_hops:prev
          ~next_hops:next ~qos ~ucis ?hours ~auth_required:auth ())
      (tup4
         (tup4 gen_pred_full gen_pred_full gen_pred_full gen_pred_full)
         (gen_subset Qos.all) (gen_subset Uci.all)
         (tup2 gen_hours bool)))

let gen_terms = QCheck.Gen.(list_size (int_range 0 5) gen_term)

let compiled_allows_matches_interpreted =
  QCheck.Test.make ~name:"Compiled.allows agrees with Transit_policy.allows" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_terms gen_ctx))
    (fun (terms, ctx) ->
      let policy = Transit_policy.make 5 terms in
      let compiled = Compiled.compile ~n:universe terms in
      let expect = Transit_policy.allows policy ctx in
      Compiled.allows compiled ctx = expect
      && Compiled.allows_crossing compiled ctx.Policy_term.flow
           ~prev:(Compiled.hop ctx.Policy_term.prev) ~next:(Compiled.hop ctx.Policy_term.next)
         = expect)

let compiled_admitting_term_matches =
  QCheck.Test.make ~name:"Compiled.admitting_term picks the same term" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_terms gen_ctx))
    (fun (terms, ctx) ->
      let policy = Transit_policy.make 5 terms in
      let compiled = Compiled.compile ~n:universe terms in
      Compiled.admitting_term compiled ctx = Transit_policy.admitting_term policy ctx)

let spec_matches_full_probe =
  QCheck.Test.make ~name:"flow-specialized probe agrees with the full compiled probe"
    ~count:500
    (QCheck.make QCheck.Gen.(pair gen_terms gen_ctx))
    (fun (terms, ctx) ->
      let compiled = Compiled.compile ~n:universe terms in
      let spec = Compiled.specialize compiled ctx.Policy_term.flow in
      let s =
        Compiled.spec_allows spec ~prev:(Compiled.hop ctx.Policy_term.prev)
          ~next:(Compiled.hop ctx.Policy_term.next)
      in
      s = Compiled.allows compiled ctx && s = Transit_policy.allows (Transit_policy.make 5 terms) ctx)

(* The list-built specialization that the count-then-fill one
   replaced, over the exported term views: the terms whose flow-only
   conditions pass, their prev/next predicates in term order. *)
let list_specialize compiled (f : Flow.t) =
  let probe (p : Compiled.pred) ad =
    (ad >= 0 && ad < Bitset.capacity p.Compiled.bits && Bitset.mem p.Compiled.bits ad)
    <> p.Compiled.compl
  in
  let qbit = 1 lsl Qos.index f.Flow.qos
  and ubit = 1 lsl Uci.index f.Flow.uci
  and hbit = 1 lsl f.Flow.hour in
  let live =
    Array.to_list (Compiled.term_views compiled)
    |> List.filter (fun (v : Compiled.term_view) ->
           v.Compiled.v_qos_mask land qbit <> 0
           && v.Compiled.v_uci_mask land ubit <> 0
           && v.Compiled.v_hour_mask land hbit <> 0
           && ((not v.Compiled.v_auth_required) || f.Flow.authenticated)
           && probe v.Compiled.v_dst f.Flow.dst
           && probe v.Compiled.v_src f.Flow.src)
  in
  fun ~prev ~next ->
    List.exists
      (fun (v : Compiled.term_view) ->
        (prev < 0 || probe v.Compiled.v_prev prev) && (next < 0 || probe v.Compiled.v_next next))
      live

(* Term lists that mix hop-free terms (both hops [Any]) with the
   generated ones in any order: a surviving hop-free term makes the
   spec admit every crossing, wherever it stands. *)
let gen_mixed_terms =
  QCheck.Gen.(
    list_size (int_range 1 5)
      (map2
         (fun t free ->
           if free then
             { t with Policy_term.prev_hops = Policy_term.Any; next_hops = Policy_term.Any }
           else t)
         gen_term bool))

let specialize_matches_list_built =
  QCheck.Test.make ~name:"specialize equals the list-built specialization" ~count:500
    (QCheck.make QCheck.Gen.(pair (oneof [ gen_terms; gen_mixed_terms ]) gen_ctx))
    (fun (terms, ctx) ->
      let compiled = Compiled.compile ~n:universe terms in
      let flow = ctx.Policy_term.flow in
      let spec = Compiled.specialize compiled flow and want = list_specialize compiled flow in
      let hops = List.init (universe + 3) (fun i -> i - 1) in
      List.for_all
        (fun prev ->
          List.for_all
            (fun next -> Compiled.spec_allows spec ~prev ~next = want ~prev ~next)
            hops)
        hops)

(* A hop-free term that survives specialization leaves nothing to
   probe per crossing: the spec is shared, and building it allocates
   nothing. *)
let hop_free_spec_allocates_nothing () =
  let hops = Policy_term.Only [| 1; 2 |] in
  let constrained = Policy_term.make ~owner:5 ~prev_hops:hops ~next_hops:hops () in
  let compiled = Compiled.compile ~n:universe [ constrained; Policy_term.open_term 5 ] in
  let flow = Flow.make ~src:0 ~dst:9 () in
  let spec = ref (Compiled.specialize compiled flow) in
  check_bool "admits a crossing no constrained term does" true
    (Compiled.spec_allows !spec ~prev:7 ~next:8);
  let words = Pr_telemetry.Alloc.words (fun () -> spec := Compiled.specialize compiled flow) in
  check_bool (Printf.sprintf "specialize allocated %.0f words" words) true (words = 0.0)

let admitted_sources_matches_scan =
  QCheck.Test.make
    ~name:"admitted_sources_into equals the per-source interpreted scan" ~count:200
    (QCheck.make
       QCheck.Gen.(
         tup5 gen_terms (int_range 0 13)
           (tup2 (int_range 0 (Qos.count - 1)) (int_range 0 (Uci.count - 1)))
           (int_range (-1) 13) (int_range (-1) 13)))
    (fun (terms, dst, (qi, ui), prev, next) ->
      let qos = Qos.of_index qi and uci = Uci.of_index ui in
      let prev = if prev < 0 then None else Some prev in
      let next = if next < 0 then None else Some next in
      let compiled = Compiled.compile ~n:universe terms in
      let acc = Bitset.create universe in
      Compiled.admitted_sources_into compiled acc ~dst ~qos ~uci ~hour:12 ~auth:false
        ~prev ~next;
      let policy = Transit_policy.make 5 terms in
      List.for_all
        (fun src ->
          let flow = Flow.make ~src ~dst ~qos ~uci () in
          Bitset.mem acc src
          = Transit_policy.allows policy { Policy_term.flow; prev; next })
        (List.init universe Fun.id))

let pt_hours_degenerate () =
  Alcotest.check_raises "empty window rejected"
    (Invalid_argument "Policy_term.make: empty hour window") (fun () ->
      ignore (Policy_term.make ~owner:5 ~hours:(7, 7) ()));
  for h = 0 to 23 do
    check_bool "degenerate window admits no hour" false
      (Policy_term.hour_in_window (Some (3, 3)) h)
  done;
  (* Wrap-around window: inside on both sides of midnight, outside
     in the middle of the day. *)
  check_bool "wrap before midnight" true (Policy_term.hour_in_window (Some (22, 6)) 23);
  check_bool "wrap after midnight" true (Policy_term.hour_in_window (Some (22, 6)) 5);
  check_bool "wrap end exclusive" false (Policy_term.hour_in_window (Some (22, 6)) 6);
  check_bool "wrap midday outside" false (Policy_term.hour_in_window (Some (22, 6)) 12)

let transit_bytes_cached () =
  let t1 = Policy_term.make ~owner:3 ~sources:(Policy_term.Only [| 4; 1; 2 |]) () in
  let t2 = Policy_term.make ~owner:3 ~destinations:(Policy_term.Except [| 9 |]) () in
  (* Pinned PT sizes: 8-byte fixed part + 2 bytes per listed id. *)
  check_int "3-id predicate" (8 + (2 * 3)) (Policy_term.advertisement_bytes t1);
  check_int "1-id predicate" (8 + (2 * 1)) (Policy_term.advertisement_bytes t2);
  let p = Transit_policy.make 3 [ t1; t2 ] in
  check_int "cached policy bytes are the term sum"
    (Policy_term.advertisement_bytes t1 + Policy_term.advertisement_bytes t2)
    (Transit_policy.advertisement_bytes p);
  check_int "no_transit advertises nothing" 0
    (Transit_policy.advertisement_bytes (Transit_policy.no_transit 1))

let store_memo_and_version () =
  let g = Figure1.graph () in
  let c = Config.defaults g in
  check_bool "of_config memoized" true
    (Policy_store.of_config c == Policy_store.of_config c);
  let store = Policy_store.create c in
  check_bool "create is private" true (store != Policy_store.of_config c);
  check_int "n" 14 (Policy_store.n store);
  check_int "fresh version" 0 (Policy_store.version store);
  (* Backbone 0 is open transit under the class-implied defaults. *)
  let crossing = ctx ~src:7 ~dst:8 ~prev:2 ~next:3 () in
  check_bool "open transit admits" true (Policy_store.allows store 0 crossing);
  check_bool "admitting term cited" true
    (Policy_store.admitting_term store 0 crossing <> None);
  Policy_store.set_transit store 0 (Transit_policy.no_transit 0);
  check_int "version bumped" 1 (Policy_store.version store);
  check_bool "recompiled after mutation" false (Policy_store.allows store 0 crossing);
  check_bool "shared store unaffected" true
    (Policy_store.allows (Policy_store.of_config c) 0 crossing)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "pr_policy"
    [
      ( "qos-uci",
        [
          Alcotest.test_case "qos roundtrip" `Quick qos_roundtrip;
          Alcotest.test_case "uci roundtrip" `Quick uci_roundtrip;
        ] );
      ( "flow",
        [
          Alcotest.test_case "basics" `Quick flow_basics;
          Alcotest.test_case "class keys" `Quick flow_class_keys;
        ]
        @ qsuite [ flow_class_with_source ] );
      ( "policy-term",
        [
          Alcotest.test_case "open term" `Quick pt_open;
          Alcotest.test_case "source predicate" `Quick pt_source_pred;
          Alcotest.test_case "hop predicates" `Quick pt_hop_preds;
          Alcotest.test_case "qos/uci" `Quick pt_qos_uci;
          Alcotest.test_case "hour windows" `Quick pt_hours;
          Alcotest.test_case "degenerate hour windows" `Quick pt_hours_degenerate;
          Alcotest.test_case "authentication" `Quick pt_auth;
          Alcotest.test_case "byte accounting" `Quick pt_bytes;
        ]
        @ qsuite [ sort_pred_matches_sort ] );
      ( "transit-policy",
        [
          Alcotest.test_case "semantics" `Quick transit_policy_semantics;
          Alcotest.test_case "any-term disjunction" `Quick transit_policy_any_term;
          Alcotest.test_case "advertisement bytes cached" `Quick transit_bytes_cached;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "store memo and versioning" `Quick store_memo_and_version;
          Alcotest.test_case "hop-free spec allocates nothing" `Quick
            hop_free_spec_allocates_nothing;
        ]
        @ qsuite
            [
              compiled_allows_matches_interpreted;
              compiled_admitting_term_matches;
              spec_matches_full_probe;
              specialize_matches_list_built;
              admitted_sources_matches_scan;
            ] );
      ( "source-policy",
        [
          Alcotest.test_case "permits" `Quick source_policy_permits;
          Alcotest.test_case "best" `Quick source_policy_best;
          Alcotest.test_case "score" `Quick source_policy_score;
        ] );
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick config_defaults;
          Alcotest.test_case "validation" `Quick config_validation;
        ] );
      ( "gen",
        [
          Alcotest.test_case "zero restrictiveness open" `Quick gen_zero_restrictiveness_is_open;
          Alcotest.test_case "deterministic" `Quick gen_deterministic;
        ]
        @ qsuite
            [ gen_stubs_never_transit; gen_fine_means_more_terms; gen_matches_reference ] );
      ( "validate",
        [
          Alcotest.test_case "open config verdicts" `Quick oracle_open_config;
          Alcotest.test_case "source refusal" `Quick oracle_source_refusal;
          Alcotest.test_case "enumeration matches brute force" `Quick
            oracle_enumeration_matches_unconstrained;
          Alcotest.test_case "route exists" `Quick oracle_route_exists;
          Alcotest.test_case "best legal" `Quick oracle_best_legal;
          Alcotest.test_case "at 10^4 ADs" `Quick oracle_at_ten_thousand_ads;
          Alcotest.test_case "states at 10^3 ADs" `Quick oracle_states_at_scale;
        ]
        @ qsuite
            [
              oracle_qcheck_consistency;
              oracle_dijkstra_matches_enumeration;
              bounded_oracle_matches_unbounded;
              pt_open_admits_everything;
              pt_only_except_complement;
              pt_restriction_monotone;
              hour_window_complement;
              transit_union_monotone;
              opening_a_policy_never_loses_a_route;
            ] );
    ]
