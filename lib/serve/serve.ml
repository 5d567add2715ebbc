(* Route-server query engine (see serve.mli). *)

module Graph = Pr_topology.Graph
module Link = Pr_topology.Link
module Path = Pr_topology.Path
module Flow = Pr_policy.Flow
module Qos = Pr_policy.Qos
module Uci = Pr_policy.Uci
module Policy_store = Pr_policy.Policy_store
module Lru = Pr_util.Lru
module Policy_search = Pr_topology.Policy_search
module Trace = Pr_obs.Trace
module Reg = Pr_telemetry.Registry
module Hist = Pr_telemetry.Hist

type entry = { e_path : Path.t; e_version : int }

type t = {
  graph : Graph.t;
  store : Policy_store.t;
  pdd : Pdd.db;
  link_up : Link.id -> bool;
  node_up : Pr_topology.Ad.id -> bool;
  scratch : Policy_search.scratch;
  slot_metric : int array array;
      (* per QOS class, per graph slot: the metric of the AD pair's
         cheapest link, all links up. Folding over the live links on
         every relaxation instead halves query throughput at 10^4 ADs. *)
  single_link : int array;  (* per slot: its link when it has one, else -1 *)
  labels : Policy_search.labels;
      (* kept: the ADs that [carries] at some version [refresh] has
         seen, a set that only grows. Labels keyed by (dst, QOS)
         packed: per kept AD, its [slot_metric] distance to dst through
         kept ADs ([max_int] if none), the search's lower bound. *)
  entries : Pdd.node array;
      (* per-AD flow entries of the running search, valid where
         [Policy_search.first_touch] has fired *)
  trace : Trace.t;
  routes : (int, entry) Lru.t;  (* key: (src,dst,qos,uci,hour,auth) packed *)
  handles : (int, Path.t) Lru.t;
  mutable next_handle : int;
  mutable queries : int;
  mutable data_packets : int;
  mutable route_hits : int;
  mutable route_misses : int;
  mutable handle_hits : int;
  mutable handle_misses : int;
  mutable no_routes : int;
  mutable search_states : int;
  (* Registry handles resolved once at creation. The counters above
     reach the registry's serve.* counters once per daemon session. *)
  m_rebuild_ns : Hist.t;
  m_pdd_nodes : Reg.gauge;
  m_pdd_preds : Reg.gauge;
}

let qos_metric qos (link : Link.t) =
  Pr_proto.Qos_metric.metric qos ~cost:link.Link.cost ~delay:link.Link.delay

(* Distinct (dst, QOS) pairs a 256-query pass of the 10^4-AD serving
   benchmark asks for: 188-211 over seeds 1-12. *)
let label_capacity = 512

(* Can [u] carry transit at [snap]: transit-capable by class, or a
   diagram root other than the false leaf. *)
let carries graph snap u =
  Pr_topology.Ad.is_transit_capable (Graph.ad graph u)
  || not (Pdd.is_false_leaf (Pdd.root snap u))

let create ?(route_capacity = Some 4096) ?(handle_capacity = Some 1024)
    ?(trace = Trace.disabled) ?(link_up = fun _ -> true) ?(node_up = fun _ -> true)
    graph store =
  let full = Policy_search.of_graph graph in
  let slots = Array.length (snd (Graph.unique_csr graph)) in
  let fold_links k f = Graph.fold_slot_links graph k ~init:max_int ~f in
  let pdd = Pdd.db_create store in
  let snap = Pdd.snapshot pdd in
  {
    graph;
    store;
    pdd;
    link_up;
    node_up;
    scratch = Policy_search.scratch ();
    slot_metric =
      Array.init Qos.count (fun i ->
          let qos = Qos.of_index i in
          Array.init slots (fun k ->
              fold_links k (fun m l -> Stdlib.min m (qos_metric qos (Graph.link graph l)))));
    single_link =
      Array.init slots (fun k ->
          fold_links k (fun only l -> if only = max_int then l else -1));
    labels =
      Policy_search.labels (Policy_search.restrict full ~keep:(carries graph snap))
        ~capacity:label_capacity;
    entries = Array.make (Graph.n graph) (Pdd.leaf false);
    trace;
    routes = Lru.create ~capacity:route_capacity ();
    handles = Lru.create ~capacity:handle_capacity ();
    next_handle = 0;
    queries = 0;
    data_packets = 0;
    route_hits = 0;
    route_misses = 0;
    handle_hits = 0;
    handle_misses = 0;
    no_routes = 0;
    search_states = 0;
    m_rebuild_ns = Reg.histogram Reg.default "pdd.rebuild_ns";
    m_pdd_nodes = Reg.gauge Reg.default "pdd.nodes";
    m_pdd_preds = Reg.gauge Reg.default "pdd.preds";
  }

let pdd t = t.pdd

(* An AD joins the carrying set only through a recompiled diagram, so
   only the ADs [Pdd.refresh] recompiled are looked at. A join rebuilds
   the carrying rows and drops every label: each was built without the
   joiner. *)
let refresh t ~now =
  let t0 = Monotonic_clock.now () in
  let ads = Pdd.refresh t.pdd in
  let k = List.length ads in
  if k > 0 then begin
    let snap = Pdd.snapshot t.pdd in
    List.iter
      (fun u ->
        if carries t.graph snap u then Policy_search.join t.labels u)
      ads;
    let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
    Hist.record t.m_rebuild_ns dt;
    let store = Pdd.db_store t.pdd in
    Reg.set t.m_pdd_nodes (float_of_int (Pdd.store_nodes store));
    Reg.set t.m_pdd_preds (float_of_int (Pdd.store_preds store));
    Trace.instant t.trace ~ts:now ~tid:0 "serve.rebuild";
    Trace.counter t.trace ~ts:now ~tid:0 ~value:(float_of_int k) "serve.rebuilt_ads"
  end;
  k

let snapshot t = Pdd.snapshot t.pdd

(* The route-cache key packs every flow attribute admission can see.
   n <= 10^5 and 63-bit ints leave ample headroom. *)
let route_key t (f : Flow.t) =
  let n = Graph.n t.graph in
  let k = (f.Flow.src * n) + f.Flow.dst in
  let k = (k * Qos.count) + Qos.index f.Flow.qos in
  let k = (k * Uci.count) + Uci.index f.Flow.uci in
  let k = (k * 24) + f.Flow.hour in
  (k * 2) + if f.Flow.authenticated then 1 else 0

(* Is the cached path still usable: every AD up, every consecutive
   pair joined by an up link? (Policy validity is covered by the
   version check — same database version, same admissions.) *)
let path_live t path =
  let rec go = function
    | [] -> true
    | [ last ] -> t.node_up last
    | a :: (b :: _ as rest) ->
        t.node_up a
        && Graph.fold_neighbors t.graph a ~init:false ~f:(fun acc v l ->
               acc || (v = b && t.link_up l))
        && go rest
  in
  go path

type answer =
  | Route of { path : Path.t; handle : int; version : int; cache_hit : bool }
  | No_route of { version : int }

(* The search's lower bound toward [dst] under [qos]: one node-level
   Dijkstra toward [dst] over [slot_metric], through the carrying ADs
   only ([Policy_search.label]). An AD outside the carrying set admits
   nothing at any snapshot a query can pin, so no route crosses it; it
   stands for [max_int] unless it is dst, and the search never pushes
   a state there — such a state could never push one in turn, so the
   other states keep their relative order and the route is the
   unbounded search's. Policy and link or node state only remove edges
   or raise a pair's metric above its cheapest link, so the distance
   bounds every admissible route's and is consistent. It stays valid
   until an AD joins the set. *)
let label t qos dst =
  Policy_search.label t.labels ~key:((dst * Qos.count) + Qos.index qos) ~dst
    ~metric:t.slot_metric.(Qos.index qos)

(* Exact (node, arrived-from) policy search over the configured graph
   under the live link/node state, with admission resolved through the
   diagram snapshot: one [Pdd.flow_entry] per touched AD, then at most
   a few predicate probes per edge relaxation. An edge's metric is its
   cheapest up parallel link under the flow's QOS: a table read when
   the AD pair has a single link. The destination's label bounds the
   search (see [Policy_search.search]): the route is the unbounded
   search's. The label covers the carrying ADs only, so the search
   walks their rows; it skips the row of an AD whose flow entry
   is the false leaf, which admits no crossing. *)
let synthesize t snap (f : Flow.t) =
  let g = t.graph and qos = f.Flow.qos and link_up = t.link_up and node_up = t.node_up in
  let static = t.slot_metric.(Qos.index qos) and single = t.single_link in
  let cheapest m l =
    if link_up l then Stdlib.min m (qos_metric qos (Graph.link g l)) else m
  in
  let metric v w k =
    if node_up v && node_up w then begin
      let l = single.(k) in
      if l >= 0 then if link_up l then static.(k) else -1
      else begin
        let m = Graph.fold_slot_links g k ~init:max_int ~f:cheapest in
        if m = max_int then -1 else m
      end
    end
    else -1
  in
  let entry v =
    if Policy_search.first_touch t.scratch v then
      t.entries.(v) <- Pdd.flow_entry (Pdd.root snap v) f;
    t.entries.(v)
  in
  let admit v p w = Pdd.entry_admit (entry v) ~prev:p ~next:w in
  let refuses v = Pdd.is_false_leaf (entry v) in
  let src = f.Flow.src and dst = f.Flow.dst in
  let lower = if src = dst then None else Some (label t qos dst) in
  let outcome =
    Policy_search.search t.scratch (Policy_search.carrying t.labels) ~src ~dst ?lower ~refuses
      ~metric ~admit ()
  in
  let states = Policy_search.settled t.scratch in
  t.search_states <- t.search_states + states;
  match outcome with
  | Policy_search.Route path -> Some path
  | Policy_search.Revisits | Policy_search.Unreachable -> None

let issue_handle t ~now path =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  (match Lru.put t.handles h path with
  | Some _evicted -> Trace.instant t.trace ~ts:now ~tid:0 "serve.handle.evict"
  | None -> ());
  Trace.counter t.trace ~ts:now ~tid:0
    ~value:(float_of_int (Lru.length t.handles))
    "serve.handles";
  h

let cache_ready t ~snap (f : Flow.t) =
  match Lru.peek t.routes (route_key t f) with
  | Some e -> e.e_version = Pdd.snapshot_version snap && path_live t e.e_path
  | None -> false

let query ?snap t ~now (f : Flow.t) =
  t.queries <- t.queries + 1;
  (* Pin one snapshot for every read this query makes: a concurrent
     set_transit + refresh publishes a new roots array but never
     mutates this one, so the answer is wholly from one version. *)
  let snap = match snap with Some s -> s | None -> Pdd.snapshot t.pdd in
  let version = Pdd.snapshot_version snap in
  let key = route_key t f in
  let cached =
    match Lru.find t.routes key with
    | Some e when e.e_version = version && path_live t e.e_path -> Some e.e_path
    | _ -> None
  in
  match cached with
  | Some path ->
      t.route_hits <- t.route_hits + 1;
      Trace.instant t.trace ~ts:now ~tid:0 "serve.query.hit";
      Route { path; handle = issue_handle t ~now path; version; cache_hit = true }
  | None -> (
      t.route_misses <- t.route_misses + 1;
      Trace.instant t.trace ~ts:now ~tid:0 "serve.query.miss";
      match synthesize t snap f with
      | Some path ->
          ignore (Lru.put t.routes key { e_path = path; e_version = version });
          Route { path; handle = issue_handle t ~now path; version; cache_hit = false }
      | None ->
          t.no_routes <- t.no_routes + 1;
          No_route { version })

let data t ~now ~handle =
  t.data_packets <- t.data_packets + 1;
  match Lru.find t.handles handle with
  | Some path ->
      t.handle_hits <- t.handle_hits + 1;
      Some path
  | None ->
      t.handle_misses <- t.handle_misses + 1;
      Trace.instant t.trace ~ts:now ~tid:0 "serve.handle.stale";
      None

type stats = {
  queries : int;
  data_packets : int;
  route_hits : int;
  route_misses : int;
  route_evictions : int;
  handle_hits : int;
  handle_misses : int;
  handle_evictions : int;
  handles_issued : int;
  handles_live : int;
  no_routes : int;
  rebuilds : int;
  rebuilt_ads : int;
  search_states : int;
  bound_builds : int;
  bound_evictions : int;
}

let stats (t : t) =
  {
    queries = t.queries;
    data_packets = t.data_packets;
    route_hits = t.route_hits;
    route_misses = t.route_misses;
    route_evictions = Lru.evictions t.routes;
    handle_hits = t.handle_hits;
    handle_misses = t.handle_misses;
    handle_evictions = Lru.evictions t.handles;
    handles_issued = t.next_handle;
    handles_live = Lru.length t.handles;
    no_routes = t.no_routes;
    rebuilds = Pdd.rebuilds t.pdd;
    rebuilt_ads = Pdd.rebuilt_ads t.pdd;
    search_states = t.search_states;
    bound_builds = Policy_search.label_builds t.labels;
    bound_evictions = Policy_search.label_evictions t.labels;
  }

let self_check t =
  let ( let* ) = Result.bind in
  let label l = Result.map_error (fun e -> l ^ ": " ^ e) in
  let* () = label "route cache" (Lru.self_check t.routes) in
  let* () = label "handle table" (Lru.self_check t.handles) in
  let live = Lru.length t.handles and evicted = Lru.evictions t.handles in
  if live + evicted <> t.next_handle then
    Error
      (Printf.sprintf "handle leak: issued %d but live %d + evicted %d" t.next_handle
         live evicted)
  else Ok ()
