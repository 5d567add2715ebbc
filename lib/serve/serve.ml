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
module Spf = Pr_topology.Spf
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
  view : Policy_search.view;
  scratch : Policy_search.scratch;
  slot_metric : int array array;
      (* per QOS class, per graph slot: the metric of the AD pair's
         cheapest link, all links up. Folding over the live links on
         every relaxation instead halves query throughput at 10^4 ADs. *)
  single_link : int array;  (* per slot: its link when it has one, else -1 *)
  labels : (int, int array) Lru.t;
      (* key: (dst, QOS) packed; per AD, its [slot_metric] distance to
         dst ([max_int] if none): the search's lower bound *)
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
  mutable bound_builds : int;
  (* Registry handles resolved once at creation; the query path never
     hashes a metric name. These shadow the per-server counters above
     into the process-global registry so campaign shards and the
     daemon can snapshot/merge them. *)
  m_queries : Reg.counter;
  m_route_hits : Reg.counter;
  m_route_misses : Reg.counter;
  m_handle_hits : Reg.counter;
  m_handle_misses : Reg.counter;
  m_no_routes : Reg.counter;
  m_handles_issued : Reg.counter;
  m_handle_evictions : Reg.counter;
  m_search_states : Reg.counter;
  m_bound_builds : Reg.counter;
  m_bound_evictions : Reg.counter;
  m_rebuild_ns : Hist.t;
  m_pdd_nodes : Reg.gauge;
  m_pdd_preds : Reg.gauge;
}

let qos_metric qos (link : Link.t) =
  Pr_proto.Qos_metric.metric qos ~cost:link.Link.cost ~delay:link.Link.delay

(* Distinct (dst, QOS) pairs a 256-query pass of the 10^4-AD serving
   benchmark asks for: 188-211 over seeds 1-12. *)
let label_capacity = 512

let create ?(route_capacity = Some 4096) ?(handle_capacity = Some 1024)
    ?(trace = Trace.disabled) ?(link_up = fun _ -> true) ?(node_up = fun _ -> true)
    graph store =
  let view = Policy_search.of_graph graph in
  let slots = Array.length (snd (Graph.unique_csr graph)) in
  let fold_links k f = Graph.fold_slot_links graph k ~init:max_int ~f in
  {
    graph;
    store;
    pdd = Pdd.db_create store;
    link_up;
    node_up;
    view;
    scratch = Policy_search.scratch_for view;
    slot_metric =
      Array.init Qos.count (fun i ->
          let qos = Qos.of_index i in
          Array.init slots (fun k ->
              fold_links k (fun m l -> Stdlib.min m (qos_metric qos (Graph.link graph l)))));
    single_link =
      Array.init slots (fun k ->
          fold_links k (fun only l -> if only = max_int then l else -1));
    labels = Lru.create ~capacity:(Some label_capacity) ();
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
    bound_builds = 0;
    m_queries = Reg.counter Reg.default "serve.queries";
    m_route_hits = Reg.counter Reg.default "serve.route_hits";
    m_route_misses = Reg.counter Reg.default "serve.route_misses";
    m_handle_hits = Reg.counter Reg.default "serve.handle_hits";
    m_handle_misses = Reg.counter Reg.default "serve.handle_misses";
    m_no_routes = Reg.counter Reg.default "serve.no_routes";
    m_handles_issued = Reg.counter Reg.default "serve.handles_issued";
    m_handle_evictions = Reg.counter Reg.default "serve.handle_evictions";
    m_search_states = Reg.counter Reg.default "serve.search_states";
    m_bound_builds = Reg.counter Reg.default "serve.bound_builds";
    m_bound_evictions = Reg.counter Reg.default "serve.bound_evictions";
    m_rebuild_ns = Reg.histogram Reg.default "pdd.rebuild_ns";
    m_pdd_nodes = Reg.gauge Reg.default "pdd.nodes";
    m_pdd_preds = Reg.gauge Reg.default "pdd.preds";
  }

let pdd t = t.pdd

let refresh t ~now =
  let t0 = Monotonic_clock.now () in
  let k = Pdd.refresh t.pdd in
  if k > 0 then begin
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
   Dijkstra from [dst] over [slot_metric], which is symmetric (both
   slots of an AD pair fold the same links). Policy and link or node
   state only remove edges or raise a pair's metric above its cheapest
   link, so the distance bounds every admissible route's and is
   consistent; it depends on the static graph alone, so nothing ever
   invalidates it. *)
let label t qos dst =
  let key = (dst * Qos.count) + Qos.index qos in
  match Lru.find t.labels key with
  | Some h -> h
  | None ->
      let static = t.slot_metric.(Qos.index qos) in
      let relax u f = Policy_search.iter_row t.view u ~f:(fun w k -> f w static.(k)) in
      let h = (fst (Spf.search ~n:(Graph.n t.graph) ~src:dst ~relax ())).Spf.dist in
      Array.iteri (fun v d -> if d < 0 then h.(v) <- max_int) h;
      t.bound_builds <- t.bound_builds + 1;
      Reg.inc t.m_bound_builds;
      if Lru.put t.labels key h <> None then Reg.inc t.m_bound_evictions;
      h

(* Exact (node, arrived-from) policy search over the configured graph
   under the live link/node state, with admission resolved through the
   diagram snapshot: one [Pdd.flow_entry] per touched AD, then at most
   a few predicate probes per edge relaxation. An edge's metric is its
   cheapest up parallel link under the flow's QOS: a table read when
   the AD pair has a single link. The destination's label bounds the
   search (see [Policy_search.search]): the route is the unbounded
   search's. *)
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
  let admit v p w =
    if Policy_search.first_touch t.scratch v then
      t.entries.(v) <- Pdd.flow_entry (Pdd.root snap v) f;
    Pdd.entry_admit t.entries.(v) ~prev:p ~next:w
  in
  let src = f.Flow.src and dst = f.Flow.dst in
  let lower = if src = dst then None else Some (label t qos dst) in
  let outcome = Policy_search.search t.scratch t.view ~src ~dst ?lower ~metric ~admit () in
  let states = Policy_search.settled t.scratch in
  t.search_states <- t.search_states + states;
  Reg.add t.m_search_states states;
  match outcome with
  | Policy_search.Route path -> Some path
  | Policy_search.Revisits | Policy_search.Unreachable -> None

let issue_handle t ~now path =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  Reg.inc t.m_handles_issued;
  (match Lru.put t.handles h path with
  | Some _evicted ->
      Reg.inc t.m_handle_evictions;
      Trace.instant t.trace ~ts:now ~tid:0 "serve.handle.evict"
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
  Reg.inc t.m_queries;
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
      Reg.inc t.m_route_hits;
      Trace.instant t.trace ~ts:now ~tid:0 "serve.query.hit";
      Route { path; handle = issue_handle t ~now path; version; cache_hit = true }
  | None -> (
      t.route_misses <- t.route_misses + 1;
      Reg.inc t.m_route_misses;
      Trace.instant t.trace ~ts:now ~tid:0 "serve.query.miss";
      match synthesize t snap f with
      | Some path ->
          ignore (Lru.put t.routes key { e_path = path; e_version = version });
          Route { path; handle = issue_handle t ~now path; version; cache_hit = false }
      | None ->
          t.no_routes <- t.no_routes + 1;
          Reg.inc t.m_no_routes;
          No_route { version })

let data t ~now ~handle =
  t.data_packets <- t.data_packets + 1;
  match Lru.find t.handles handle with
  | Some path ->
      t.handle_hits <- t.handle_hits + 1;
      Reg.inc t.m_handle_hits;
      Some path
  | None ->
      t.handle_misses <- t.handle_misses + 1;
      Reg.inc t.m_handle_misses;
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
    bound_builds = t.bound_builds;
    bound_evictions = Lru.evictions t.labels;
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
