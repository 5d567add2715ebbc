module Graph = Pr_topology.Graph
module Path = Pr_topology.Path
module Network = Pr_sim.Network
module Metrics = Pr_sim.Metrics
module Flow = Pr_policy.Flow
module Config = Pr_policy.Config
module Policy_term = Pr_policy.Policy_term
module Transit_policy = Pr_policy.Transit_policy
module Source_policy = Pr_policy.Source_policy
module Policy_store = Pr_policy.Policy_store
module Lru = Pr_util.Lru
module Packet = Pr_proto.Packet
module Cost_model = Pr_proto.Cost_model
module Lsdb = Pr_proto.Lsdb
module Ls_flood = Pr_proto.Ls_flood
module Policy_route = Pr_proto.Policy_route
module Design_point = Pr_proto.Design_point

let probe_synth = Pr_proto.Probe.make "orwg.synth"
let probe_validate = Pr_proto.Probe.make "orwg.validate"

type message = Lsdb.lsa

module type VARIANT = sig
  val name : string

  val use_handles : bool

  val pg_capacity : int option
  (** Bound on setup-state entries per policy gateway; [None] =
      unbounded. When a bounded gateway evicts the least recently used
      handle, later packets on that handle are dropped at the gateway,
      which notifies the source to re-set-up (the state-management
      limitation of paper §6). *)

  val pr_capacity : int option
  (** Bound on policy routes cached per route server; [None] =
      unbounded. Same LRU policy as the gateway handle tables: under
      sustained churn an unbounded route cache grows without limit, so
      the deployable variants bound it and count evictions in
      {!Pr_sim.Metrics}. *)

  val setup_retries : int
  (** How many times the route server re-synthesizes around an AD that
      refused a setup (stale databases make refusals possible). *)

  val delegate_stub_route_servers : bool
  (** Database distribution strategy (paper section 6): when true, LSAs
      flood only among transit-capable ADs; stub sources delegate route
      synthesis to their provider's route server (two extra control
      messages per synthesis). *)

  val prune_synthesis : bool
  (** Synthesis heuristic (paper section 6): an optimistic node-level
      search first, falling back to the exact search only when a
      hop-constrained term rejects its route. *)
end

module type S = sig
  include Pr_proto.Protocol_intf.PROTOCOL with type message = message

  val max_route_hops : int

  val cached_route :
    t -> src:Pr_topology.Ad.id -> dst:Pr_topology.Ad.id -> Flow.t -> Path.t option

  val precompute_flows : t -> Flow.t list -> int

  val pg_entries : t -> Pr_topology.Ad.id -> int

  val route_cache_entries : t -> Pr_topology.Ad.id -> int

  val validations : t -> Pr_topology.Ad.id -> int

  val evictions : t -> Pr_topology.Ad.id -> int

  val route_evictions : t -> Pr_topology.Ad.id -> int

  val set_policy : t -> Transit_policy.t -> unit

  val current_policy : t -> Pr_topology.Ad.id -> Transit_policy.t

  val route_server_of : t -> Pr_topology.Ad.id -> Pr_topology.Ad.id

  val db_entries : t -> Pr_topology.Ad.id -> int
end

module Make (V : VARIANT) = struct
  type nonrec message = message

  let max_route_hops = 12

  type pg_entry = {
    prev : Pr_topology.Ad.id option;  (* AD the packet must arrive from *)
    next : Pr_topology.Ad.id option;  (* AD to hand the packet to; None = deliver *)
  }

  type pr_entry = { path : Path.t; handle : int }

  (* Both per-node caches are LRU ({!Pr_util.Lru}): the policy
     gateway's handle table was always evict-least-recently-used when
     bounded, and the route server's cache now shares the same policy
     instead of growing without limit under sustained churn. Eviction
     counts live in the Lru structures (lifetime counters surviving
     [reset_node]) and are mirrored into {!Pr_sim.Metrics}. *)
  type node = {
    (* Route server: (dst, class) -> installed policy route. *)
    pr_cache : (int * int, pr_entry) Lru.t;
    (* Policy gateway: handle -> cached setup state. *)
    pg_cache : (int, pg_entry) Lru.t;
    mutable validations : int;
  }

  type t = {
    graph : Graph.t;
    config : Config.t;
    net : message Network.t;
    flood : Ls_flood.t;
    nodes : node array;
    (* Live local policies (paper section 2.3: policies change,
       slowly). A private version-keyed store over the configuration:
       [set_policy] mutates it, the rest of the internet learns the
       replacement from the re-originated LSA. Private — a shared
       {!Policy_store.of_config} store must never see mutations. *)
    store : Policy_store.t;
    (* The route server each AD uses: itself, or its provider under
       stub delegation. *)
    route_server : Pr_topology.Ad.id array;
    mutable next_handle : int;
  }

  let name = V.name

  let design_point =
    Design_point.make Design_point.Link_state Design_point.Source_routing
      Design_point.Policy_terms

  (* Does the route server's database still support this path? Used to
     invalidate cached policy routes when LSAs arrive. *)
  let path_supported db ~n flow path =
    let e = Policy_route.engine db ~n flow in
    let rec ok prev = function
      | [] | [ _ ] -> true
      | a :: (b :: _ as rest) ->
        Lsdb.bidirectional db a b <> None
        && (prev < 0 || Policy_route.admits e a ~prev ~next:b)
        && ok a rest
    in
    match path with
    | [] -> false
    | first :: _ -> first = flow.Flow.src && ok (-1) path

  let create graph config net =
    let n = Graph.n graph in
    let store = Policy_store.create config in
    let terms_for ad = (Policy_store.transit store ad).Transit_policy.terms in
    let transit_capable ad = Pr_topology.Ad.is_transit_capable (Graph.ad graph ad) in
    let flood =
      if V.delegate_stub_route_servers then
        Ls_flood.create net ~terms_for ~flood_to:transit_capable ()
      else Ls_flood.create net ~terms_for ()
    in
    let route_server =
      Array.init n (fun ad ->
          if (not V.delegate_stub_route_servers) || transit_capable ad then ad
          else
            (* First transit-capable neighbor: the provider. Stubs in
               generated and Figure-1 topologies always have one. *)
            match
              List.find_opt transit_capable (Graph.neighbor_ids graph ad)
            with
            | Some provider -> provider
            | None -> ad)
    in
    let t =
      {
        graph;
        config;
        net;
        flood;
        store;
        route_server;
        nodes =
          Array.init n (fun _ ->
              {
                pr_cache = Lru.create ~capacity:V.pr_capacity ();
                pg_cache = Lru.create ~capacity:V.pg_capacity ();
                validations = 0;
              });
        next_handle = 1;
      }
    in
    Ls_flood.set_on_change flood (fun ad ~origin ->
        (* Route servers adapt: drop cached routes the new database no
           longer supports. PG setup state is NOT flushed — stale
           gateway state is a real cost of the architecture (§6).
           The revalidation is delta-scoped: a change to one origin's
           LSA can only invalidate routes that origin sits on —
           adjacency support and transit admission are both decided by
           the LSAs of the path's own members — so only those entries
           are rechecked ([None] = database reset, recheck all). Most
           ADs never set up a route, so an empty cache returns at once. *)
        let node = t.nodes.(ad) in
        if Lru.length node.pr_cache > 0 then begin
          let touches entry =
            match origin with None -> true | Some o -> List.mem o entry.path
          in
          let stale =
            Lru.fold node.pr_cache ~init:[]
              ~f:(fun acc ((dst, class_idx) as key) entry ->
                if not (touches entry) then acc
                else begin
                  let qos = Pr_policy.Qos.of_index (class_idx / Pr_policy.Uci.count) in
                  let uci = Pr_policy.Uci.of_index (class_idx mod Pr_policy.Uci.count) in
                  let flow = Flow.make ~src:ad ~dst ~qos ~uci () in
                  if path_supported (Ls_flood.db t.flood ad) ~n flow entry.path then acc
                  else key :: acc
                end)
          in
          List.iter (Lru.remove node.pr_cache) stale
        end);
    t

  (* The AD's live transit policy: whatever the private store holds
     (the configured policy until [set_policy] replaces it). *)
  let local_policy t ad = Policy_store.transit t.store ad

  (* Compiled check against the live local policy — the allocation-free
     fast path for setup validation and per-packet gateway checks. *)
  let local_allows t ad ctx = Policy_store.allows t.store ad ctx

  let set_policy t (policy : Transit_policy.t) =
    let ad = policy.Transit_policy.owner in
    Policy_store.set_transit t.store ad policy;
    (* Re-originate so the new terms flood; until the flood completes,
       remote route servers are stale and their setups may be refused
       (and retried around the refusal). *)
    Ls_flood.originate t.flood ad

  let start t = Ls_flood.start t.flood

  let handle_message t ~at ~from lsa = Ls_flood.handle_message t.flood ~at ~from lsa

  let handle_link t ~at ~link ~up = Ls_flood.handle_link t.flood ~at ~link ~up

  let reset_node t ~at =
    let node = t.nodes.(at) in
    (* Route server and policy gateway state are both lost: cached
       policy routes and handle setup state vanish. Sources forwarding
       on a vanished handle are notified and re-set-up — the
       data-driven repair of §5.4. Counters survive (they are
       lifetime gauges, not routing state). *)
    Lru.clear node.pr_cache;
    Lru.clear node.pg_cache;
    Ls_flood.reset_node t.flood at

  (* Route synthesis at the source's route server. The source applies
     its own selection criteria privately (§5.4: "it can keep these
     policies private from other ADS"). *)
  let query_bytes = Cost_model.update_fixed_bytes + 8

  let response_bytes path =
    Cost_model.update_fixed_bytes + (Cost_model.ad_id_bytes * List.length path)

  let synthesize ?(extra_avoid = []) t (flow : Flow.t) =
    let src = flow.Flow.src in
    let server = t.route_server.(src) in
    let n = Graph.n t.graph in
    let db = Ls_flood.db t.flood server in
    let engine = Policy_route.engine db ~n flow in
    let policy = Config.source t.config src in
    let avoid = extra_avoid @ policy.Source_policy.avoid in
    let charge_delegation path =
      if server <> src then begin
        (* The stub queries its provider's route server and receives
           the synthesized route back. *)
        Metrics.record_send (Network.metrics t.net) src ~bytes:query_bytes;
        Metrics.record_send (Network.metrics t.net) server
          ~bytes:(response_bytes (Option.value ~default:[] path))
      end
    in
    let shortest () =
      let path, work =
        if V.prune_synthesis then
          Policy_route.shortest_pruned engine ~avoid ()
        else Policy_route.shortest engine ~avoid ()
      in
      Pr_proto.Probe.computation probe_synth t.net ~at:server ~work ();
      charge_delegation path;
      path
    in
    if policy.Source_policy.prefer = [] && policy.Source_policy.max_hops = None then
      shortest ()
    else begin
      (* Preferences require a candidate set to choose from. *)
      let candidates =
        Policy_route.enumerate engine ~max_hops:max_route_hops ~limit:500 ()
        |> List.filter (fun p ->
               List.for_all
                 (fun ad -> not (List.mem ad (Path.transit_ads p)))
                 extra_avoid)
      in
      Pr_proto.Probe.computation probe_synth t.net ~at:server
        ~work:(Stdlib.max 1 (List.length candidates))
        ();
      match Source_policy.best policy t.graph candidates with
      | Some path ->
        charge_delegation (Some path);
        Some path
      | None -> shortest ()
    end

  (* Install setup state at a gateway; a bounded full cache evicts its
     least recently used handle, counted in Metrics. *)
  let pg_install t ad handle entry =
    match Lru.put t.nodes.(ad).pg_cache handle entry with
    | Some _victim -> Metrics.record_eviction (Network.metrics t.net) ad ()
    | None -> ()

  (* The setup packet walks the route; each policy gateway validates
     against its LOCAL policy terms and caches the state under the
     handle. Returns the refusing AD on failure. *)
  let setup t (flow : Flow.t) path =
    let handle = t.next_handle in
    t.next_handle <- handle + 1;
    let rec validate prev = function
      | [] -> Ok ()
      | ad :: rest ->
        let next =
          match rest with
          | [] -> None
          | next_ad :: _ -> Some next_ad
        in
        let is_endpoint = ad = flow.Flow.src || ad = flow.Flow.dst in
        let admitted =
          is_endpoint || local_allows t ad { Policy_term.flow; prev; next }
        in
        if not admitted then Error ad
        else begin
          Pr_proto.Probe.computation probe_validate t.net ~at:ad ();
          if next <> None || ad = flow.Flow.dst then
            pg_install t ad handle { prev; next };
          validate (Some ad) rest
        end
    in
    match validate None path with
    | Ok () -> Ok handle
    | Error ad ->
      (* Roll back state installed before the refusal. *)
      List.iter (fun a -> Lru.remove t.nodes.(a).pg_cache handle) path;
      Error ad

  let setup_costs path =
    let route_len = List.length path in
    let bytes = Cost_model.setup_packet_bytes ~route_len ~pt_count:(Stdlib.max 0 (route_len - 2)) in
    (Path.hops path, bytes)

  let install t (flow : Flow.t) =
    (* A gateway may refuse a setup the source's (possibly stale)
       database considered legal; the route server then re-synthesizes
       around the refusing AD, a bounded number of times. *)
    let rec attempt refusers tries =
      match synthesize ~extra_avoid:refusers t flow with
      | None -> Error "no policy route"
      | Some path -> (
        match setup t flow path with
        | Ok handle ->
          let key = (flow.Flow.dst, Flow.class_key flow) in
          (match Lru.put t.nodes.(flow.Flow.src).pr_cache key { path; handle } with
          | Some _victim ->
            Metrics.record_eviction (Network.metrics t.net) flow.Flow.src ()
          | None -> ());
          Ok path
        | Error ad ->
          if tries > 0 then attempt (ad :: refusers) (tries - 1)
          else Error (Printf.sprintf "setup refused at AD %d" ad))
    in
    attempt [] V.setup_retries

  (* Adversarial surface: delegated to the shared flood. Ownership is
     the invariant checked on terms — [set_policy] mutates transit
     policies live, so content cannot be compared against the static
     configuration. *)

  let check_update t ~at ~from:_ lsa = Ls_flood.check_lsa t.flood ~at lsa

  let corrupt_update t ~rng lsa = Ls_flood.corrupt_lsa t.flood ~rng lsa

  let forge_update t ~origin = Ls_flood.forge_lsa t.flood origin

  let audit_state t ~at = Ls_flood.audit_db t.flood ~at

  let resync t ~at ~nbr = Ls_flood.resync t.flood ~at ~nbr

  let prepare_flow t (flow : Flow.t) =
    if flow.Flow.src = flow.Flow.dst then Packet.no_prep
    else begin
      let key = (flow.Flow.dst, Flow.class_key flow) in
      let cached =
        match Lru.find t.nodes.(flow.Flow.src).pr_cache key with
        | Some entry
          when V.delegate_stub_route_servers
               && not
                    (path_supported
                       (Ls_flood.db t.flood t.route_server.(flow.Flow.src))
                       ~n:(Graph.n t.graph) flow entry.path) ->
          (* A delegated stub's own (empty) database never triggers the
             on_change revalidation, so it checks against its server's
             database on use. *)
          Lru.remove t.nodes.(flow.Flow.src).pr_cache key;
          None
        | c -> c
      in
      match cached with
      | Some _ -> { Packet.no_prep with cache_hit = true }
      | None -> (
        match install t flow with
        | Error reason -> { Packet.no_prep with failure = Some reason }
        | Ok path ->
          let hops, bytes = setup_costs path in
          { Packet.setup_hops = hops; setup_bytes = bytes; cache_hit = false; failure = None })
    end

  let precompute_flows t flows =
    List.fold_left
      (fun acc flow ->
        if flow.Flow.src = flow.Flow.dst then acc
        else begin
          let key = (flow.Flow.dst, Flow.class_key flow) in
          if Lru.mem t.nodes.(flow.Flow.src).pr_cache key then acc
          else
            match install t flow with
            | Ok _ -> acc + 1
            | Error _ -> acc
        end)
      0 flows

  let originate t packet =
    let flow = packet.Packet.flow in
    if flow.Flow.src <> flow.Flow.dst then begin
      let key = (flow.Flow.dst, Flow.class_key flow) in
      match Lru.find t.nodes.(flow.Flow.src).pr_cache key with
      | None -> ()
      | Some entry ->
        if V.use_handles then begin
          packet.Packet.handle <- Some entry.handle;
          packet.Packet.header_bytes <-
            Cost_model.base_header_bytes + Cost_model.handle_bytes
        end
        else begin
          packet.Packet.source_route <- Some entry.path;
          packet.Packet.header_bytes <-
            Cost_model.base_header_bytes
            + Cost_model.source_route_bytes (List.length entry.path)
        end
    end

  let rec successor_on path at =
    match path with
    | [] | [ _ ] -> None
    | x :: (y :: _ as rest) -> if x = at then Some y else successor_on rest at

  let forward t ~at ~from packet =
    let flow = packet.Packet.flow in
    if at = flow.Flow.dst then Packet.Deliver
    else if V.use_handles then begin
      match packet.Packet.handle with
      | None -> Packet.Drop "no policy-route handle"
      | Some handle -> (
        match Lru.find t.nodes.(at).pg_cache handle with
        | None ->
          (* Evicted (or never installed): drop, and notify the source
             so its next packet re-sets-up — modelling the gateway's
             error report back to the route server. *)
          let key = (flow.Flow.dst, Flow.class_key flow) in
          (match Lru.peek t.nodes.(flow.Flow.src).pr_cache key with
          | Some entry when entry.handle = handle ->
            Lru.remove t.nodes.(flow.Flow.src).pr_cache key
          | _ -> ());
          Packet.Drop "no setup state for handle (evicted)"
        | Some entry ->
          let node = t.nodes.(at) in
          node.validations <- node.validations + 1;
          if entry.prev <> from then Packet.Drop "PG validation failed (wrong previous AD)"
          else (
            match entry.next with
            | Some next -> Packet.Forward next
            | None -> Packet.Drop "setup state ends before destination"))
    end
    else begin
      match packet.Packet.source_route with
      | None -> Packet.Drop "no source route"
      | Some path -> (
        match successor_on path at with
        | None -> Packet.Drop "not on the source route"
        | Some next ->
          t.nodes.(at).validations <- t.nodes.(at).validations + 1;
          let is_endpoint = at = flow.Flow.src in
          let admitted =
            is_endpoint
            || local_allows t at { Policy_term.flow; prev = from; next = Some next }
          in
          if admitted then Packet.Forward next
          else Packet.Drop "policy refused at gateway")
    end

  let table_entries t ad =
    Ls_flood.db_entries t.flood ad
    + Lru.length t.nodes.(ad).pr_cache
    + Lru.length t.nodes.(ad).pg_cache

  let cached_route t ~src ~dst flow =
    match Lru.peek t.nodes.(src).pr_cache (dst, Flow.class_key flow) with
    | None -> None
    | Some entry -> Some entry.path

  let pg_entries t ad = Lru.length t.nodes.(ad).pg_cache

  let route_cache_entries t ad = Lru.length t.nodes.(ad).pr_cache

  let validations t ad = t.nodes.(ad).validations

  let evictions t ad = Lru.evictions t.nodes.(ad).pg_cache

  let route_evictions t ad = Lru.evictions t.nodes.(ad).pr_cache

  let current_policy t ad = local_policy t ad

  let route_server_of t ad = t.route_server.(ad)

  let db_entries t ad = Ls_flood.db_entries t.flood ad
end

module Orwg = Make (struct
  let name = "orwg"

  let use_handles = true

  let pg_capacity = None

  let pr_capacity = Some 512

  let setup_retries = 2

  let delegate_stub_route_servers = false

  let prune_synthesis = false
end)

module No_handles = Make (struct
  let name = "orwg-no-handles"

  let use_handles = false

  let pg_capacity = None

  let pr_capacity = Some 512

  let setup_retries = 2

  let delegate_stub_route_servers = false

  let prune_synthesis = false
end)

module Delegated = Make (struct
  let name = "orwg-delegated"

  let use_handles = true

  let pg_capacity = None

  let pr_capacity = Some 512

  let setup_retries = 2

  let delegate_stub_route_servers = true

  let prune_synthesis = false
end)

module Pruned = Make (struct
  let name = "orwg-pruned"

  let use_handles = true

  let pg_capacity = None

  let pr_capacity = Some 512

  let setup_retries = 2

  let delegate_stub_route_servers = false

  let prune_synthesis = true
end)

module Bounded_pg (C : sig
  val capacity : int
end) =
Make (struct
  let name = Printf.sprintf "orwg-pg%d" C.capacity

  let use_handles = true

  let pg_capacity = Some C.capacity

  let pr_capacity = Some 512

  let setup_retries = 2

  let delegate_stub_route_servers = false

  let prune_synthesis = false
end)
