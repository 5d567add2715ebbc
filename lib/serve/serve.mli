(** The route-server query engine (paper §5.4).

    A [Serve.t] answers per-flow route queries against one immutable
    {!Pdd.snapshot} per query: the decision-diagram database version
    pinned when the query starts. Policy churn
    ([Policy_store.set_transit]) bumps the store version; {!refresh}
    catches the diagrams up incrementally and publishes a {e new}
    roots array, so a query never observes a mix of two versions — it
    answers entirely from the version it pinned (callers that want the
    newest answers simply refresh first, the retry-on-new discipline).

    Two caches front the synthesis work, both LRU-bounded
    ({!Pr_util.Lru}):

    - the {e route cache}, keyed by (src, dst, QOS, UCI, hour, auth),
      whose entries remember the database version that produced them
      and are revalidated against the current link/node state on hit;
    - the {e handle table}, the ORWG-style setup state: a successful
      query installs the route under a fresh handle, and data packets
      present handles instead of repeating the query. A handle miss
      (evicted under LRU pressure) means the client must re-set-up.

    A third LRU keeps per-destination distance labels: for each
    (destination, QOS), every AD's shortest metric to the destination
    over the static graph. A label lower-bounds every admissible route
    and no policy, link or node event invalidates it, so a query passes
    it to {!Pr_topology.Policy_search.search} to settle fewer states
    and run fewer admissions for the same route.

    Cache hits, misses and evictions are exposed in {!stats} and as
    [lib/obs] trace instants/counters. *)

type t

val create :
  ?route_capacity:int option ->
  ?handle_capacity:int option ->
  ?trace:Pr_obs.Trace.t ->
  ?link_up:(Pr_topology.Link.id -> bool) ->
  ?node_up:(Pr_topology.Ad.id -> bool) ->
  Pr_topology.Graph.t ->
  Pr_policy.Policy_store.t ->
  t
(** Defaults: route capacity [Some 4096], handle capacity [Some 1024],
    disabled trace, and an always-up topology. [link_up]/[node_up]
    plug in the simulated network's dynamic state. Building the server
    compiles the whole policy database into decision diagrams. *)

val pdd : t -> Pdd.db

val refresh : t -> now:float -> int
(** Catch the diagrams up with the policy store; returns the number of
    AD diagrams recompiled (0 when nothing changed). Queries issued
    after a refresh answer from the new version; queries that pinned
    the old snapshot keep answering from it. *)

val snapshot : t -> Pdd.snapshot
(** The current database version (refresh first for the newest). *)

type answer =
  | Route of { path : Pr_topology.Path.t; handle : int; version : int; cache_hit : bool }
  | No_route of { version : int }

val cache_ready : t -> snap:Pdd.snapshot -> Pr_policy.Flow.t -> bool
(** Would {!query} at [snap] answer from the route cache right now — a
    cached entry at the snapshot's version whose path is still up?
    Reads without touching recency or any counter: the serve-stale
    shedding predicate (queries that would need a fresh synthesis on a
    stale database are shed; cached answers stay cheap to serve). *)

val query : ?snap:Pdd.snapshot -> t -> now:float -> Pr_policy.Flow.t -> answer
(** Answer one route query: from the route cache when the entry was
    computed at the same database version and its path is still up,
    otherwise by exact (node, arrived-from) policy search over the
    diagram snapshot. Every read — cache validity, admission, search —
    uses the single pinned snapshot ([snap] if given, else the current
    one). A successful query installs the route in the handle table
    and returns the fresh handle. *)

val data : t -> now:float -> handle:int -> Pr_topology.Path.t option
(** Present a handle for a data packet: [Some path] on a live handle
    (touching its recency), [None] when the handle was evicted or
    never existed — the client must re-query. *)

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
  rebuilds : int;  (** diagram rebuild passes, initial build included *)
  rebuilt_ads : int;  (** per-AD diagram recompilations *)
  search_states : int;  (** policy-search states settled, both passes *)
  bound_builds : int;  (** distance labels computed *)
  bound_evictions : int;  (** distance labels evicted from their cache *)
}

val stats : t -> stats

val self_check : t -> (unit, string) result
(** Handle-leak and cache-integrity audit: both LRU structures pass
    {!Pr_util.Lru.self_check} and every issued handle is accounted for
    (live + evicted = issued). *)
