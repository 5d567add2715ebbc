(** The ground-truth policy oracle.

    Protocol-independent legality checking and exhaustive (bounded)
    legal-route enumeration. Experiments compare what each protocol
    finds against this oracle to measure {e route availability loss}:
    "resulting in no available route when in fact a legal route exists"
    (paper §5.1) — the paper's key deficiency metric for designs that
    cannot express or honor all policies. *)

type verdict =
  | Legal
  | Transit_refused of {
      ad : Pr_topology.Ad.id;
      prev : Pr_topology.Ad.id option;
      next : Pr_topology.Ad.id option;
    }  (** some interior AD's policy refuses this crossing *)
  | Source_refused  (** the source's own selection criteria reject the path *)
  | Broken of string  (** not a valid path in the graph *)

val check :
  Pr_topology.Graph.t -> Config.t -> Flow.t -> Pr_topology.Path.t -> verdict
(** Full legality: valid simple path from [flow.src] to [flow.dst],
    every interior AD's transit policy admits the crossing, and the
    source policy permits the path. *)

val transit_legal :
  Pr_topology.Graph.t -> Config.t -> Flow.t -> Pr_topology.Path.t -> bool
(** Legality ignoring the source's own criteria — what "a legal route
    exists" means from the internet's point of view. *)

val legal : Pr_topology.Graph.t -> Config.t -> Flow.t -> Pr_topology.Path.t -> bool
(** [check] = [Legal]. *)

val legal_paths :
  Pr_topology.Graph.t ->
  Config.t ->
  Flow.t ->
  max_hops:int ->
  ?limit:int ->
  unit ->
  Pr_topology.Path.t list
(** All transit-legal simple paths for the flow, by pruned DFS (the
    source policy is not applied; filter with {!Source_policy.permits}
    for source-acceptable routes). At most [limit] (default 10_000). *)

val route_exists : Pr_topology.Graph.t -> Config.t -> Flow.t -> max_hops:int -> bool
(** A transit-legal route within the hop bound exists. Implemented by
    the sparse (node, arrived-from) state search
    ({!Pr_topology.Policy_search}), fast enough to call per flow at
    10^4 ADs; falls back to bounded DFS only when the best state walk
    self-intersects or exceeds the bound. When no state walk reaches
    the destination there is no route, and no DFS runs. *)

val shortest_legal :
  Pr_topology.Graph.t ->
  Config.t ->
  Flow.t ->
  ?apply_source_policy:bool ->
  unit ->
  Pr_topology.Path.t option
(** Minimum-cost transit-legal simple path for the flow (with
    [apply_source_policy], also honoring the source's avoid list), by
    the (node, arrived-from) state search, with a DFS fallback when its
    best walk self-intersects or the source policy refuses it. A warm
    search allocates little beyond the route it returns. *)

val best_legal :
  Pr_topology.Graph.t -> Config.t -> Flow.t -> max_hops:int -> Pr_topology.Path.t option
(** The minimum-cost transit-legal path that the source policy also
    permits, or [None]. Ties break deterministically. *)

val pp_verdict : Format.formatter -> verdict -> unit
