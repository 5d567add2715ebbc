(** Policy-constrained route computation over a link-state database.

    This is the "route synthesis" at the heart of the paper's
    recommended architecture (§5.4.1) and of the LS hop-by-hop design
    (§5.3): find AD paths such that every interior AD's advertised
    Policy Terms admit the flow, where a PT may constrain the previous
    and next hop as well as source, destination, QOS, UCI, hour and
    authentication.

    Because admission of an interior AD depends on both its
    predecessor and successor, shortest-path search runs over
    (node, arrived-from) states rather than nodes: the shared
    {!Pr_topology.Policy_search} kernel, over the full rows of the
    database's {!Lsdb.search_view}.

    All searches run through an {!engine}: a per-flow view of the
    database that resolves each AD's flow-only policy conditions once
    ({!Pr_policy.Compiled.specialize}) and leaves only prev/next
    bitset probes in the relaxation inner loop. *)

type engine
(** A flow-specialized admission engine over one database snapshot.
    Cheap to build (one small record, no per-AD array): per-AD
    specializations are compiled lazily on first probe, into a table
    the calling domain's engines share, each entry stamped with the
    engine that wrote it. Build a fresh engine per (flow,
    database-version) — callers already keyed on
    {!Ls_flood.db_version} for their route caches get this for free. *)

val engine : Lsdb.t -> n:int -> Pr_policy.Flow.t -> engine

val admits : engine -> Pr_topology.Ad.id -> prev:Pr_topology.Ad.id -> next:Pr_topology.Ad.id -> bool
(** Does some advertised PT of the AD admit this crossing, according
    to the database the engine wraps? A negative hop is unknown
    ({!Pr_policy.Compiled.hop_probe}). *)

val shortest :
  engine ->
  ?avoid:Pr_topology.Ad.id list ->
  unit ->
  Pr_topology.Path.t option * int
(** Minimum-cost policy-legal path for the engine's flow (links must
    be advertised in both directions). [avoid] excludes interior ADs
    (the source's own criteria). Returns the path and the search work
    (states settled), the unit charged to {!Pr_sim.Metrics} as
    computation. *)

val shortest_pruned :
  engine ->
  ?avoid:Pr_topology.Ad.id list ->
  unit ->
  Pr_topology.Path.t option * int
(** Synthesis pruning heuristic (paper §6: "heuristics for pruning
    precomputations and for focusing on-demand computations"): an
    {e optimistic} node-level Dijkstra that checks admission per AD
    while ignoring prev/next-hop predicates — n states instead of the
    exact search's n² (node, arrived-from) states — then validates the
    result exactly and falls back to {!shortest} only when a
    hop-constrained term rejects it. Exact in outcome, cheap in the
    common case where few terms constrain hops. Returns the route and
    the combined search work. *)

val enumerate :
  engine ->
  max_hops:int ->
  ?limit:int ->
  unit ->
  Pr_topology.Path.t list
(** All policy-legal simple paths within [max_hops] according to the
    database (default [limit] 2000) — the route server's candidate set
    when the source wants choice rather than just a shortest route. *)
