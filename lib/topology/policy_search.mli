(** Policy-constrained route search, shared by the route server
    ([Pr_serve.Serve]), link-state route synthesis
    ([Pr_proto.Policy_route]) and the ground-truth oracle
    ([Pr_policy.Validate]).

    A Policy Term may constrain an interior AD's previous and next hop
    (paper §4.2), so admission depends on where the route came from:
    {!search} is a Dijkstra over states (v, p) — at v, having arrived
    from neighbor p. State (v, p) lives in the slot of p in v's row, so
    there are as many states as adjacencies, never n². A search walks
    {!rows}: the full rows of every AD ({!of_csr}), or those of a set of
    kept ADs cut from them ({!restrict}). A {!scratch} holds the
    per-state arrays, generation-stamped so no search clears them, and
    a ring of buckets indexed by path metric (Dial's queue): a warm
    search allocates only its route.

    Pop order is (distance, order of the last strict improvement), the
    order of a FIFO-tie heap that pushes every improvement: routes and
    {!settled} counts are those of the textbook lazy-deletion search.
    A caller holding a lower bound on the distance to the destination
    can pass it to cut the states searched without changing the route;
    {!labels} builds and caches such bounds over the ADs that can carry
    transit, for the route server and the oracle alike. *)

type rows
(** The rows of a set of kept ADs: the kept ADs numbered 0 .. {!size}
    - 1 in increasing AD order, each with a row of its kept neighbors
    in slot order. A slot is a directed adjacency, numbered as in the
    full rows, which keep every AD and number each AD as itself; rows
    cut from them by {!restrict} keep a reference to them. A search
    walks only the rows it is passed (see {!search}), and a label is
    indexed by their numbering. *)

val of_csr : off:int array -> nbr:int array -> rows
(** The full rows of the adjacency: row [v] is [nbr.(off.(v)) ..
    nbr.(off.(v+1) - 1)], in the order searches visit it, and [nbr.(k)]
    is slot [k]. Rows must be duplicate-free and symmetric. [off] is
    shared, not copied. O(n + m).
    @raise Invalid_argument on malformed or asymmetric rows. *)

val of_graph : Graph.t -> rows
(** The full rows of {!Graph.unique_csr}: slot [k] is slot [k] of the
    graph. *)

val iter_row : rows -> Ad.id -> f:(Ad.id -> int -> unit) -> unit
(** [f w k] for each kept neighbor [w] of the AD, [k] its slot, in row
    order; nothing when the AD is not kept. *)

val restrict : rows -> keep:(Ad.id -> bool) -> rows
(** The rows of the ADs [keep] holds for, cut from the full rows that
    the argument is or was cut from. O(n + m). *)

val kept : rows -> Ad.id -> bool

val size : rows -> int
(** The number of kept ADs: the length of a label over the rows. *)

val lower_bound :
  ?into:int array ->
  rows -> Pr_util.Dial.t -> dst:Ad.id -> metric:int array -> int array
(** Per kept AD, by its number in the rows, the least [metric] (by
    slot, [>= 0]) of a walk to [dst] whose ADs other than [dst]
    are all kept; [max_int] where none is. [dst] itself need not be
    kept. A Dijkstra on the queue, which it grows to fit the rows; the
    order equal keys pop in changes no distance. The label is written
    into [into] (at least {!size} words, overwritten) and returned, or
    else into a fresh array, the build's only allocation once the
    queue has grown. It bounds {!search} for any metric no lower than
    [metric] slot for slot, over the same rows. *)

type labels
(** The label machinery of a route search that knows which ADs can
    carry transit: the rows of the kept ADs, the queue their
    labels are built on, and an LRU cache of built labels. Once the
    cache is full, a build writes into the array of the label it
    evicts, so it allocates a cache entry, not a label. *)

val labels : rows -> capacity:int -> labels
(** The rows and an empty cache of at most [capacity] labels. *)

val carrying : labels -> rows
(** The current rows, to pass to {!search} with a label. *)

val join : labels -> Ad.id -> unit
(** Add the AD to the kept set: when it was not kept, rebuild the rows
    ({!restrict}, O(n + m)) and drop every cached label (each was built
    without it, and is one word short). *)

val label : labels -> key:int -> dst:Ad.id -> metric:int array -> int array
(** The cached label under [key], else {!lower_bound} toward [dst]
    over [metric], cached under [key]. A key must always name the same
    (dst, metric). The array belongs to the cache: it must not be
    written, and it is valid only until the next build or {!join}. *)

val label_builds : labels -> int
(** Labels built since {!labels}. *)

val label_evictions : labels -> int
(** Labels evicted from the cache by a build. *)

type scratch
(** Reusable search state, grown by each search to fit its rows and the
    widest span of path metrics it queues at once (at most 2^16
    buckets). *)

val scratch : unit -> scratch
(** An empty scratch. *)

val shared_scratch : unit -> scratch
(** The calling domain's scratch, for callers that own none. Callbacks
    must not start another search on it. *)

val first_touch : scratch -> Ad.id -> bool
(** True the first time it is asked about the AD during the current
    search (both passes of a bounded one): lets an admission callback resolve per-AD flow state once
    per search in a caller-owned array, without clearing it. *)

type outcome =
  | Route of Path.t
  | Revisits  (** the best admissible walk visits some AD twice *)
  | Unreachable  (** no admissible walk reaches the destination *)

val search :
  scratch ->
  rows ->
  src:Ad.id ->
  dst:Ad.id ->
  ?avoid:Ad.id list ->
  ?lower:int array ->
  ?refuses:(Ad.id -> bool) ->
  metric:(Ad.id -> Ad.id -> int -> int) ->
  admit:(Ad.id -> Ad.id -> Ad.id -> bool) ->
  unit ->
  outcome
(** Minimum-metric route over the rows that never re-enters [src] and
    has no [avoid] AD in its interior. [metric v w k] is the metric of
    edge [v -> w], slot [k]: [>= 0], or negative when the edge is
    unusable. [admit v p w] decides the interior crossing p -> v -> w;
    [src] needs none, and it is asked only about edges that would
    improve a state.

    The route's interior ADs are kept ones; [src] and [dst] need not
    be. An unkept [src] relaxes its slots to kept ADs and to [dst], and
    an unkept [dst] is reached through its kept neighbors' slots to it,
    merged in at their place in slot order. Without [lower], this
    is the one-pass search over the kept subgraph; on full rows, over
    the whole adjacency.

    [lower], indexed by the rows' numbering (a {!label} or
    {!lower_bound} over them), must be a consistent lower bound on the
    metric to [dst]: 0 at [dst] when it is kept, [lower.(v) <= metric v
    w k + lower.(w)] for every usable edge, and [max_int] only where no
    usable walk reaches [dst]. The search then runs two passes of the
    one relaxation loop. The bound pass pops states by d + lower
    (A-star) and skips pushes beyond the best destination distance
    pushed so far: it finds the optimum D* or proves [Unreachable]. The
    exact pass replays the (distance, improvement) order, skipping,
    before admission, every push whose d + lower exceeds D*. No state
    on the returned parent chain is skipped and a skipped state leads
    only to states beyond D*, so the outcome is the unbounded search's;
    the exact pass settles a subset of its states. With [lower], rows
    restricted to a kept set stand for [max_int] at every unkept AD but
    [dst]: every slot they leave out leads to a push the bound would
    skip, so the outcome, pop order and {!settled} are those of the
    search over the full rows with [lower] expanded to them; [metric]
    is simply not asked about those slots.

    [refuses v] may claim that [admit v p w] is false for every [p] and
    [w]: a popped state at such an AD, other than the start at [src],
    relaxes nothing. It is asked once per popped state, and changes
    nothing but the work done.
    @raise Invalid_argument if a path metric (plus its bound, in the
    bound pass) overflows an [int] or [lower] is shorter than the
    rows. *)

val settled : scratch -> int
(** States settled by the last search, both passes counted: the work
    charged to [Pr_sim.Metrics] as computation. *)

val bound_settled : scratch -> int
(** Of {!settled}, the states the bound pass settled; 0 when the last
    search had no [lower]. *)

val enumerate :
  scratch ->
  rows ->
  src:Ad.id ->
  dst:Ad.id ->
  max_hops:int ->
  limit:int ->
  admit:(Ad.id -> Ad.id -> Ad.id -> bool) ->
  Path.t list
(** Up to [limit] admissible simple routes of at most [max_hops] hops
    whose ADs are all kept, by depth-first search in row order. *)
