(** Policy-constrained route search, shared by the route server
    ([Pr_serve.Serve]), link-state route synthesis
    ([Pr_proto.Policy_route]) and the ground-truth oracle
    ([Pr_policy.Validate]).

    A Policy Term may constrain an interior AD's previous and next hop
    (paper §4.2), so admission depends on where the route came from:
    {!search} is a Dijkstra over states (v, p) — at v, having arrived
    from neighbor p. State (v, p) lives in the slot of p in v's row of
    a {!view}, so there are as many states as adjacencies, never n².
    A {!scratch} holds the per-state arrays, generation-stamped so no
    search clears them, and an int-keyed indexed heap: the relaxation
    loop allocates nothing.

    Pop order is (distance, order of the last strict improvement), the
    order of a FIFO-tie heap that pushes every improvement: routes and
    {!settled} counts are those of the textbook lazy-deletion search.
    A caller holding a lower bound on the distance to the destination
    can pass it to cut the states searched without changing the route. *)

type view
(** Immutable rows of unique neighbors plus the reverse-slot index. *)

val of_csr : off:int array -> nbr:int array -> view
(** Row [v] is [nbr.(off.(v)) .. nbr.(off.(v+1) - 1)], in the order
    searches visit it; rows must be duplicate-free and symmetric. The
    arrays are shared, not copied. O(n + m).
    @raise Invalid_argument on malformed or asymmetric rows. *)

val of_graph : Graph.t -> view
(** {!Graph.unique_csr}: slot [k] of the view is slot [k] of the graph. *)

val iter_row : view -> Ad.id -> f:(Ad.id -> int -> unit) -> unit
(** [f w k] for each neighbor [w] of the AD, [k] its slot, in row order. *)

type scratch
(** Reusable search state, grown to fit the largest view it serves. *)

val scratch_for : view -> scratch

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
  view ->
  src:Ad.id ->
  dst:Ad.id ->
  ?avoid:Ad.id list ->
  ?lower:int array ->
  metric:(Ad.id -> Ad.id -> int -> int) ->
  admit:(Ad.id -> Ad.id -> Ad.id -> bool) ->
  unit ->
  outcome
(** Minimum-metric route that never re-enters [src] and has no
    [avoid] AD in its interior. [metric v w k] is the metric of edge
    [v -> w], slot [k]: [>= 0], or negative when the edge is unusable.
    [admit v p w] decides the interior crossing p -> v -> w; [src]
    needs none, and it is asked only about edges that would improve a
    state.

    [lower], indexed by AD, must be a consistent lower bound on the
    metric to [dst]: [lower.(dst) = 0], [lower.(v) <= metric v w k +
    lower.(w)] for every usable edge, and [max_int] only where no
    usable walk reaches [dst]. The search then runs two passes of the
    one relaxation loop. The bound pass pops states by d + lower (A-star)
    and skips pushes beyond the best destination distance pushed so
    far: it finds the optimum D* or proves [Unreachable]. The exact pass
    replays the (distance, improvement) order, skipping, before
    admission, every push whose d + lower exceeds D*. No state on the
    returned parent chain is skipped and a skipped state leads only to
    states beyond D*, so the outcome is the unbounded search's; the
    exact pass settles a subset of its states.
    @raise Invalid_argument if a path metric (plus its bound, in the
    bound pass) overflows the heap key, or [lower] is shorter than the
    view. *)

val settled : scratch -> int
(** States settled by the last search, both passes counted: the work
    charged to [Pr_sim.Metrics] as computation. *)

val bound_settled : scratch -> int
(** Of {!settled}, the states the bound pass settled; 0 when the last
    search had no [lower]. *)

val enumerate :
  scratch ->
  view ->
  src:Ad.id ->
  dst:Ad.id ->
  max_hops:int ->
  limit:int ->
  admit:(Ad.id -> Ad.id -> Ad.id -> bool) ->
  Path.t list
(** Up to [limit] admissible simple routes of at most [max_hops] hops,
    by depth-first search in row order. *)
