(** Single-source shortest paths: the one node-level Dijkstra.

    {!search} is the kernel; callers describe their adjacency through
    [relax]. {!tree} runs it over the ground-truth graph (the route
    synthesis kernel the scaling benchmark drives at 10^2..10^5 ADs)
    and {!tree_state} under explicit link state; protocol modules run
    it over their distributed databases (the link-state baseline's
    per-AD SPF, the route server's pruned synthesis). *)

type tree = {
  src : Ad.id;
  dist : int array;  (** cost of the shortest route; -1 = unreachable *)
  parent : int array;  (** predecessor on the tree; -1 at the source *)
  first_hop : int array;  (** first AD after the source; -1 at the source *)
}

val search :
  n:int ->
  src:Ad.id ->
  ?dst:Ad.id ->
  relax:(Ad.id -> (Ad.id -> int -> unit) -> unit) ->
  unit ->
  tree * int
(** Dijkstra from [src] over nodes [0, n). [relax u f] must call
    [f v cost] once for each usable edge out of the settled node [u],
    with [cost >= 0]; parallel edges are fine (the cheapest wins).
    When [dst] is given the search stops as soon as [dst] is settled,
    and [dst]'s edges are never relaxed. Returns the tree and the
    number of nodes settled — the computation figure protocols
    charge per search.

    Pop order: that of lazy deletion over a FIFO-tie heap. A node is
    pushed each time its tentative distance strictly improves and
    settled at its first pop; nodes pop in increasing (distance, push
    order). The search runs on the calling domain's
    {!Pr_util.Dial} queue, where an improvement moves the node to the
    back of its new distance's bucket, and allocates its tree; [relax]
    must not start another search on the same domain. So among equal-cost predecessors the
    recorded parent is the first to reach the best distance, and
    callers that describe the same edges in the same order get the
    same tree. Nodes left unsettled by an early exit have [dist = -1];
    their [parent]/[first_hop] may hold a tentative value. *)

val tree : Graph.t -> src:Ad.id -> tree
(** The shortest-path tree rooted at [src], over static link costs
    (cheapest parallel link wins, as everywhere else). *)

val tree_state : Graph.t -> up:bool array -> cost:int array -> src:Ad.id -> tree
(** From-scratch shortest-path tree under explicit dynamic link state:
    [up.(lid)] gates each link, [cost.(lid)] overrides its static cost.
    Iterates the full parallel-link adjacency (the precomputed
    cheapest-parallel-link index assumes static costs, so it cannot be
    used here). This is the reference the incremental kernel
    [Spf_delta] (under bench/) is checked against, and the
    full-recompute arm of the delta benchmark. Ties break as in
    {!search}: with every link up at its static cost the result equals
    {!tree} structurally. Distances are uniquely determined, so only
    [dist] is comparable with [Spf_delta], whose repair breaks ties its
    own way. *)

val path : tree -> Ad.id -> Path.t option
(** The tree route from the source to [dst]. *)
