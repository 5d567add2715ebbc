(** Incremental single-source shortest-path trees: Ramalingam–Reps
    style tree repair over the CSR adjacency.

    A retained tree carries its own dynamic link state (up flag and
    current cost per link id, initialised from the graph's static
    costs) and repairs itself in O(affected region) per patch instead
    of O(network): only the old subtrees hanging under patched tree
    edges, plus whatever region a cost improvement actually reaches,
    are re-settled. This is the kernel behind the [delta] benchmark and
    the scale smoke; protocol modules use delta-scoped {e invalidation}
    (see [Ls_flood.stale]) rather than this kernel directly, so
    that every AD's forwarding state keeps coming from one SPF code
    path.

    Costs must stay >= 1 (patching a cost below 1 raises
    [Invalid_argument]): strictly positive edges keep settle order
    strictly increasing along parent chains, which is what allows
    first hops to be recomputed from the parent at settle time. *)

type t

val create : Graph.t -> src:Ad.id -> t
(** A retained tree rooted at [src], with every link up at its static
    cost. Equivalent to [Spf.tree] at this state. *)

val src : t -> Ad.id

val dist : t -> Ad.id -> int
(** Current shortest distance; -1 = unreachable. *)

val parent : t -> Ad.id -> Ad.id
(** Tree predecessor; -1 at the source and at unreachable nodes. *)

val first_hop : t -> Ad.id -> Ad.id
(** First AD after the source; -1 at the source and unreachable nodes. *)

val link_up : t -> Link.id -> bool

val link_cost : t -> Link.id -> int

val set_link : t -> Link.id -> up:bool -> unit
(** Patch one link up or down and repair. No-op if already in that
    state. *)

val set_cost : t -> Link.id -> cost:int -> unit
(** Patch one link's cost (>= 1) and repair. No-op if unchanged. *)

val node_down : t -> Ad.id -> Link.id list
(** Crash an AD: force all its currently-up incident links down in one
    batched repair. Returns the links taken down, in adjacency order —
    feed them back to {!node_up} on restart (the same bookkeeping the
    simulation runner keeps in [crash_links]). Crashing the source
    leaves [dist src = 0] and everything else unreachable. *)

val node_up : t -> links:Link.id list -> unit
(** Restore links recorded by {!node_down} in one batched repair.
    Links already up are skipped. *)

val to_tree : t -> Spf.tree
(** A detached snapshot (arrays copied). *)

val events : t -> int
(** Number of repairs applied so far. *)

val nodes_repaired : t -> int
(** Total nodes re-settled across all repairs — the "affected region"
    the benchmark compares against n * events for full recomputes. *)

val self_check : t -> (unit, string) result
(** Full structural audit: parent chains sum to recorded distances,
    first hops agree with parents, child lists are consistent, and no
    up link can still relax — which together prove every recorded
    distance is exactly the shortest one under the current link state.
    O(n + links); for tests. *)
