(** The AD-level internet: a static undirected multigraph of ADs and
    inter-AD links.

    Dynamic link status (up/down during a simulation) is the business of
    {!Pr_sim}; this structure describes the configured topology.

    Internally the adjacency is CSR (compressed sparse row): flat int
    arrays built once in {!create}, giving O(1) degree, O(log degree)
    {!find_link}/{!link_cost} with the cheapest parallel link
    precomputed, and allocation-free neighbor iteration via
    {!iter_neighbors}/{!iter_neighbor_ids}. The list-returning accessors
    remain for convenience and tests; hot paths should use the
    iterators. *)

type t

val create : Ad.t array -> Link.t array -> t
(** Build a graph. AD ids must equal their array index; link endpoints
    must be valid AD ids.
    @raise Invalid_argument on malformed input. *)

val n : t -> int
(** Number of ADs. *)

val num_links : t -> int

val ad : t -> Ad.id -> Ad.t

val ads : t -> Ad.t array

val link : t -> Link.id -> Link.t

val links : t -> Link.t array

val neighbors : t -> Ad.id -> (Ad.id * Link.id) list
(** Adjacent (neighbor, connecting link) pairs, in increasing neighbor
    order. A pair of ADs connected by parallel links appears once per
    link. *)

val neighbor_ids : t -> Ad.id -> Ad.id list
(** Deduplicated neighbor list. *)

val iter_neighbors : t -> Ad.id -> f:(Ad.id -> Link.id -> unit) -> unit
(** Allocation-free iteration over the AD's (neighbor, link) pairs, in
    increasing (neighbor, link) order — the same pairs {!neighbors}
    returns. *)

val iter_neighbor_costs : t -> Ad.id -> f:(Ad.id -> int -> unit) -> unit
(** {!iter_neighbors} with each link's static cost in place of its id:
    one call per parallel link, so a shortest-path relaxation pays one
    indirect call per edge. *)

val iter_neighbor_ids : t -> Ad.id -> f:(Ad.id -> unit) -> unit
(** Allocation-free iteration over the AD's unique neighbors, in
    increasing order — the same ids {!neighbor_ids} returns. *)

val fold_neighbors : t -> Ad.id -> init:'a -> f:('a -> Ad.id -> Link.id -> 'a) -> 'a
(** Fold over the AD's (neighbor, link) pairs without building a list. *)

val degree : t -> Ad.id -> int

val unique_csr : t -> int array * int array
(** The unique-neighbor index [(off, nbr)], physically shared with the
    graph (never mutate it): row [v] spans [off.(v) .. off.(v+1) - 1]
    of [nbr], in increasing neighbor order. Index [k] of [nbr] is the
    {e slot} of the AD pair (owner of the row, [nbr.(k)]). *)

val uniq_slot : t -> Ad.id -> Ad.id -> int
(** The slot of the AD pair in [x]'s unique-neighbor row (see
    {!unique_csr}), or [-1] when the ADs are not adjacent. O(log
    degree). Slots are directed: [(x, y)] and [(y, x)] are different
    slots, and parallel links share their pair's slot. *)

val cheapest_up_link : t -> int -> up:bool array -> Link.id
(** The cheapest link of the slot's AD pair whose [up] entry (indexed
    by link id) is true, lowest id among equally cheap ones; [-1] when
    none is up. Allocation-free. *)

val slot_cost : t -> int -> int
(** Cost of the cheapest link of the slot's AD pair. *)

val fold_slot_links : t -> int -> init:'a -> f:('a -> Link.id -> 'a) -> 'a
(** Fold over every parallel link of the slot's AD pair, in increasing
    link id order, without building a list. *)

val find_link : t -> Ad.id -> Ad.id -> Link.id option
(** Some link joining the two ADs (the cheapest if parallel), if any.
    O(log degree): binary search plus a precomputed cheapest-link read. *)

val link_cost : t -> Ad.id -> Ad.id -> int
(** Cost of the cheapest link joining the two ADs, or [-1] when they are
    not adjacent. The allocation-free form of {!find_link} for inner
    loops. *)

val is_connected : t -> bool

val has_cycle : t -> bool
(** True when the undirected graph contains a cycle (EGP's forbidden
    configuration, paper §3). *)

val bfs_hops : t -> Ad.id -> int array
(** Hop distances from a source; [-1] marks unreachable ADs. *)

val fold_links : t -> init:'a -> f:('a -> Link.t -> 'a) -> 'a

val count_by_klass : t -> (Ad.klass * int) list

val count_links_by_kind : t -> (Link.kind * int) list

val stub_ids : t -> Ad.id list
(** ADs that may originate/sink traffic but never carry transit
    ([Stub], [Multihomed], and [Hybrid] ADs all host end systems; this
    returns stubs and multihomed stubs only). *)

val host_ids : t -> Ad.id list
(** ADs that host end systems: everything except pure transit ADs. *)

val transit_ids : t -> Ad.id list

val hierarchy_descendants : t -> Ad.id -> Ad.id array
(** The AD's customer cone: itself plus every AD reachable by
    repeatedly following hierarchical links toward strictly lower
    hierarchy levels (backbone → regional → metro → campus), sorted
    ascending. Costs O(cone log cone) plus one bit per AD of marks.
    Used by policy generation: a provider always serves its own
    customers. *)

val pp_summary : Format.formatter -> t -> unit
