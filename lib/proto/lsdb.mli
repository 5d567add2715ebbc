(** Link-state databases with sequence-numbered flooding.

    Shared by every link-state design point (plain LS, LS hop-by-hop
    with policy terms, and ORWG). An LSA describes one AD: its current
    adjacencies with costs and — in the policy-routing protocols — the
    Policy Terms attached to the resources it advertises (paper §4.2:
    "link or path updates contain administrative constraints … that
    apply to the resources they advertise"). *)

type adjacency = {
  nbr : Pr_topology.Ad.id;
  cost : int;  (** administrative cost of the cheapest up link *)
  delay : float;  (** its propagation delay (feeds the Low_delay metric) *)
}

type lsa = {
  origin : Pr_topology.Ad.id;
  seq : int;
  adjacencies : adjacency list;  (** up links only *)
  terms : Pr_policy.Policy_term.t list;  (** empty in non-policy protocols *)
  bytes : int;  (** cached {!lsa_bytes}, computed at construction *)
  mutable compiled : Pr_policy.Compiled.t option;
      (** lazily compiled [terms]; LSA values are physically shared
          across every AD's database copy by flooding, so one
          origination compiles at most once per internet *)
}

val make_lsa :
  origin:Pr_topology.Ad.id ->
  seq:int ->
  adjacencies:adjacency list ->
  terms:Pr_policy.Policy_term.t list ->
  lsa
(** The only way to build an LSA: computes the byte size once and
    leaves compilation lazy. *)

val lsa_bytes : lsa -> int
(** Advertisement size under {!Cost_model}. O(1): cached by
    {!make_lsa}. *)

type t
(** One AD's copy of the database. *)

val create : n:int -> t
(** An empty database with its own search-view cache (see
    {!search_view}). *)

val sibling : t -> t
(** An empty database of the same size that shares its argument's
    search-view cache: the databases of one flood are siblings, so a
    view built for one is reused by every other holding the same
    records. *)

val insert : t -> lsa -> bool
(** [insert db lsa] is true when the LSA is newer than the stored one
    (strictly larger sequence number) — the caller should then flood
    it onward. Stale or duplicate LSAs return false and are ignored. *)

val get : t -> Pr_topology.Ad.id -> lsa option
(** The stored LSA, if any. Allocates the option: inner loops read
    {!adjacencies_of}, {!terms_of} or {!seq_of} instead. *)

val adjacencies_of : t -> Pr_topology.Ad.id -> adjacency list
(** Stored adjacencies for the AD ([] when unknown). *)

val seq_of : t -> Pr_topology.Ad.id -> int
(** Stored sequence number, or -1 when none. *)

val fold : t -> init:'a -> f:('a -> lsa -> 'a) -> 'a

val adjacency_cost : t -> Pr_topology.Ad.id -> Pr_topology.Ad.id -> int option
(** Cost of the directed adjacency [u -> v] according to [u]'s stored
    LSA. Routing computations require the adjacency in both directions
    before using a link (standard two-way connectivity check). *)

val bidirectional : t -> Pr_topology.Ad.id -> Pr_topology.Ad.id -> int option
(** Max of the two directed costs when both LSAs agree the link is up. *)

val terms_of : t -> Pr_topology.Ad.id -> Pr_policy.Policy_term.t list
(** Stored policy terms for the AD ([] when unknown). *)

val compiled_of : t -> Pr_topology.Ad.id -> Pr_policy.Compiled.t
(** Compiled form of [terms_of] (an empty compilation when unknown).
    Compiles on first use and caches in the LSA itself, so the cost is
    paid once per origination, not once per database copy. *)

val search_view : t -> Pr_policy.Qos.t -> Pr_topology.Policy_search.view * int array
(** The adjacency both LSAs of a pair confirm, as a policy-search view:
    each AD's row lists its confirmed neighbors in advertisement order
    (a neighbor listed twice counts once, at its first position),
    paired with each slot's {!Qos_metric.metric} under the QOS class,
    taken over the larger cost and delay of the two directions — what
    QOS-aware route computations accumulate instead of the raw cost.
    The view is built on first use, each class's metrics on the first
    search under that class; both are kept until the next accepted
    {!insert}.

    Siblings share views: a database whose store holds, slot for slot,
    the physically same LSA records as the one the family's last view
    was built from reuses that view (and its metrics) instead of
    building its own; any other content builds afresh and replaces the
    shared entry. The view is a function of the records alone, so
    sharing changes no route and no search work. The key is record
    identity, not the sequence number: a corrupted copy
    ({!Ls_flood.corrupt_lsa}) carries the honest [seq] with different
    adjacencies. *)

val entry_count : t -> int
(** Number of stored LSAs — the database footprint gauge. *)
