(** The ORWG / Clark policy-routing architecture (paper §5.4.1) — the
    design the paper recommends: link state, source routing, explicit
    Policy Terms.

    Mechanics implemented here, following §5.4.1:

    - {b Flooding}: ADs flood LSAs carrying their adjacencies and
      Policy Terms; each AD's {e Route Server} holds the full policy
      topology.
    - {b Route synthesis}: the source's route server computes a policy
      route — honoring the source's own (private!) selection criteria —
      either on demand at first use or by precomputation
      ({!precompute_flows}, experiment E7).
    - {b Setup}: the first packet toward a (destination, policy class)
      carries the full source route plus the Policy Term each transit
      AD is expected to honor; each AD's {e policy gateway} validates
      the route against its local terms and caches the setup state
      under a fresh {e handle}.
    - {b Handles}: subsequent data packets carry only the 4-byte
      handle; PGs validate per packet that the packet arrives from the
      AD recorded at setup ("is it coming from the AD specified in the
      cached PT setup information").

    The [No_handles] variant carries the full source route in every
    packet — the header-overhead comparison of experiment E6. *)

type message = Pr_proto.Lsdb.lsa

module type VARIANT = sig
  val name : string

  val use_handles : bool

  val pg_capacity : int option
  (** Bound on setup-state entries per policy gateway; [None] =
      unbounded. A bounded gateway evicts its least recently used handle
      on overflow; packets arriving on an evicted handle are dropped and
      the gateway's error report makes the source re-set-up — the state
      management limitation of paper section 6, measured in experiment
      E11. *)

  val pr_capacity : int option
  (** Bound on policy routes cached per route server; [None] =
      unbounded. Bounded caches use the same LRU eviction policy as the
      gateway handle tables; {!route_evictions} counts what they
      evict. *)

  val delegate_stub_route_servers : bool
  (** Database distribution strategy (paper section 6, open issue 2):
      when true, LSAs flood only among transit-capable ADs — stubs hold
      no databases — and a stub source delegates route synthesis to its
      provider's route server, paying a query/response message pair per
      synthesis. Compared against full flooding in experiment E13. *)

  val prune_synthesis : bool
  (** Synthesis heuristic (paper section 6, open issue 1): an
      optimistic node-level search first
      ({!Pr_proto.Policy_route.shortest_pruned}), falling back to the
      exact (node, arrived-from) search when a hop-constrained term
      rejects its route. Compared in experiment E7. *)
end

module type S = sig
  include Pr_proto.Protocol_intf.PROTOCOL with type message = message

  val max_route_hops : int
  (** Hop bound used by the route server's candidate enumeration. *)

  val cached_route :
    t -> src:Pr_topology.Ad.id -> dst:Pr_topology.Ad.id -> Pr_policy.Flow.t -> Pr_topology.Path.t option
  (** The policy route currently cached by the source's route server
      for this flow's class, if any. *)

  val precompute_flows : t -> Pr_policy.Flow.t list -> int
  (** Synthesize and set up routes for the given flows ahead of
      traffic (the precomputation strategy of §6/E7). Returns how many
      routes were successfully installed. *)

  val pg_entries : t -> Pr_topology.Ad.id -> int
  (** Policy-gateway setup-state entries held at the AD (the state
      management concern of §6). *)

  val route_cache_entries : t -> Pr_topology.Ad.id -> int
  (** Policy routes cached by the AD's route server. *)

  val validations : t -> Pr_topology.Ad.id -> int
  (** Per-packet PG validations performed at the AD. *)

  val evictions : t -> Pr_topology.Ad.id -> int
  (** Setup-state entries evicted at the AD (bounded gateways only). *)

  val route_evictions : t -> Pr_topology.Ad.id -> int
  (** Policy routes evicted from the AD's route-server cache (bounded
      route caches only). *)

  val set_policy : t -> Pr_policy.Transit_policy.t -> unit
  (** Replace an AD's transit policy at runtime (paper section 2.3:
      policies change, slowly). The AD's gateways enforce the new terms
      immediately and a fresh LSA floods them; until that flood
      completes, remote route servers hold stale terms, their setups
      can be refused, and the refusal-retry logic re-synthesizes around
      the refusing AD. *)

  val current_policy : t -> Pr_topology.Ad.id -> Pr_policy.Transit_policy.t
  (** The AD's live transit policy (override or configured). *)

  val route_server_of : t -> Pr_topology.Ad.id -> Pr_topology.Ad.id
  (** The AD whose route server computes for this AD: itself, or its
      provider under stub delegation. *)

  val db_entries : t -> Pr_topology.Ad.id -> int
  (** Link-state database entries held at the AD (0-ish at stubs under
      delegation). *)
end

module Make (V : VARIANT) : S

module Orwg : S
(** Handles on data packets (the full architecture). *)

module No_handles : S
(** Every data packet carries the complete source route. *)

module Delegated : S
(** Scoped flooding + stub route-server delegation (the database
    distribution strategy of experiment E13). *)

module Pruned : S
(** Valley-first route synthesis (the pruning heuristic of
    experiment E7). *)

module Bounded_pg (C : sig
  val capacity : int
end) : S
(** Handles, with at most [capacity] setup-state entries per policy
    gateway (LRU eviction) — the ablation of experiment E11. *)
