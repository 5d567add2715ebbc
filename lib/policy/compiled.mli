(** Compiled policy terms: the allocation-free admit engine.

    The interpreted path ({!Transit_policy.allows}) re-walks
    [Policy_term.t] lists with [List.exists]/[List.mem] on every probe
    — an O(terms × ids) scan per edge relaxation that dominates
    restrictive-policy route synthesis. This module compiles a term
    list once per policy version into flat arrays of bit-level checks:

    - each {!Policy_term.ad_pred} becomes a packed {!Pr_util.Bitset}
      over AD ids plus a complement flag ([Any] = complement of empty,
      [Except ids] = complement of [ids]);
    - QOS and UCI lists become int bitmasks keyed by
      [Qos.index]/[Uci.index];
    - the hour window becomes a 24-bit mask ([None] = all hours, wrap
      windows set both end runs);
    - a whole term list becomes one [cterm array] probed with a
      while-loop — no closure, no allocation.

    Compiled admits are equivalent to interpreted admits by
    construction (the qcheck property in [test/test_policy.ml] pins
    this), so every consumer may switch freely between the two.

    {!specialize} goes one step further for route synthesis: all
    flow-only conditions (src, dst, qos, uci, hour, auth) are resolved
    once per flow, leaving only the prev/next bitset probes of the
    surviving terms in the Dijkstra inner loop. *)

type pred = { bits : Pr_util.Bitset.t; compl : bool }
(** [probe] semantics: [ad ∈ bits] XOR [compl]. Ids outside the
    universe [\[0, n)] are treated as not-in-[bits], which matches the
    interpreted semantics of [Only]/[Except] lists exactly. *)

type t

val compile : n:int -> Policy_term.t list -> t
(** [compile ~n terms] compiles [terms] for an internet of [n] ADs.
    Predicate ids outside [\[0, n)] are dropped from the bitsets (they
    can never match an in-universe AD). *)

val term_count : t -> int

type term_view = {
  v_src : pred;
  v_dst : pred;
  v_prev : pred;
  v_next : pred;
  v_qos_mask : int;  (** bit per [Qos.index] *)
  v_uci_mask : int;  (** bit per [Uci.index] *)
  v_hour_mask : int;  (** bit per hour of day, 24 bits *)
  v_auth_required : bool;
}
(** Read-only view of one compiled term — what downstream compilers
    (the serving layer's decision diagrams) consume instead of
    re-deriving masks from [Policy_term.t]. *)

val term_views : t -> term_view array
(** Views of every compiled term, in source order.  Fresh array, shared
    predicates. *)

val probe : pred -> Pr_topology.Ad.id -> bool

val hop_probe : pred -> Pr_topology.Ad.id -> bool
(** {!probe} on a hop: a negative id is an unknown hop (the flow enters
    or leaves the internet here), which every hop predicate admits. *)

val hop : Pr_topology.Ad.id option -> Pr_topology.Ad.id
(** A context hop as a {!hop_probe} id: [None] is [-1]. *)

val allows_crossing : t -> Flow.t -> prev:Pr_topology.Ad.id -> next:Pr_topology.Ad.id -> bool
(** Does some term admit the flow crossing the AD from [prev] to
    [next]? Negative hops are unknown ({!hop_probe}). Allocation-free. *)

val allows : t -> Policy_term.transit_ctx -> bool
(** Equivalent to {!Transit_policy.allows} on the source terms:
    {!allows_crossing} on the context's hops. *)

val admitting_term : t -> Policy_term.transit_ctx -> Policy_term.t option
(** Equivalent to {!Transit_policy.admitting_term}: the first source
    term admitting the crossing (what ORWG cites in a route setup). *)

type spec
(** A compiled policy specialized to one flow: only the prev/next
    predicates of terms whose flow-only conditions passed. *)

val no_spec : spec
(** The spec that admits nothing: what a policy with no surviving term
    specializes to. *)

val specialize : t -> Flow.t -> spec
(** When a surviving term constrains neither hop, the one shared
    always-admit spec: no allocation, and no probe per crossing. *)

val spec_allows : spec -> prev:Pr_topology.Ad.id -> next:Pr_topology.Ad.id -> bool
(** Equivalent to [allows_crossing t flow ~prev ~next] for the flow the
    spec was built from (negative hops unknown); two bitset probes per
    live term. *)

val supports_qos : t -> Qos.t -> bool
(** Does any term admit this QOS class at all? O(1) against the cached
    union mask. *)

val dest_allowed : t -> Pr_topology.Ad.id -> Qos.t -> bool
(** Does some term admit this destination for this QOS (ignoring every
    other condition)? The ECMA advertisement filter. *)

val admitted_sources_into :
  t ->
  Pr_util.Bitset.t ->
  dst:Pr_topology.Ad.id ->
  qos:Qos.t ->
  uci:Uci.t ->
  hour:int ->
  auth:bool ->
  prev:Pr_topology.Ad.id option ->
  next:Pr_topology.Ad.id option ->
  unit
(** Union into the accumulator every source AD [s] for which some term
    admits a flow [s → dst] with the given class/hour/auth between
    [prev] and [next] — the IDRP per-destination source mask, computed
    with one bitset union per passing term instead of an [n × terms]
    interpreted scan. The accumulator capacity must be the compile-time
    [n]. *)
