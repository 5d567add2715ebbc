(** Policy decision diagrams: whole-database compilation of transit
    policies into one hash-consed DAG.

    {!Pr_policy.Compiled} turns a term list into flat bitset checks —
    still a scan over terms per probe. This module compiles each AD's
    terms the rest of the way into a decision diagram in the FDD/BDD
    style: a DAG whose internal nodes either {e branch} on a small
    flow attribute (QOS class, UCI, authentication, hour of day — one
    array index each) or {e test} an AD predicate (source,
    destination, previous hop, next hop — one bitset probe each), with
    [true]/[false] leaves. Admission is a single root-to-leaf walk
    with zero allocation; terms that can no longer matter never get
    probed, and a term that is already fully satisfied short-circuits
    to the [true] leaf.

    Variable order is fixed: the AD itself (an array of per-AD roots),
    then QOS, UCI, auth, hour, then src, dst, prev, next predicates.

    All nodes — across every AD in the database — are deduplicated
    through one hash-cons store, so structurally equal sub-diagrams
    are physically shared and structural equality is pointer equality.
    [check] audits that invariant.

    {!db} tracks a {!Pr_policy.Policy_store}: [refresh] recompiles
    only the ADs whose policy object changed since the last refresh
    (detected by physical equality, the store's own sharing
    discipline) and installs the new roots in fresh arrays, so an
    outstanding {!snapshot} keeps answering from the exact database
    version it captured even while [set_transit] churn continues. *)

type node
(** A diagram node. Physically shared; never mutated. *)

type store
(** The hash-cons store: interned predicates and nodes. *)

val store_create : unit -> store

val store_nodes : store -> int
(** Interned internal nodes (leaves excluded). *)

val store_preds : store -> int
(** Interned distinct AD predicates. *)

val compile : store -> Pr_policy.Compiled.t -> node
(** Compile one AD's terms to its diagram root. Every compilation
    sharing a [store] must come from the same AD universe size. *)

val leaf : bool -> node

val is_false_leaf : node -> bool
(** Is this the [false] leaf? An AD whose root it is admits no
    crossing at all. *)

val admit_node :
  node -> Pr_policy.Flow.t -> prev:Pr_topology.Ad.id -> next:Pr_topology.Ad.id -> bool
(** One root-to-leaf walk; allocation-free. A negative prev/next means
    the flow enters/leaves the internet at this AD, which every
    predicate admits (the [None] hop of [Policy_term] semantics). *)

val flow_entry : node -> Pr_policy.Flow.t -> node
(** Partial evaluation against the flow-only variables (QOS, UCI,
    auth, hour, src, dst): walks branches until the first prev/next
    test (or leaf) and returns that node. The result depends only on
    prev/next, so route synthesis resolves it once per (flow, AD) and
    then pays at most a few probes per path crossing. No nodes are
    built — the result is a shared sub-diagram. *)

val entry_admit : node -> prev:Pr_topology.Ad.id -> next:Pr_topology.Ad.id -> bool
(** Finish a {!flow_entry} walk for a concrete crossing (negative hops
    unknown, as in {!admit_node}). *)

(** {1 Whole-database diagrams over a policy store} *)

type db

val db_create : ?store:store -> Pr_policy.Policy_store.t -> db
(** Compile every AD of the store's current version. *)

val db_store : db -> store

val refresh : db -> Pr_topology.Ad.id list
(** Catch up with the policy store: recompile the diagrams of exactly
    the ADs whose [Transit_policy.t] object changed since the last
    refresh, publish fresh roots (a fresh spine, and fresh copies of
    the 256-AD chunks they fall in), and return the ADs
    recompiled, in increasing order ([\[\]] when the store version is
    unchanged). *)

val rebuilds : db -> int
(** Refresh passes that recompiled at least one AD (the initial full
    build counts). *)

val rebuilt_ads : db -> int
(** Total AD recompilations across all rebuilds (initial build counts
    [n]). *)

type snapshot
(** An immutable view of one database version: the roots published
    by the matching [refresh]. Reads against a snapshot are
    unaffected by later [set_transit]/[refresh] churn. *)

val snapshot : db -> snapshot
(** The current version's snapshot ({e without} refreshing — call
    {!refresh} first to catch up). *)

val snapshot_version : snapshot -> int

val root : snapshot -> Pr_topology.Ad.id -> node

val admit :
  snapshot ->
  ad:Pr_topology.Ad.id ->
  Pr_policy.Flow.t ->
  prev:Pr_topology.Ad.id ->
  next:Pr_topology.Ad.id ->
  bool
(** Does [ad]'s policy (at this snapshot's version) admit the crossing?
    Equivalent to [Compiled.allows] / interpreted [Transit_policy.allows]
    on the same terms — the qcheck suite pins this. *)

val check : db -> (unit, string) result
(** Hash-cons invariant audit: no two structurally equal but
    physically distinct nodes are reachable from the current roots,
    and every reachable node is interned in the store. *)
