(** Sequence-numbered link-state flooding, shared by every link-state
    protocol (plain LS, LS hop-by-hop with PTs, ORWG).

    Each AD originates an LSA describing its up adjacencies (and,
    in the policy protocols, its Policy Terms) and re-originates with a
    higher sequence number whenever an incident link changes state.
    Received LSAs that are newer than the stored copy are installed
    and flooded onward to all neighbors except the sender. *)

type t

type delta =
  | Unchanged  (** nothing accepted since the last drain *)
  | Full  (** database reset — everything may have changed *)
  | Origins of Pr_topology.Ad.id list
      (** exactly these origins' LSAs changed, deduplicated, oldest
          first *)

val create :
  Lsdb.lsa Pr_sim.Network.t ->
  terms_for:(Pr_topology.Ad.id -> Pr_policy.Policy_term.t list) ->
  ?flood_to:(Pr_topology.Ad.id -> bool) ->
  unit ->
  t
(** [terms_for ad] is the policy payload attached to [ad]'s LSAs
    (constant [\[\]] for non-policy protocols).

    [flood_to] scopes the flood: LSAs are only forwarded to neighbors
    satisfying the predicate (default: everyone). Every AD still
    {e originates} — a stub's LSA reaches its providers and floods
    onward within the scope — but out-of-scope ADs never receive
    databases. This implements the database distribution strategies of
    the paper's section 6: most ADs are stubs, and excluding them from
    the flood removes most of the distribution overhead at the price
    that their route servers must delegate. *)

val start : t -> unit
(** Every AD originates its first LSA and floods it. *)

val handle_message : t -> at:Pr_topology.Ad.id -> from:Pr_topology.Ad.id -> Lsdb.lsa -> unit

val handle_link : t -> at:Pr_topology.Ad.id -> up:bool -> unit
(** The AD re-originates and floods a fresh LSA reflecting its current
    adjacencies. *)

val reset_node : t -> Pr_topology.Ad.id -> unit
(** The AD restarted with state loss: its database is emptied (the
    origination sequence survives, lollipop-style), a fresh LSA is
    originated, and — modeling the adjacency bring-up database
    exchange of real link-state protocols — every up in-scope neighbor
    pushes its full database to the restarted AD. Call with the AD's
    links already restored. *)

val db : t -> Pr_topology.Ad.id -> Lsdb.t
(** The AD's current link-state database. *)

val db_version : t -> Pr_topology.Ad.id -> int
(** Monotonic per-AD database version, bumped on every accepted LSA.
    Synthesis results computed at version [v] remain valid exactly
    while [db_version] still returns [v] — protocols key their SPF and
    policy-route caches on it instead of eagerly flushing on change. *)

val set_on_change :
  t -> (Pr_topology.Ad.id -> origin:Pr_topology.Ad.id option -> unit) -> unit
(** Callback invoked at an AD whenever its database changes — used by
    protocols that must eagerly revalidate state ({!db_version} covers
    the common lazy-invalidation case). [origin] identifies whose LSA
    changed, [None] on a database reset, so eager consumers can scope
    their revalidation with {!delta_in_scope} just like lazy ones. *)

val take_delta : t -> Pr_topology.Ad.id -> delta
(** Drain the AD's accumulated dirty set: which origins' LSAs changed
    since this AD's consumer last drained. One drain point per AD —
    each protocol instance owns its flood, so its per-AD node state is
    that single consumer. Together with {!reachable_set} and
    {!delta_in_scope} this replaces "db_version moved, recompute" with
    "recompute only if the delta can touch my region".

    The first drain at an AD answers [Full] and starts tracking its
    dirty origins; before it nothing is recorded, so protocols that
    never drain keep no per-AD dirty state. *)

val reachable_set : t -> Pr_topology.Ad.id -> Pr_util.Bitset.t
(** The region the AD's routes depend on: every AD reachable from it
    through bidirectionally-confirmed adjacencies of its own database
    (the same edge-validity rule the protocols' SPFs apply). *)

val delta_in_scope :
  t -> Pr_topology.Ad.id -> reach:Pr_util.Bitset.t -> Pr_topology.Ad.id list -> bool
(** Can changes to these origins' LSAs affect routes computed over
    [reach]? True iff some origin is inside the region or advertises a
    confirmed adjacency attaching it to the region. Any origin further
    away cannot alter routes among region members: every edge such
    routes use is advertised by two region members whose LSAs did not
    change. *)

val db_entries : t -> Pr_topology.Ad.id -> int

(** {2 Adversarial surface}

    Shared realization of the [PROTOCOL] adversarial hooks for the
    link-state families. Replay needs no validation here: stale
    sequence numbers are shed by {!Lsdb.insert}, so re-injected old
    LSAs never displace newer state — the guard's job is content no
    honest origin can emit. *)

val check_lsa : t -> at:Pr_topology.Ad.id -> Lsdb.lsa -> (unit, string) result
(** Accepts everything honest flooding can deliver (including
    duplicates and late copies); rejects out-of-range ids, negative
    costs, adjacency delays that are not finite and > 0, adjacencies
    over links the real topology does not contain, and Policy Terms
    owned by someone other than the origin. Term content is not
    checked against the static config — ORWG mutates transit policies
    live, so only ownership is invariant.

    The last accepted record per origin is remembered by physical
    identity and answered [Ok ()] without re-checking; rejections are
    recomputed every time. Every field the check reads is immutable and
    the graph is static, so the verdict equals a fresh check's. *)

val audit_db : t -> at:Pr_topology.Ad.id -> string option
(** First LSA in the AD's database that {!check_lsa} would reject —
    the containment ground truth. *)

val corrupt_lsa : t -> rng:Pr_util.Rng.t -> Lsdb.lsa -> Lsdb.lsa option
(** Retarget one adjacency onto a non-existent link (index-safe,
    detectable, never confusable with an honest link-down). [None] for
    adjacency-free LSAs or complete graphs. *)

val forge_lsa : t -> Pr_topology.Ad.id -> (Lsdb.lsa * int) option
(** A far-future-sequence LSA carrying a fabricated adjacency — the
    classic shadowing attack. [None] in complete graphs. *)

val resync : t -> at:Pr_topology.Ad.id -> nbr:Pr_topology.Ad.id -> unit
(** [nbr] pushes its full database to [at] (the directed form of
    {!reset_node}'s bring-up exchange), recovering whatever [at]
    dropped while it had [nbr] quarantined. *)
