(** Per-node accounting of protocol overhead.

    The paper's comparisons are in terms of information exchanged
    (messages, bytes), computation performed (route computations,
    especially at transit ADs — §5.3), and state held (routing table
    entries — §5.2.1). Every protocol records into one of these. *)

type t

val create : n:int -> t
(** [n] is the number of ADs. *)

val reset : t -> unit

val record_send : t -> Pr_topology.Ad.id -> bytes:int -> unit
(** One control message of the given size sent by the AD. *)

val record_loss : t -> Pr_topology.Ad.id -> unit
(** One control message lost in the network before reaching the AD —
    taken by a link that failed while it was in flight, addressed to a
    crashed AD, or eaten by a fault-plan drop. Charged to the intended
    {e receiver}: loss is the receiver's missing information. *)

val record_eviction : t -> Pr_topology.Ad.id -> ?count:int -> unit -> unit
(** One (or [count]) bounded-cache evictions at the AD — setup-handle
    or route-cache entries displaced under LRU pressure. State the AD
    chose to forget, the dual of the table-entry gauge. *)

val record_computation : t -> Pr_topology.Ad.id -> ?work:int -> unit -> unit
(** One route computation at the AD; [work] (default 1) scales it,
    e.g. by the number of nodes visited by a Dijkstra run. *)

val set_table_entries : t -> Pr_topology.Ad.id -> int -> unit
(** Gauge: current routing/forwarding table size at the AD. *)

val add_table_entries : t -> Pr_topology.Ad.id -> int -> unit

val messages : t -> int
(** Total control messages sent. *)

val bytes : t -> int

val computations : t -> int
(** Total computation work units. *)

val table_entries : t -> int
(** Sum of the table-size gauges. *)

val msgs_lost : t -> int
(** Total in-flight message losses (see {!record_loss}). *)

val evictions : t -> int
(** Total bounded-cache evictions (see {!record_eviction}). *)

val messages_of : t -> Pr_topology.Ad.id -> int

val bytes_of : t -> Pr_topology.Ad.id -> int

val computations_of : t -> Pr_topology.Ad.id -> int

val table_entries_of : t -> Pr_topology.Ad.id -> int

val msgs_lost_of : t -> Pr_topology.Ad.id -> int

val evictions_of : t -> Pr_topology.Ad.id -> int

val max_table_entries : t -> int
(** Largest per-AD table gauge — the state burden on the worst-loaded
    AD. *)

val snapshot : t -> t
(** An independent copy, for before/after deltas. *)

val diff : after:t -> before:t -> t
(** Counter-wise difference (gauges are taken from [after]). *)

val merge : t -> t -> unit
(** [merge into from] adds [from]'s per-AD counters and gauges into
    [into], so metrics recorded by independent workers combine to what
    one sequential recording would have produced.
    @raise Invalid_argument when the two differ in [n]. *)

val to_json : t -> Pr_util.Json.t
(** Full per-AD state, for shipping across a process boundary.
    Round-trips exactly through {!of_json}. *)

val of_json : Pr_util.Json.t -> (t, string) result
(** Accepts documents without a ["losses"] or ["evictions"] array
    (written before those counters existed) by reading zeros. *)

val load_series : t -> (string * float array) list
(** The per-AD counter vectors (["messages"], ["bytes"],
    ["computations"]) as floats, in the shape
    {!Pr_obs.Load_profile.of_series} and {!Pr_obs.Timeline} consume.
    Table gauges are not included: protocols expose table sizes
    directly via their [table_entries], not through this recorder. *)

val pp : Format.formatter -> t -> unit
