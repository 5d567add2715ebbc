(** Per-node accounting of protocol overhead.

    The paper's comparisons are in terms of information exchanged
    (messages, bytes), computation performed (route computations,
    especially at transit ADs — §5.3), and state held (routing table
    entries — §5.2.1). This recorder counts the first two, plus the
    messages lost in flight; every protocol records into it. State is
    not recorded here: each protocol reports it directly through its
    [table_entries]. The record functions are the one emit point of
    charged work, and the only writers of the process totals
    ["net.sends"] and ["net.losses"] in {!Pr_telemetry.Registry.default}. *)

type t

val create : n:int -> t
(** [n] is the number of ADs. *)

val record_sends : t -> Pr_topology.Ad.id -> copies:int -> bytes:int -> unit
(** [copies] control messages of [bytes] each sent by the AD, also
    added to ["net.sends"]. The network is its one caller: a protocol
    charges a message through [Network.charge], [send] or [broadcast]. *)

val record_loss : t -> Pr_topology.Ad.id -> unit
(** One control message lost in the network before reaching the AD —
    taken by a link that failed while it was in flight, addressed to a
    crashed AD, or eaten by a fault-plan drop. Charged to the intended
    {e receiver}: loss is the receiver's missing information. Also
    added to ["net.losses"]. The network is its one caller. *)

val record_computation : t -> Pr_topology.Ad.id -> ?work:int -> unit -> unit
(** One route computation at the AD; [work] (default 1) scales it,
    e.g. by the number of nodes visited by a Dijkstra run. Its one
    caller is [Pr_proto.Probe.computation]. *)

val messages : t -> int
(** Total control messages sent. *)

val bytes : t -> int

val computations : t -> int
(** Total computation work units. *)

val msgs_lost : t -> int
(** Total in-flight message losses (see {!record_loss}). *)

val messages_of : t -> Pr_topology.Ad.id -> int

val computations_of : t -> Pr_topology.Ad.id -> int

val to_json : t -> Pr_util.Json.t
(** The per-AD counters: [n], then the ["messages"], ["bytes"],
    ["computations"] and ["losses"] arrays. *)

val load_series : t -> (string * float array) list
(** The per-AD counter vectors (["messages"], ["bytes"],
    ["computations"]) as floats, in the shape
    {!Pr_obs.Load_profile.of_series} and {!Pr_obs.Timeline} consume. *)
