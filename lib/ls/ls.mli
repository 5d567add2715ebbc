(** Classic link-state routing (flooding + Dijkstra).

    The second traditional baseline of paper §4.3: every AD floods its
    adjacencies, holds a complete topology database, and computes one
    shortest-path spanning tree used for all traffic regardless of
    source or policy. Fast convergence, no count-to-infinity — and no
    policy expressiveness. *)

type message = Pr_proto.Lsdb.lsa

include Pr_proto.Protocol_intf.PROTOCOL with type message := message

val flood : t -> Pr_proto.Ls_flood.t
(** The instance's flood, behind the {!Pr_proto.Ls_flood.Members} it
    includes; a wrapper includes them over it. *)

val next_hop_of :
  t -> at:Pr_topology.Ad.id -> dst:Pr_topology.Ad.id -> Pr_topology.Ad.id option
(** The AD's current next hop toward a destination (forcing the
    spanning-tree computation if the database changed). *)

val routes : t -> Pr_topology.Ad.id -> int
(** Destinations the AD's current next-hop table reaches, without
    recomputing the table: the table part of [table_entries], counted
    once per spanning tree, O(1). *)

val spf_runs : t -> int
(** Total shortest-path-first computations performed across all ADs —
    the baseline computation figure that experiment E5 compares
    against the policy designs. *)
