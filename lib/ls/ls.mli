(** Classic link-state routing (flooding + Dijkstra).

    The second traditional baseline of paper §4.3: every AD floods its
    adjacencies, holds a complete topology database, and computes one
    shortest-path spanning tree used for all traffic regardless of
    source or policy. Fast convergence, no count-to-infinity — and no
    policy expressiveness. *)

type message = Pr_proto.Lsdb.lsa

include Pr_proto.Protocol_intf.PROTOCOL with type message := message

val next_hop_of :
  t -> at:Pr_topology.Ad.id -> dst:Pr_topology.Ad.id -> Pr_topology.Ad.id option
(** The AD's current next hop toward a destination (forcing the
    spanning-tree computation if the database changed). *)

val spf_runs : t -> int
(** Total shortest-path-first computations performed across all ADs —
    the baseline computation figure that experiment E5 compares
    against the policy designs. *)
