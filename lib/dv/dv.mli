(** Classic Bellman–Ford distance-vector routing.

    The traditional baseline of paper §4.3: nodes exchange
    (destination, metric) vectors with neighbors, keep the best next
    hop per destination, and send triggered updates on change. It
    supports no policy whatsoever and, without split horizon, exhibits
    the count-to-infinity behaviour on link failure that experiment E2
    measures against ECMA's partial-ordering fix.

    Updates are event-driven (no periodic timers): a drained event
    queue is convergence. *)

val infinity_metric : int
(** Metrics at or above this are unreachable (64: comfortably above
    any legitimate path cost in generated topologies, low enough that
    counting to infinity terminates). *)

type message = (Pr_topology.Ad.id * int) list
(** A vector of (destination, metric) entries. *)

(** Instantiate the protocol with or without split horizon. *)
module type VARIANT = sig
  val name : string

  val split_horizon : bool
  (** With split horizon, routes are advertised back to the neighbor
      they were learned from with an infinite metric (poisoned
      reverse). *)
end

module Make (V : VARIANT) :
  Pr_proto.Protocol_intf.PROTOCOL with type message = message

module Plain : Pr_proto.Protocol_intf.PROTOCOL with type message = message
(** No split horizon: the count-to-infinity baseline. *)

module Split_horizon : Pr_proto.Protocol_intf.PROTOCOL with type message = message

(** Introspection used by tests and experiments. *)

val route_of :
  Plain.t -> at:Pr_topology.Ad.id -> dst:Pr_topology.Ad.id -> (int * Pr_topology.Ad.id) option
(** Current (metric, next hop) at an AD, if reachable. Works on
    [Plain] instances. *)
