(** Deterministic route-server workload generation.

    Models the query stream a route server would see (paper §5.4):

    - {e per-AD skewed demand} — a seed-shuffled hot set of host ADs
      receives most of the endpoint draws, with Zipf-like weights
      inside the hot set, so route- and handle-cache hit rates are
      meaningful rather than uniform-random;
    - {e time-of-day flow mix} — the flow's hour is derived from the
      simulated clock ([hour_scale] simulated time units per hour of
      day), so a run sweeps across hour-windowed Policy Terms and
      exercises diagram hour branches;
    - {e handle reuse} — a fraction of operations are data packets
      presenting a previously issued handle (drawn recency-skewed from
      a bounded ring the daemon maintains) instead of fresh queries.

    Everything is drawn from one {!Pr_util.Rng} stream, so a (seed,
    params) pair reproduces the operation sequence exactly. *)

type params = {
  hot_fraction : float;  (** fraction of host ADs forming the hot set *)
  hot_weight : float;  (** probability an endpoint comes from the hot set *)
  data_fraction : float;  (** fraction of ops that are data packets *)
  hour_scale : float;  (** simulated time units per hour of day *)
  auth_fraction : float;  (** fraction of flows that authenticate *)
}

val default : params
(** 10% hot set taking 80% of draws, 70% data packets, 2.0 time units
    per hour, 30% authenticated. *)

type op =
  | Query of Pr_policy.Flow.t
  | Data of int
      (** Present a previously issued handle: the int is a recency rank
          (0 = newest); the caller maps it into its ring of live
          handles. *)

type t

val create : ?params:params -> rng:Pr_util.Rng.t -> Pr_topology.Graph.t -> t
(** @raise Invalid_argument when the graph has no host ADs. *)

val next : t -> now:float -> op
(** Draw the next operation at simulated time [now]. *)
