(** The experiment driver: run a protocol over a scenario and a
    workload, compare its behaviour against the policy oracle, and
    collect the paper's comparison metrics. *)

val oracle_max_hops : int
(** Hop bound used for ground-truth legal-route search (12, matching
    the ORWG route server's bound). *)

type result = {
  protocol : string;
  scenario : string;
  converged : bool;
  convergence_time : float;
  messages : int;  (** control messages over the whole run *)
  bytes : int;
  computations : int;  (** total route-computation work units *)
  transit_computations : int;  (** work at transit-capable ADs only *)
  table_total : int;
  table_max : int;
  flows : int;
  oracle_reachable : int;  (** flows with a transit-legal route (oracle) *)
  delivered : int;
  dropped : int;
  looped : int;
  prep_failed : int;
  availability_loss : int;
      (** flows with a route that is both transit-legal and acceptable
          to the source's criteria, yet not delivered — "no available
          route when in fact a legal route exists" (paper §5.1) *)
  transit_violations : int;  (** delivered over a path some transit AD's policy forbids *)
  source_violations : int;  (** delivered over a path the source's policy forbids *)
  stretch_mean : float;  (** mean delivered-cost / best-legal-cost ratio *)
  header_bytes_mean : float;  (** mean data header size over delivered packets *)
  setup_hops_mean : float;  (** mean setup walk length over fresh setups *)
  cache_hits : int;
}

val evaluate :
  Registry.packed ->
  Scenario.t ->
  flows:Pr_policy.Flow.t list ->
  unit ->
  result
(** Converge the protocol on the scenario, then send one packet per
    flow and classify outcomes against the oracle. The costs are
    {!Pr_proto.Runner.Make.totals} after the flows. *)

type convergence_probe = {
  initial_time : float;
  initial_messages : int;
  initial_bytes : int;
  after_failure_time : float;
  after_failure_messages : int;
  after_failure_converged : bool;
}

val convergence_after_failure :
  Registry.packed -> Scenario.t -> link:Pr_topology.Link.id -> convergence_probe
(** The E2 measurement: cost of initial convergence and of reacting to
    one link failure. *)

val availability :
  Registry.packed ->
  Scenario.t ->
  flows:Pr_policy.Flow.t list ->
  delivered:bool ->
  Pr_policy.Flow.t list
(** The sub-list of flows that were (or were not) delivered — used by
    experiments that need the identity of failing flows, not counts. *)

val result_columns : (string * Pr_util.Texttable.align) list
(** Standard column set for result tables. *)

val result_row : result -> string list
