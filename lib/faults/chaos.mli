(** The resilience harness: run a protocol under a fault {!Plan} and
    check the paper's robustness invariants (§2.2, §5).

    A chaos run schedules the whole plan up front ({!Nemesis.install}),
    converges through it, and then checks:

    - {b loop-freedom}: after reconvergence no probe flow may loop.
      Loops observed {e during} the disturbance are counted separately
      as [transient_loops] — hop-by-hop designs loop transiently while
      databases disagree (experiment E10), which is expected, not a
      violation.
    - {b availability / no blackholes}: every probe flow that a
      baseline run on the same {e residual} topology delivers must also
      be delivered after the fault run reconverges. The baseline run
      has exactly the damage the plan never repaired (unhealed
      partitions, unrestarted crashes) applied, so plain
      unreachability is never miscounted as a protocol failure. Each
      probe gets up to 3 packets: ORWG repairs broken cached routes by
      dropping a packet and re-signaling (§5.4), which is recovery,
      not blackholing.
    - {b reconvergence}: the event queue must drain within the budget
      ([no-reconvergence] violation otherwise), and the report carries
      [reconvergence_time] — quiescence time minus the plan's last
      incident.
    - {b containment} (Byzantine plans, and any run where corruption
      could leak): after reconvergence, no honest up AD may hold
      routing state its own [check_update] validation would have
      rejected — the adversary's lies must not have stuck. The
      attacker itself is exempt.
    - {b availability under attack}: with a Byzantine attacker in the
      plan, only honest-pair flows are judged, and a baseline-delivers
      gap is reported as an ["availability"] violation rather than a
      ["blackhole"] — the honest internet must keep running despite
      the adversary.

    Defense is the update guard ({!Pr_guard.Guard}), interposed on
    every AD's receive path and link observations via the runner's
    filter/tap hooks: per-neighbor validation (each driver's
    [check_update]), RFC-2439-style flap damping, and quarantine with
    doubling backoff; readmission replays the adjacency bring-up
    exchange ([resync]). Pass {!Pr_guard.Guard.disabled} to measure
    the undefended protocol.

    Violations are recorded as ["invariant.violation"] trace instants
    when tracing is on.

    Determinism: probe flows come from [Rng.derive seed
    "chaos-probes"], faults from [Rng.derive seed "faults"] (the
    Byzantine stream split after the benign ones, so legacy plans draw
    identically) — a chaos run of the same (seed, plan, guard config)
    is byte-identical ({!report_json} contains no wall-clock), and a
    plan of [[]] reproduces the unfaulted scenario exactly. *)

type violation = {
  time : float;
  kind : string;
      (** ["loop"], ["blackhole"], ["containment"], ["availability"]
          or ["no-reconvergence"] *)
  flow : (Pr_topology.Ad.id * Pr_topology.Ad.id) option;
  detail : string;
}

type report = {
  protocol : string;
  scenario : string;
  seed : int;
  plan : string;  (** {!Plan.to_string} of the plan that ran *)
  guard : string;  (** {!Pr_guard.Guard.config_to_string} of the guard config *)
  attackers : Pr_topology.Ad.id list;
      (** resolved Byzantine attacker ADs; empty on benign plans *)
  converged : bool;
  stop_reason : string;
  sim_time : float;
  events : int;
  reconvergence_time : float;
  fault_log : (float * string) list;
  msgs_dropped : int;
  msgs_duplicated : int;
  msgs_delayed : int;
  msgs_reordered : int;
  msgs_corrupted : int;  (** attacker updates tampered in flight *)
  msgs_replayed : int;  (** captured stale updates re-injected *)
  msgs_forged : int;  (** forged announcements sent (per receiver) *)
  updates_rejected : int;  (** guard: validation rejections *)
  quarantines : int;  (** guard: quarantines entered *)
  quarantine_drops : int;  (** guard: updates dropped while quarantined *)
  readmissions : int;  (** guard: quarantines lifted *)
  checks : int;  (** mid-run checkpoints executed *)
  transient_loops : int;  (** loops observed at checkpoints *)
  attack_probes : int;
      (** honest-pair checkpoint probes sent while under attack *)
  attack_delivered : int;  (** of which delivered — availability under attack *)
  probes : int;  (** judged flows (honest pairs only under Byzantine plans) *)
  baseline_delivered : int;
  delivered : int;
  violations : violation list;
  messages : int;
  bytes : int;
  computations : int;
  transit_computations : int;
  msgs_lost : int;
  table_total : int;
  table_max : int;
  msg_max : int;
  msg_mean : float;
  msg_p90 : float;
  tbl_p90 : float;
}

val run :
  ?plan:Plan.t ->
  ?guard:Pr_guard.Guard.config ->
  ?flows:Pr_policy.Flow.t list ->
  ?probes:int ->
  ?churn:int * float ->
  ?max_events:int ->
  ?trace:Pr_obs.Trace.t ->
  Pr_core.Registry.packed ->
  Pr_core.Scenario.t ->
  report
(** Run the gauntlet. [plan] defaults to {!Plan.default}; [guard]
    (default {!Pr_guard.Guard.default_config}) configures the update
    guard — pass {!Pr_guard.Guard.disabled} for an undefended run;
    [flows] overrides the derived probe workload ([probes], default
    40, flows drawn from the scenario); [churn] is [(events, spacing)]
    for additional link churn on its own rng stream; [max_events]
    bounds the converge (exhaustion yields a [no-reconvergence]
    violation and a partial report rather than an exception). *)

val loop_violations : report -> int

val blackhole_violations : report -> int

val containment_violations : report -> int

val find_protocol : string -> Pr_core.Registry.packed option
(** {!Pr_core.Registry.find_opt} extended with the deliberately broken
    {!Broken} variant (["broken-ls"]), which is not in the registry. *)

val report_json : report -> Pr_util.Json.t
(** Deterministic rendering: identical (seed, plan) pairs produce
    byte-identical documents. *)

val pp : Format.formatter -> report -> unit
