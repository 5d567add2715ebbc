(** The `prx serve` request loop: a route server under load and churn.

    Runs one deterministic simulated serving session: a
    {!Workload}-generated operation stream (query batches on a fixed
    cadence) against a {!Serve.t}, concurrent with

    - {e fault-plan churn} from [lib/faults] (link flaps, crashes,
      partitions take topology state up and down under the queries),
    - {e policy churn}: periodic [Policy_store.set_transit] flips on
      random transit ADs, bumping the store version and exercising the
      incremental diagram rebuild path.

    An update guard ({!Pr_guard.Guard}) watches the link-event stream:
    when its flap damping quarantines a chattering adjacency (e.g. the
    ["chatter"] Byzantine profile), the serving loop degrades
    gracefully into {e serve-stale} mode — it pins the last healthy
    diagram snapshot instead of refreshing into the churning database,
    publishes the pin's age as the [serve.stale_snapshot_age] gauge,
    and past a deadline of 4 x [interval] sheds the queries that would
    need a fresh synthesis ([serve.sheds]) while still answering
    cached ones. Readmission ends the mode and the next batch
    refreshes to the live version.

    The operation stream, fault schedule and flip schedule draw from
    independent [Rng.derive] streams of the run seed, so a (seed,
    config) pair replays the same session; only the measured wall-clock
    figures vary between hosts.

    Health checks run inside the session: every [check_every]-th
    answered query, each interior crossing of the returned path is
    re-admitted three ways (diagram walk vs {!Pr_policy.Compiled}
    bitsets vs the interpreted {!Pr_policy.Transit_policy.allows}
    oracle) and disagreements are counted; at the end the handle table
    is audited for leaks ({!Serve.self_check}) and the hash-cons store
    for duplicate nodes ({!Pdd.check}). {!healthy} folds these into
    one exit-code-ready boolean. *)

type config = {
  seed : int;
  target_ads : int;
  duration : float;  (** simulated time to run for *)
  batch : int;  (** operations per batch event *)
  interval : float;  (** simulated time between batches *)
  plan : Pr_faults.Plan.t;
  plan_name : string;  (** for the report only *)
  flip_every : float;  (** simulated time between policy flips; 0 = none *)
  route_capacity : int;
  handle_capacity : int;
  check_every : int;  (** cross-check every Nth answered query; 0 = never *)
  policy : Pr_policy.Gen.params;
  record_exact : bool;
      (** keep every raw query latency in [exact_latencies] (test /
          calibration sessions only; the serving loop itself accounts
          latency in a log2-bucket histogram) *)
}

val default_config : config
(** Seed 11, 56 ADs, the default fault plan, duration 40 at interval
    0.5 with 64-op batches, a policy flip every 4.0, restrictive
    fine-grained policies (the PADMIT/SYNTH benchmark setting), checks
    every 16th query. *)

type report = {
  config : config;
  ads : int;
  links : int;
  queries : int;
  data_packets : int;
  answered : int;
  no_routes : int;
  qps : float;  (** answered queries per wall-clock second of query work *)
  p50_ns : float;
  p99_ns : float;
  admit_ns : float;  (** one full diagram admit walk, min-of-batches *)
  spec_admit_ns : float;  (** Compiled.spec_allows on the same probes *)
  admit_probes : int;
  admit_alloc_w : float;
      (** words allocated per diagram admit ({!Pr_telemetry.Alloc});
          expected 0 *)
  handle_hit_rate : float;
  stats : Serve.stats;
  rebuild_p50_ns : float;  (** incremental refresh latency (0 if none) *)
  rebuild_max_ns : float;
  build_ns : float;  (** initial whole-database compile, wall ns *)
  diagram_nodes : int;
  diagram_preds : int;
  store_version : int;
  flips : int;
  faults : int;  (** nemesis incidents fired *)
  agreement_checks : int;
  agreement_failures : int;
  stale_batches : int;
      (** batches served in serve-stale mode — an update-guard
          quarantine was active, so the loop answered from the pinned
          last-healthy snapshot instead of refreshing *)
  queries_shed : int;
      (** queries shed past the degradation deadline (4 x interval of
          staleness): answering them would have taken a fresh synthesis
          on the stale database, so only cached answers were served *)
  max_stale_age : float;
      (** worst simulated-time age of the pinned snapshot ([0.0] when
          the session never went stale); also published as the
          [serve.stale_snapshot_age] registry gauge *)
  link_quarantines : int;
      (** adjacencies the guard's flap damping quarantined *)
  link_readmissions : int;  (** of which readmitted after backoff *)
  self_check_error : string option;  (** handle-leak / hash-cons audit *)
  latency : Pr_telemetry.Hist.t;  (** every query latency, log2 buckets *)
  rebuild : Pr_telemetry.Hist.t;  (** per-batch refresh latency when changed *)
  exact_latencies : float list;  (** raw latencies; [] unless [record_exact] *)
}

val run : config -> report

val healthy : report -> bool
(** No admission disagreements, no leak/audit error, and at least one
    answered query. *)

val row_json : report -> Pr_util.Json.t
(** One BENCH_serve.json results row. *)

val doc_json : reports:report list -> Pr_util.Json.t
(** The full BENCH_serve.json document ("route_server_serving"). *)

val pp_report : Format.formatter -> report -> unit

val check_config : config -> (config, string) result
(** The config back when a session can run it: capacities, batch size
    and [check_every] in range, a finite interval [> 0], a finite
    duration and flip period [>= 0], and policy fractions in [0, 1].
    Otherwise an error naming the first bad field. *)

val config_of_row :
  seed:int ->
  plan:Pr_faults.Plan.t ->
  plan_name:string ->
  Pr_util.Json.t ->
  (config, string) result
(** Rebuild the session config a BENCH_serve.json results row was
    generated with, falling back to the `prx serve` CLI defaults for
    fields older baselines did not record. A row-level ["plan"] field
    overrides [plan]/[plan_name], so one document can gate benign and
    attack rows together. The `prx bench diff` regression gate re-runs
    rows through this. A field of the wrong type, an unparseable plan
    or granularity, or a config {!check_config} refuses is an error. *)
