(** Execution of one grid run inside a worker process.

    Builds the scenario the run's parameters describe, converges the
    protocol (with scheduled link churn interleaved when the run asks
    for it), pushes the workload through the forwarding plane, and
    reduces the {!Pr_sim.Metrics} to the totals the paper compares:
    messages, bytes, route computations (split out at transit ADs),
    and routing-table state. *)

type chaos = {
  crash_id : string option;
      (** a worker whose run id matches dies with exit code 66 —
          exercises the pool's crash isolation *)
  hang_id : string option;
      (** a worker whose run id matches sleeps forever — exercises the
          per-run timeout *)
}

type t = {
  run : Grid.run;
  converged : bool;
  stop_reason : string;  (** ["drained"] or ["event-budget"] *)
  outcome : string;
      (** ["completed"], or ["budget_exhausted"] when the event budget
          ran out — a result with partial metrics, not a worker
          failure (so resume does not re-run it) *)
  sim_time : float;
  messages : int;
  bytes : int;
  computations : int;
  transit_computations : int;
  msgs_lost : int;  (** messages lost in flight (faults, crashes) *)
  table_total : int;
  table_max : int;
  msg_max : int;  (** messages sent by the worst-loaded AD *)
  msg_mean : float;  (** mean messages per AD *)
  msg_p90 : float;  (** 90th percentile of per-AD messages *)
  tbl_p90 : float;  (** 90th percentile of per-AD table entries *)
  delivered : int;
  loop_violations : int;
      (** post-reconvergence forwarding loops found by the resilience
          harness (0 when the run's fault profile is ["none"]) *)
  blackhole_violations : int;
      (** probes the residual-topology baseline delivers but the
          faulted run does not (0 when the profile is ["none"]) *)
  containment_violations : int;
      (** honest ADs left holding state their own validation rejects
          (Byzantine profiles; 0 when the profile is ["none"]) *)
  updates_rejected : int;
      (** updates the {!Pr_guard.Guard} validation screen rejected *)
  quarantines : int;  (** neighbor quarantines the guard entered *)
  chaos_fields : (string * Pr_util.Json.t) list;
      (** extra record fields a fault-profile run carries
          (reconvergence time, transient loops, ...) *)
  wall_s : float;
  trace_file : string option;
      (** basename of the Chrome trace written under [trace_dir] *)
  trace_dropped : int;
      (** events the recorder discarded because its buffer filled (0
          when not tracing); the written trace is a prefix of the run
          when nonzero *)
  time_to_first_route : float option;
      (** simulated time the first routing-table entry appeared
          (only measured when tracing, via {!Pr_obs.Timeline}) *)
}

val trace_filename : Grid.run -> string
(** The run's trace basename: its id with ['/'] flattened to ['_'],
    plus [".json"]. *)

val execute :
  ?chaos:chaos -> ?trace_dir:string -> Grid.run -> (t, string) result
(** [Error] reports an unknown protocol name or fault profile; every
    simulation-level problem is folded into the result's fields
    instead. When [trace_dir] is given (the directory must exist), the
    run executes with an enabled recorder and writes a Chrome trace
    named {!trace_filename} into it. Runs whose [faults] profile is
    not ["none"] go through {!Pr_faults.Chaos} — the workload doubles
    as the invariant probe set and violation counts land in the
    record; tracing is not supported on that path. *)

val to_json : t -> Pr_util.Json.t
(** The run's JSONL record: {!Grid.params_json} fields, then
    [status = "ok"] and the measured totals. *)

val run_record :
  ?chaos:chaos -> ?trace_dir:string -> Grid.run -> Pr_util.Json.t
(** [execute] then [to_json]; an [Error] becomes a record with
    [status = "failed"] and an [error] field. Successful records also
    carry a ["telemetry"] snapshot — the {!Pr_telemetry.Registry}
    delta this run produced in its (forked) worker — which
    {!Aggregate} merges across shards. The function handed to
    {!Pool.run_all} as its [exec]. *)
