(** A [Unix.fork]-based worker pool for campaign runs.

    Each run executes in its own forked process — the isolation model
    the distributed-BGP-simulation literature recommends for sweep
    campaigns: a crash (or a runaway scenario hitting the wall-clock
    timeout) costs one run, not the campaign. The worker streams one
    JSON record over a pipe to the parent; the parent reaps workers as
    they finish, synthesizes records for the ones that died, and
    reports ordered progress ([k/total]) to stderr. *)

val log_src : Logs.src
(** Debug log source ("pr.campaign"): set its level to [Debug] (and
    install a reporter) to trace forks, reaps, kills and timeouts. *)

type status = Done | Failed | Crashed of int | Timed_out

val status_to_string : status -> string
(** ["ok"], ["failed"], ["crashed"], ["timed-out"] — the [status]
    field vocabulary of JSONL records. *)

type outcome = {
  run : Grid.run;
  status : status;
  record : Pr_util.Json.t;
      (** the worker's record, or a parent-synthesized one
          ([status = "crashed"/"timed-out"] plus the run parameters)
          when the worker died without reporting *)
  wall_s : float;
}

val run_all :
  ?jobs:int ->
  ?timeout_s:float ->
  ?quiet:bool ->
  ?trace:Pr_obs.Trace.t ->
  exec:(Grid.run -> Pr_util.Json.t) ->
  on_outcome:(outcome -> unit) ->
  Grid.run list ->
  int * int
(** [run_all ~exec ~on_outcome runs] keeps up to [jobs] (default 4)
    workers in flight; [exec] runs in the forked child and its record
    must carry a [status] field ({!Exec.run_record} does). A worker
    exceeding [timeout_s] (default 120) of wall clock is killed.
    [on_outcome] fires in the parent, in completion order. An [exec]
    that raises inside the child is reported as [Failed] with the
    exception text in the record. Returns [(ok, not_ok)] counts.
    With [quiet] no progress is written to stderr. When [trace]
    (default {!Pr_obs.Trace.disabled}) is enabled, each worker's
    lifetime is a span named by its run id on its pid's track,
    timestamped in wall-clock microseconds since pool start, with
    instants for timeouts, crashes and failures. *)
