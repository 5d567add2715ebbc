(** The campaign driver: expand, resume, execute, aggregate.

    One call runs a whole campaign: expands the {!Grid.spec}, reads
    the JSONL checkpoint and skips runs already completed, pushes the
    remainder through the {!Pool} (each in a forked worker), appends
    every outcome to the JSONL as it lands, and finally folds the file
    into {!Aggregate} rows and (optionally) the [BENCH_campaign.json]
    summary. *)

type report = {
  total : int;  (** runs in the expanded grid *)
  skipped : int;  (** completed in a previous invocation, not re-run *)
  executed : int;
  ok : int;
  not_ok : int;  (** failed + crashed + timed out this invocation *)
  rows : Aggregate.row list;  (** over the whole results file *)
  summary : Pr_util.Json.t;
}

val sweep :
  ?jobs:int ->
  ?timeout_s:float ->
  ?quiet:bool ->
  ?chaos:Exec.chaos ->
  ?summary_path:string ->
  ?trace_dir:string ->
  out:string ->
  Grid.spec ->
  (report, string) result
(** [sweep ~out spec] appends to (never truncates) the JSONL at
    [out]; a second invocation with the same spec therefore resumes,
    re-running only runs whose latest attempt is not [ok]. With
    [trace_dir] (created if missing), each executed run writes a
    Chrome trace of its simulation into the directory (see
    {!Exec.trace_filename}) and the pool writes its wall-clock worker
    timeline to [pool.json] there; [summary_path] receives the summary.
    [Error] names a path that could not be written. *)
