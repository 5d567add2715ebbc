(** Reduction of a campaign's JSONL into comparison exhibits.

    Folds the latest record per run into one row per protocol, tagged
    with the protocol's Table 1 design point, totalling the paper's
    three cost axes — information (messages, bytes), computation
    (total and at transit ADs), and state (table entries) — plus
    delivery and run-health counts. Renders as a
    {!Pr_util.Texttable} for the terminal and as the machine-readable
    [BENCH_campaign.json] summary. *)

type row = {
  design_point : string;
  protocol : string;
  runs : int;  (** attempts aggregated (latest per id) *)
  ok : int;
  failed : int;
  crashed : int;
  timed_out : int;
  unconverged : int;
  budget_exhausted : int;  (** ok runs whose event budget ran out *)
  messages : int;
  bytes : int;
  computations : int;
  transit_computations : int;
  msgs_lost : int;
  table_total : int;
  table_max : int;
  msg_max : int;
      (** messages sent by the worst-loaded AD of any ok run *)
  msg_mean : float;  (** mean per-AD message load, averaged over ok runs *)
  msg_p90 : float;  (** worst per-run p90 of per-AD message load *)
  tbl_p90 : float;  (** worst per-run p90 of per-AD table entries *)
  delivered : int;
  flows : int;
  loop_violations : int;
  blackhole_violations : int;
  containment_violations : int;
      (** honest ADs left holding state their own validation rejects *)
  updates_rejected : int;  (** guard validation rejections, summed *)
  quarantines : int;  (** guard quarantines entered, summed *)
  trace_dropped : int;
      (** trace events lost to recorder truncation, summed over ok
          runs (0 when the campaign did not trace) *)
  wall_s : float;  (** summed worker wall clock over ok runs *)
}

val rows : Sink.t -> row list
(** Grouped by protocol in first-appearance order. Numeric fields sum
    over the ok runs only; [table_max], [msg_max] and the p90 skew
    columns take the max over runs. *)

val table : row list -> Pr_util.Texttable.t

val summary_json : Sink.t -> Pr_util.Json.t
(** The [BENCH_campaign.json] document: one {!Pr_telemetry.Gate} row
    per design point (layer ["converge"], kernel the design point,
    config the protocol; every total exact, the summed wall clock
    banded), and beside the rows, as context the gate does not read,
    the per-run ["telemetry"] snapshots merged across every record
    that carries one (counters and histograms add, gauges keep the
    max). A record whose snapshot does not parse, or clashes in a
    metric's kind with the records before it, is left out of the
    merge; a clash is reported on stderr with the run id and the
    metric. *)
