module J = Pr_util.Json
module Texttable = Pr_util.Texttable
module Telemetry = Pr_telemetry.Registry
module Gate = Pr_telemetry.Gate

type row = {
  design_point : string;
  protocol : string;
  runs : int;
  ok : int;
  failed : int;
  crashed : int;
  timed_out : int;
  unconverged : int;
  budget_exhausted : int;
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
  delivered : int;
  flows : int;
  loop_violations : int;
  blackhole_violations : int;
  containment_violations : int;
  updates_rejected : int;
  quarantines : int;
  trace_dropped : int;
  wall_s : float;
}

let design_point_of protocol =
  match Pr_faults.Chaos.find_protocol protocol with
  | Some packed -> Pr_proto.Design_point.to_string (Pr_core.Registry.design_point packed)
  | None -> "?"

let empty_row protocol =
  {
    design_point = design_point_of protocol;
    protocol;
    runs = 0;
    ok = 0;
    failed = 0;
    crashed = 0;
    timed_out = 0;
    unconverged = 0;
    budget_exhausted = 0;
    messages = 0;
    bytes = 0;
    computations = 0;
    transit_computations = 0;
    msgs_lost = 0;
    table_total = 0;
    table_max = 0;
    msg_max = 0;
    msg_mean = 0.0;
    msg_p90 = 0.0;
    tbl_p90 = 0.0;
    delivered = 0;
    flows = 0;
    loop_violations = 0;
    blackhole_violations = 0;
    containment_violations = 0;
    updates_rejected = 0;
    quarantines = 0;
    trace_dropped = 0;
    wall_s = 0.0;
  }

let add_record row record =
  let int name = Result.value (J.int_member name record) ~default:0 in
  let row = { row with runs = row.runs + 1 } in
  match J.string_member "status" record with
  | Ok "ok" ->
    {
      row with
      ok = row.ok + 1;
      unconverged =
        (row.unconverged + if J.member "converged" record = Some (J.Bool false) then 1 else 0);
      budget_exhausted =
        (row.budget_exhausted
        + if J.member "outcome" record = Some (J.String "budget_exhausted") then 1 else 0);
      messages = row.messages + int "messages";
      bytes = row.bytes + int "bytes";
      computations = row.computations + int "computations";
      transit_computations = row.transit_computations + int "transit_computations";
      msgs_lost = row.msgs_lost + int "msgs_lost";
      table_total = row.table_total + int "table_total";
      table_max = Stdlib.max row.table_max (int "table_max");
      (* Per-AD skew: worst AD over all the design point's runs for the
         max/percentile figures; [msg_mean] accumulates the per-run
         means here and is normalized to their average in {!rows}. *)
      msg_max = Stdlib.max row.msg_max (int "msg_max");
      msg_mean = row.msg_mean +. Result.value (J.float_member "msg_mean" record) ~default:0.0;
      msg_p90 =
        Stdlib.max row.msg_p90 (Result.value (J.float_member "msg_p90" record) ~default:0.0);
      tbl_p90 =
        Stdlib.max row.tbl_p90 (Result.value (J.float_member "tbl_p90" record) ~default:0.0);
      delivered = row.delivered + int "delivered";
      flows = row.flows + int "flows";
      loop_violations = row.loop_violations + int "loop_violations";
      blackhole_violations = row.blackhole_violations + int "blackhole_violations";
      containment_violations = row.containment_violations + int "containment_violations";
      updates_rejected = row.updates_rejected + int "updates_rejected";
      quarantines = row.quarantines + int "quarantines";
      trace_dropped = row.trace_dropped + int "trace_dropped";
      wall_s = row.wall_s +. Result.value (J.float_member "wall_s" record) ~default:0.0;
    }
  | Ok "crashed" -> { row with crashed = row.crashed + 1 }
  | Ok "timed-out" -> { row with timed_out = row.timed_out + 1 }
  | Ok _ | Error _ -> { row with failed = row.failed + 1 }

let rows (sink : Sink.t) =
  let order = ref [] in
  let by_protocol = Hashtbl.create 16 in
  List.iter
    (fun (_id, record) ->
      let protocol = Result.value (J.string_member "protocol" record) ~default:"?" in
      let row =
        match Hashtbl.find_opt by_protocol protocol with
        | Some row -> row
        | None ->
          order := protocol :: !order;
          empty_row protocol
      in
      Hashtbl.replace by_protocol protocol (add_record row record))
    sink.Sink.records;
  List.rev_map
    (fun protocol ->
      let r = Hashtbl.find by_protocol protocol in
      if r.ok = 0 then r else { r with msg_mean = r.msg_mean /. float_of_int r.ok })
    !order

let columns =
  [
    ("design point", Texttable.Left);
    ("protocol", Texttable.Left);
    ("runs", Texttable.Right);
    ("ok", Texttable.Right);
    ("bad", Texttable.Right);
    ("messages", Texttable.Right);
    ("kbytes", Texttable.Right);
    ("comp", Texttable.Right);
    ("transit comp", Texttable.Right);
    ("tbl total", Texttable.Right);
    ("tbl max", Texttable.Right);
    ("msg max", Texttable.Right);
    ("msg mean", Texttable.Right);
    ("msg p90", Texttable.Right);
    ("tbl p90", Texttable.Right);
    ("delivered", Texttable.Right);
    ("lost", Texttable.Right);
    ("viols", Texttable.Right);
    ("rejected", Texttable.Right);
    ("quar", Texttable.Right);
    ("wall s", Texttable.Right);
  ]

let table rows_list =
  let t = Texttable.create ~columns in
  List.iter
    (fun r ->
      Texttable.add_row t
        [
          r.design_point;
          r.protocol;
          Texttable.cell_int r.runs;
          Texttable.cell_int r.ok;
          Texttable.cell_int (r.failed + r.crashed + r.timed_out);
          Texttable.cell_int r.messages;
          Texttable.cell_float ~decimals:1 (float_of_int r.bytes /. 1024.);
          Texttable.cell_int r.computations;
          Texttable.cell_int r.transit_computations;
          Texttable.cell_int r.table_total;
          Texttable.cell_int r.table_max;
          Texttable.cell_int r.msg_max;
          Texttable.cell_float ~decimals:1 r.msg_mean;
          Texttable.cell_float ~decimals:1 r.msg_p90;
          Texttable.cell_float ~decimals:1 r.tbl_p90;
          Printf.sprintf "%d/%d" r.delivered r.flows;
          Texttable.cell_int r.msgs_lost;
          Texttable.cell_int
            (r.loop_violations + r.blackhole_violations + r.containment_violations);
          Texttable.cell_int r.updates_rejected;
          Texttable.cell_int r.quarantines;
          Texttable.cell_float ~decimals:2 r.wall_s;
        ])
    rows_list;
  t

(* Every total is a sum or max of per-run counters, and the skew
   columns are computed from integers, so all of it is exact; only the
   summed worker wall clock is banded. *)
let gate_row r =
  {
    Gate.layer = "converge";
    kernel = r.design_point;
    config = [ ("protocol", J.String r.protocol) ];
    exact =
      [
        ("runs", J.Int r.runs);
        ("ok", J.Int r.ok);
        ("failed", J.Int r.failed);
        ("crashed", J.Int r.crashed);
        ("timed_out", J.Int r.timed_out);
        ("unconverged", J.Int r.unconverged);
        ("budget_exhausted", J.Int r.budget_exhausted);
        ("messages", J.Int r.messages);
        ("bytes", J.Int r.bytes);
        ("computations", J.Int r.computations);
        ("transit_computations", J.Int r.transit_computations);
        ("msgs_lost", J.Int r.msgs_lost);
        ("table_total", J.Int r.table_total);
        ("table_max", J.Int r.table_max);
        ("msg_max", J.Int r.msg_max);
        ("msg_mean", J.Float r.msg_mean);
        ("msg_p90", J.Float r.msg_p90);
        ("tbl_p90", J.Float r.tbl_p90);
        ("delivered", J.Int r.delivered);
        ("flows", J.Int r.flows);
        ("loop_violations", J.Int r.loop_violations);
        ("blackhole_violations", J.Int r.blackhole_violations);
        ("containment_violations", J.Int r.containment_violations);
        ("updates_rejected", J.Int r.updates_rejected);
        ("quarantines", J.Int r.quarantines);
        ("trace_dropped", J.Int r.trace_dropped);
      ];
    band = [ ("wall_s", J.Float r.wall_s) ];
    cores = 1;
  }

(* Merge the per-run registry snapshots the (forked) workers recorded:
   counters and histograms add, gauges keep the max — the telemetry one
   process running every shard sequentially would have accumulated.
   Records without a parseable snapshot (older JSONL, failed runs) are
   skipped, and so is a snapshot that gives a metric a different kind
   than earlier records did (a results file from an older build), with
   a note on stderr. *)
let merged_telemetry (sink : Sink.t) =
  List.fold_left
    (fun acc (id, record) ->
      match J.member "telemetry" record with
      | None -> acc
      | Some t -> (
        match Telemetry.snapshot_of_json t with
        | Error _ -> acc
        | Ok snap -> (
          match Telemetry.merge acc snap with
          | Ok merged -> merged
          | Error e ->
            Printf.eprintf "run %s: telemetry snapshot skipped: %s\n%!" id e;
            acc)))
    [] sink.Sink.records

let summary_json sink =
  Gate.document_json ~benchmark:"campaign"
    ~context:[ ("telemetry", Telemetry.snapshot_to_json (merged_telemetry sink)) ]
    (List.map gate_row (rows sink))

let write_summary ~path json =
  let oc = open_out path in
  output_string oc (J.to_string_pretty json);
  output_char oc '\n';
  close_out oc
