module Trace = Pr_obs.Trace

type report = {
  total : int;
  skipped : int;
  executed : int;
  ok : int;
  not_ok : int;
  rows : Aggregate.row list;
  summary : Pr_util.Json.t;
}

let ensure_dir dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let sweep ?jobs ?timeout_s ?(quiet = false) ?chaos ?summary_path ?trace_dir ~out spec =
  let runs = Grid.expand spec in
  let total = List.length runs in
  let completed = Sink.completed_ids (Sink.read ~path:out) in
  let todo = List.filter (fun (r : Grid.run) -> not (Hashtbl.mem completed r.id)) runs in
  let skipped = total - List.length todo in
  if (not quiet) && skipped > 0 then
    Printf.eprintf "resuming: %d/%d runs already completed in %s\n%!" skipped total out;
  Option.iter ensure_dir trace_dir;
  (* The pool's wall-clock trace lives beside the per-run simulated-time
     traces but in its own file: the two timebases must not share a
     document if timestamps are to stay monotone. *)
  let pool_trace =
    match trace_dir with
    | Some _ -> Trace.create ()
    | None -> Trace.disabled
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 out in
  let ok, not_ok =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Pool.run_all ?jobs ?timeout_s ~quiet ~trace:pool_trace
          ~exec:(Exec.run_record ?chaos ?trace_dir)
          ~on_outcome:(fun outcome -> Sink.append oc outcome.Pool.record)
          todo)
  in
  Option.iter
    (fun dir -> Trace.write ~path:(Filename.concat dir "pool.json") pool_trace)
    trace_dir;
  let sink = Sink.read ~path:out in
  let rows = Aggregate.rows sink in
  let summary = Aggregate.summary_json sink in
  Option.iter (fun path -> Aggregate.write_summary ~path summary) summary_path;
  { total; skipped; executed = List.length todo; ok; not_ok; rows; summary }
