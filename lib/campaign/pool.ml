module J = Pr_util.Json
module Trace = Pr_obs.Trace

let log_src = Logs.Src.create "pr.campaign" ~doc:"Campaign worker pool"

module Log = (val Logs.src_log log_src : Logs.LOG)

type status = Done | Failed | Crashed of int | Timed_out

let status_to_string = function
  | Done -> "ok"
  | Failed -> "failed"
  | Crashed _ -> "crashed"
  | Timed_out -> "timed-out"

type outcome = { run : Grid.run; status : status; record : J.t; wall_s : float }

type worker = { run : Grid.run; pid : int; fd : Unix.file_descr; started : float }

let read_all fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  Buffer.contents buf

(* The record a worker failed to produce: the run's parameters plus
   how it died, so the JSONL stays one-record-per-attempt even for
   crashes. *)
let synthesized (run : Grid.run) status extra =
  J.Obj
    (Grid.params_json run
    @ (("status", J.String (status_to_string status)) :: extra))

let spawn ~exec (run : Grid.run) =
  let rfd, wfd = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (* Worker: compute one record, write it, and leave through _exit so
       no parent state (at_exit handlers, buffered channels) replays. *)
    Unix.close rfd;
    let record =
      try exec run
      with e -> synthesized run Failed [ ("error", J.String (Printexc.to_string e)) ]
    in
    let line = Bytes.of_string (J.to_string record ^ "\n") in
    let rec write_all off =
      if off < Bytes.length line then
        match Unix.write wfd line off (Bytes.length line - off) with
        | n -> write_all (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off
    in
    (try write_all 0 with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close wfd;
    Log.debug (fun m -> m "forked pid %d for %s" pid run.Grid.id);
    { run; pid; fd = rfd; started = Unix.gettimeofday () }

(* A reaped worker's outcome: its streamed record when it exited
   cleanly with a parsable report, a synthesized one otherwise. *)
let outcome_of_exit w proc_status wall_s =
  let payload = read_all w.fd in
  Unix.close w.fd;
  match proc_status with
  | Unix.WEXITED 0 -> (
    match J.parse (String.trim payload) with
    | Ok record ->
      let status =
        match J.string_member "status" record with
        | Ok "ok" -> Done
        | Ok _ | Error _ -> Failed
      in
      { run = w.run; status; record; wall_s }
    | Error e ->
      {
        run = w.run;
        status = Failed;
        record = synthesized w.run Failed [ ("error", J.String ("unparsable report: " ^ e)) ];
        wall_s;
      })
  | Unix.WEXITED code ->
    {
      run = w.run;
      status = Crashed code;
      record = synthesized w.run (Crashed code) [ ("exit_code", J.Int code) ];
      wall_s;
    }
  | Unix.WSIGNALED signal | Unix.WSTOPPED signal ->
    {
      run = w.run;
      status = Crashed 0;
      record = synthesized w.run (Crashed 0) [ ("signal", J.Int signal) ];
      wall_s;
    }

let run_all ?(jobs = 4) ?(timeout_s = 120.0) ?(quiet = false) ?(trace = Trace.disabled)
    ~exec ~on_outcome runs =
  let jobs = Stdlib.max 1 jobs in
  (* Pool spans are on the wall clock (microseconds since pool start),
     one track per worker pid — a different timebase from the
     simulated-time run traces, which is why they live in their own
     trace file. The parent records everything single-threaded, so the
     buffer stays in chronological order. *)
  let t0 = Unix.gettimeofday () in
  let wall_us () = (Unix.gettimeofday () -. t0) *. 1e6 in
  let total = List.length runs in
  let pending = Queue.create () in
  List.iter (fun r -> Queue.add r pending) runs;
  let active = ref [] in
  let completed = ref 0 in
  let ok = ref 0 in
  let not_ok = ref 0 in
  let finish outcome =
    incr completed;
    (match outcome.status with Done -> incr ok | _ -> incr not_ok);
    if not quiet then
      Printf.eprintf "[%d/%d] %-9s %s (%.2fs)\n%!" !completed total
        (status_to_string outcome.status)
        outcome.run.Grid.id outcome.wall_s;
    on_outcome outcome
  in
  while (not (Queue.is_empty pending)) || !active <> [] do
    while List.length !active < jobs && not (Queue.is_empty pending) do
      let w = spawn ~exec (Queue.pop pending) in
      if Trace.enabled trace then
        Trace.span_begin trace ~ts:(wall_us ()) ~tid:w.pid w.run.Grid.id;
      active := w :: !active
    done;
    let now = Unix.gettimeofday () in
    let reaped = ref false in
    active :=
      List.filter
        (fun w ->
          match Unix.waitpid [ Unix.WNOHANG ] w.pid with
          | 0, _ ->
            if now -. w.started > timeout_s then begin
              Log.debug (fun m -> m "killing pid %d (%s): past deadline" w.pid w.run.Grid.id);
              Unix.kill w.pid Sys.sigkill;
              ignore (Unix.waitpid [] w.pid);
              let payload = read_all w.fd in
              ignore payload;
              Unix.close w.fd;
              if Trace.enabled trace then begin
                let ts = wall_us () in
                Trace.instant trace ~ts ~tid:w.pid "worker.timeout";
                Trace.span_end trace ~ts ~tid:w.pid w.run.Grid.id
              end;
              reaped := true;
              finish
                {
                  run = w.run;
                  status = Timed_out;
                  record =
                    synthesized w.run Timed_out [ ("timeout_s", J.Float timeout_s) ];
                  wall_s = now -. w.started;
                };
              false
            end
            else true
          | _, proc_status ->
            Log.debug (fun m -> m "reaped pid %d (%s)" w.pid w.run.Grid.id);
            let outcome = outcome_of_exit w proc_status (now -. w.started) in
            if Trace.enabled trace then begin
              let ts = wall_us () in
              (match outcome.status with
              | Done -> ()
              | Crashed _ -> Trace.instant trace ~ts ~tid:w.pid "worker.crash"
              | Failed -> Trace.instant trace ~ts ~tid:w.pid "worker.failed"
              | Timed_out -> ());
              Trace.span_end trace ~ts ~tid:w.pid w.run.Grid.id
            end;
            reaped := true;
            finish outcome;
            false)
        !active;
    if (not !reaped) && !active <> [] then Unix.sleepf 0.01
  done;
  (!ok, !not_ok)
