module Pqueue = Pr_util.Pqueue
module Trace = Pr_obs.Trace
module Reg = Pr_telemetry.Registry

let log_src = Logs.Src.create "pr.engine" ~doc:"Discrete-event engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  queue : Pqueue.Calls.t;
  clock : Pqueue.Calls.clock;
      (* advanced by the queue itself, which also adds the delays: no
         event time is boxed on its way in or out *)
  mutable executed : int;
  trace : Trace.t;
  mutable observer : (time:float -> pending:int -> unit) option;
  (* Registry handles resolved once at creation; the event loop never
     hashes a metric name. *)
  m_events : Reg.counter;
  m_depth : Reg.gauge;
  m_rate : Reg.gauge;
}

let create ?(trace = Trace.disabled) () =
  {
    queue = Pqueue.Calls.create ();
    clock = { Pqueue.Calls.now = 0.0 };
    executed = 0;
    trace;
    observer = None;
    m_events = Reg.counter Reg.default "engine.events";
    m_depth = Reg.gauge Reg.default "engine.queue_depth";
    m_rate = Reg.gauge Reg.default "engine.events_per_sec";
  }

let now t = t.clock.now

let trace t = t.trace

let set_observer t obs = t.observer <- obs

let schedule t ~delay f =
  (* Written so that NaN fails too: a NaN time would sit unordered in
     the queue. *)
  if not (delay >= 0.0) then invalid_arg "Engine.schedule: negative delay";
  Pqueue.Calls.add_after t.queue t.clock ~delay f

let schedule_at t ~time f =
  if not (time >= t.clock.now) then invalid_arg "Engine.schedule_at: time in the past";
  Pqueue.Calls.add t.queue ~priority:time f

let schedule_call t ~delay f x =
  if not (delay >= 0.0) then invalid_arg "Engine.schedule_call: negative delay";
  Pqueue.Calls.add_call_after t.queue t.clock ~delay f x

let[@inline] schedule_call_on t ~chan ~delay f x =
  if not (delay >= 0.0) then invalid_arg "Engine.schedule_call_on: negative delay";
  Pqueue.Calls.add_call_on t.queue t.clock ~chan ~delay f x

let schedule_fanout t ~delay f x ~mask =
  if not (delay >= 0.0) then invalid_arg "Engine.schedule_fanout: negative delay";
  Pqueue.Calls.add_fanout_after t.queue t.clock ~delay f x ~mask

let pending t = Pqueue.Calls.length t.queue

let queue_cells t = Pqueue.Calls.cells t.queue

let queue_census t = Pqueue.Calls.census t.queue

type stop_reason = Drained | Reached_limit

(* Queue-depth counter cadence: every 64 executed events keeps the
   trace a small fraction of the event count while still resolving the
   flooding bursts that dominate queue depth. The same cadence feeds
   the engine.queue_depth gauge. *)
let depth_sample_mask = 63

let run ?(max_events = 10_000_000) t =
  let budget = ref max_events in
  let executed_at_start = t.executed in
  let wall_start = Sys.time () in
  let rec loop () =
    if !budget <= 0 then begin
      Log.warn (fun m ->
          m "event limit reached: %d events executed, %d still pending at t=%g"
            t.executed (Pqueue.Calls.length t.queue) t.clock.now);
      Trace.note t.trace ~ts:t.clock.now ~tid:0
        ~value:(float_of_int (Pqueue.Calls.length t.queue))
        ~detail:"event budget exhausted with work pending" "engine.reached_limit";
      Reached_limit
    end
    else if Pqueue.Calls.is_empty t.queue then Drained
    else begin
      t.executed <- t.executed + 1;
      decr budget;
      Pqueue.Calls.run_top t.queue t.clock;
      if t.executed land depth_sample_mask = 0 then begin
        let depth = Pqueue.Calls.length t.queue in
        Reg.set t.m_depth (float_of_int depth);
        if Trace.enabled t.trace then
          Trace.counter t.trace ~ts:t.clock.now ~tid:0
            ~value:(float_of_int depth) "engine.queue_depth"
      end;
      (match t.observer with
      | Some obs -> obs ~time:t.clock.now ~pending:(Pqueue.Calls.length t.queue)
      | None -> ());
      loop ()
    end
  in
  (* Counted once per run, a run a handler ends by raising too. *)
  let account () =
    let wall = Sys.time () -. wall_start and ran = t.executed - executed_at_start in
    Reg.add t.m_events ran;
    if wall > 0.0 then Reg.set t.m_rate (float_of_int ran /. wall)
  in
  Fun.protect ~finally:account loop

let events_executed t = t.executed
