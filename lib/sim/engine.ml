module Pqueue = Pr_util.Pqueue
module Trace = Pr_obs.Trace
module Reg = Pr_telemetry.Registry
module Flight = Pr_telemetry.Flight

let log_src = Logs.Src.create "pr.engine" ~doc:"Discrete-event engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ===== Sharded-mode event keys ======================================

   The sequential engine executes events in (time, insertion-seq)
   order — {!Pr_util.Pqueue} breaks time ties with a global FIFO
   counter. The sharded engine reproduces the SAME total order without
   a global counter: an event is keyed (time, parent, k), where
   [parent] identifies the event whose execution scheduled it and [k]
   numbers the schedule calls that parent made. Two time-tied events
   compare by (parent execution order, k), which is exactly their
   sequential insertion order, so the sharded engine executes events
   in the sequential engine's order event-for-event — that is the
   whole byte-identity guarantee.

   Parent order is materialized lazily. Every executed event owns a
   [pkey]; its global sequence number [g] is assigned when the window
   synchronizer merges the per-shard execution logs (immediately for
   events executed on the main domain). Until then [g] is -1 and the
   per-shard [lseq] stands in: two unfinalized parents can only meet
   in one shard's queue if both executed on that shard in the current
   window (cross-shard events are inserted at barriers, after
   finalization), and there [lseq] order = execution order = the
   eventual [g] order. Finalization therefore never reorders a live
   heap. *)

type pkey = { mutable g : int; lseq : int }

type ev = { etime : float; par : pkey; k : int; fn : unit -> unit }

let compare_ev a b =
  let c = Float.compare a.etime b.etime in
  if c <> 0 then c
  else if a.par == b.par then compare a.k b.k
  else
    let ga = a.par.g and gb = b.par.g in
    if ga >= 0 && gb >= 0 then compare ga gb
    else if ga >= 0 then -1 (* finalized parents ran before any unfinalized *)
    else if gb >= 0 then 1
    else compare a.par.lseq b.par.lseq

(* A plain binary heap over [ev]; compared with {!compare_ev} so ties
   resolve without any shared counter. *)
module Evheap = struct
  type t = { mutable a : ev array; mutable len : int }

  let dummy = { etime = 0.0; par = { g = 0; lseq = 0 }; k = 0; fn = ignore }

  let create () = { a = Array.make 64 dummy; len = 0 }

  let length h = h.len

  let add h e =
    if h.len = Array.length h.a then begin
      let b = Array.make (2 * Array.length h.a) dummy in
      Array.blit h.a 0 b 0 h.len;
      h.a <- b
    end;
    let a = h.a in
    let i = ref h.len in
    h.len <- h.len + 1;
    a.(!i) <- e;
    let up = ref true in
    while !up && !i > 0 do
      let p = (!i - 1) / 2 in
      if compare_ev a.(!i) a.(p) < 0 then begin
        let tmp = a.(p) in
        a.(p) <- a.(!i);
        a.(!i) <- tmp;
        i := p
      end
      else up := false
    done

  let peek h = if h.len = 0 then None else Some h.a.(0)

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.a.(0) in
      h.len <- h.len - 1;
      let last = h.a.(h.len) in
      h.a.(h.len) <- dummy;
      if h.len > 0 then begin
        h.a.(0) <- last;
        let a = h.a and n = h.len in
        let i = ref 0 in
        let down = ref true in
        while !down do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let m = ref !i in
          if l < n && compare_ev a.(l) a.(!m) < 0 then m := l;
          if r < n && compare_ev a.(r) a.(!m) < 0 then m := r;
          if !m <> !i then begin
            let tmp = a.(!m) in
            a.(!m) <- a.(!i);
            a.(!i) <- tmp;
            i := !m
          end
          else down := false
        done
      end;
      Some top
    end
end

type wentry = { wev : ev; own : pkey }

let dummy_wentry = { wev = Evheap.dummy; own = Evheap.dummy.par }

(* One shard's half of the engine. Only its worker domain touches the
   mutable fields during a window; the main domain touches them only
   between barriers, when the worker is parked. *)
type lane = {
  lid : int;
  heap : Evheap.t;
  mutable lclock : float;
  mutable cur : pkey; (* pkey of the event currently executing *)
  mutable next_k : int;
  mutable next_lseq : int; (* never reset: unique per lane forever *)
  mutable wlog : wentry array; (* events executed this window, in order *)
  mutable wlen : int;
  outbox : ev list array; (* per destination lane, newest first *)
  mutable out_nonempty : bool;
  lreg : Reg.t;
  lm_events : Reg.counter;
  mutable lexec : int;
  mutable ltrace : Trace.t;
  mutable lexn : exn option;
}

type shared = {
  spec : Shard.spec;
  lanes : lane array;
  control : Evheap.t;
  mutable next_g : int;
  mutable ctl_par : pkey option; (* set while a control event executes *)
  mutable ctl_k : int;
  (* Window coordination: a classic monitor. The main domain publishes
     (lim_time/lim_ev/quota), bumps [round] and broadcasts; each worker
     executes one window per round and the last one signals [done_]. *)
  lock : Mutex.t;
  work : Condition.t;
  done_ : Condition.t;
  mutable round : int;
  mutable active : int;
  mutable stop : bool;
  mutable lim_time : float;
  mutable lim_ev : ev option;
  mutable quota : int;
  mutable hooks : (unit -> unit) list;
}

type mode = Single | Sharded of shared

(* The engine clock lives in an all-float record, which OCaml stores
   flat: advancing it once per event is a plain store, not a boxed
   float plus a write barrier. *)
type clock = { mutable now : float }

type t = {
  id : int;
  queue : (unit -> unit) Pqueue.t; (* single mode only *)
  clock : clock;
  mutable executed : int;
  mutable trace : Trace.t;
  mutable observer : (time:float -> pending:int -> unit) option;
  (* Registry handles resolved once at creation; the event loop never
     hashes a metric name. *)
  m_events : Reg.counter;
  m_depth : Reg.gauge;
  m_rate : Reg.gauge;
  mode : mode;
}

let next_id = Atomic.make 0

(* Which shard the calling domain is executing for, per engine:
   (engine id, lane id). The main domain keeps the default (-1, -1). *)
let ctx : (int * int) Domain.DLS.key = Domain.DLS.new_key (fun () -> (-1, -1))

let lane_of t =
  match t.mode with
  | Single -> None
  | Sharded s ->
    let eid, li = Domain.DLS.get ctx in
    if eid = t.id then Some s.lanes.(li) else None

let make_lane nlanes i =
  let lreg = Reg.create () in
  {
    lid = i;
    heap = Evheap.create ();
    lclock = 0.0;
    cur = { g = 0; lseq = 0 };
    next_k = 0;
    next_lseq = 0;
    wlog = Array.make 64 dummy_wentry;
    wlen = 0;
    outbox = Array.make nlanes [];
    out_nonempty = false;
    lreg;
    lm_events = Reg.counter lreg "engine.events";
    lexec = 0;
    ltrace = Trace.disabled;
    lexn = None;
  }

let create ?shards () =
  let mode =
    match shards with
    | None -> Single
    | Some spec when Shard.count spec <= 1 -> Single
    | Some spec ->
      let nlanes = Shard.count spec in
      Sharded
        {
          spec;
          lanes = Array.init nlanes (make_lane nlanes);
          control = Evheap.create ();
          next_g = 0;
          ctl_par = None;
          ctl_k = 0;
          lock = Mutex.create ();
          work = Condition.create ();
          done_ = Condition.create ();
          round = 0;
          active = 0;
          stop = false;
          lim_time = 0.0;
          lim_ev = None;
          quota = 0;
          hooks = [];
        }
  in
  {
    id = Atomic.fetch_and_add next_id 1;
    queue = Pqueue.create ();
    clock = { now = 0.0 };
    executed = 0;
    trace = Trace.disabled;
    observer = None;
    m_events = Reg.counter Reg.default "engine.events";
    m_depth = Reg.gauge Reg.default "engine.queue_depth";
    m_rate = Reg.gauge Reg.default "engine.events_per_sec";
    mode;
  }

let shard_count t =
  match t.mode with Single -> 1 | Sharded s -> Array.length s.lanes

let current_shard t =
  match t.mode with
  | Single -> -1
  | Sharded _ -> ( match lane_of t with Some ln -> ln.lid | None -> -1)

let shard_registry t i =
  match t.mode with Single -> Reg.default | Sharded s -> s.lanes.(i).lreg

let current_registry t =
  match lane_of t with Some ln -> ln.lreg | None -> Reg.default

let shard_owner t ad =
  match t.mode with Single -> 0 | Sharded s -> Shard.owner s.spec ad

let add_end_of_run_hook t f =
  match t.mode with Single -> () | Sharded s -> s.hooks <- f :: s.hooks

let now t =
  match t.mode with
  | Single -> t.clock.now
  | Sharded _ -> ( match lane_of t with Some ln -> ln.lclock | None -> t.clock.now)

let set_trace t trace =
  t.trace <- trace;
  match t.mode with
  | Single -> ()
  | Sharded s ->
    Array.iter
      (fun ln ->
        ln.ltrace <-
          (if Trace.capacity trace > 0 then
             Trace.create ~capacity:(Trace.capacity trace) ()
           else Trace.disabled))
      s.lanes

let trace t = match lane_of t with Some ln -> ln.ltrace | None -> t.trace

let set_observer t obs = t.observer <- obs

(* Key construction for the calling context. Main-context inserts that
   happen outside any control event (setup, between runs) synthesize a
   fresh root parent per insert, so root g order = insertion order =
   the sequential FIFO order for time ties. *)
let main_key s ~time fn =
  match s.ctl_par with
  | Some par ->
    let k = s.ctl_k in
    s.ctl_k <- k + 1;
    { etime = time; par; k; fn }
  | None ->
    let par = { g = s.next_g; lseq = 0 } in
    s.next_g <- s.next_g + 1;
    { etime = time; par; k = 0; fn }

let lane_key ln ~time fn =
  let k = ln.next_k in
  ln.next_k <- k + 1;
  { etime = time; par = ln.cur; k; fn }

let sched t ~time f =
  match t.mode with
  | Single -> Pqueue.add t.queue ~priority:time f
  | Sharded s -> (
    match lane_of t with
    | Some ln -> Evheap.add ln.heap (lane_key ln ~time f)
    | None -> Evheap.add s.control (main_key s ~time f))

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  sched t ~time:(now t +. delay) f

let schedule_at t ~time f =
  if time < now t then invalid_arg "Engine.schedule_at: time in the past";
  sched t ~time f

let schedule_for t ~ad ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule_for: negative delay";
  match t.mode with
  | Single -> Pqueue.add t.queue ~priority:(t.clock.now +. delay) f
  | Sharded s -> (
    let dst = Shard.owner s.spec ad in
    match lane_of t with
    | Some ln ->
      let e = lane_key ln ~time:(ln.lclock +. delay) f in
      if dst = ln.lid then Evheap.add ln.heap e
      else begin
        ln.outbox.(dst) <- e :: ln.outbox.(dst);
        ln.out_nonempty <- true
      end
    | None ->
      (* Workers are parked whenever the main domain runs, so pushing
         straight into the owner's heap is race-free. *)
      Evheap.add s.lanes.(dst).heap (main_key s ~time:(t.clock.now +. delay) f))

let pending t =
  match t.mode with
  | Single -> Pqueue.length t.queue
  | Sharded s ->
    Array.fold_left
      (fun acc ln -> acc + Evheap.length ln.heap)
      (Evheap.length s.control) s.lanes

type stop_reason = Drained | Reached_limit

(* Queue-depth counter cadence: every 64 executed events keeps the
   trace a small fraction of the event count while still resolving the
   flooding bursts that dominate queue depth. The same cadence feeds
   the engine.queue_depth gauge. *)
let depth_sample_mask = 63

(* ===== single-shard run ============================================ *)

let run_single ~max_events t =
  let budget = ref max_events in
  let executed_at_start = t.executed in
  let wall_start = Sys.time () in
  let rec loop () =
    if !budget <= 0 then begin
      Log.warn (fun m ->
          m "event limit reached: %d events executed, %d still pending at t=%g"
            t.executed (Pqueue.length t.queue) t.clock.now);
      Flight.note Flight.global ~ts:t.clock.now
        ~value:(float_of_int (Pqueue.length t.queue))
        ~detail:"event budget exhausted with work pending"
        "engine.reached_limit";
      Reached_limit
    end
    else if Pqueue.is_empty t.queue then Drained
    else begin
      t.clock.now <- Pqueue.top_priority t.queue;
      let f = Pqueue.pop_value t.queue in
      t.executed <- t.executed + 1;
      Reg.inc t.m_events;
      decr budget;
      f ();
      if t.executed land depth_sample_mask = 0 then begin
        let depth = Pqueue.length t.queue in
        Reg.set t.m_depth (float_of_int depth);
        if Trace.enabled t.trace then
          Trace.counter t.trace ~ts:t.clock.now ~tid:0
            ~value:(float_of_int depth) "engine.queue_depth"
      end;
      (match t.observer with
      | Some obs -> obs ~time:t.clock.now ~pending:(Pqueue.length t.queue)
      | None -> ());
      loop ()
    end
  in
  let reason = loop () in
  let wall = Sys.time () -. wall_start in
  if wall > 0.0 then
    Reg.set t.m_rate (float_of_int (t.executed - executed_at_start) /. wall);
  reason

(* ===== sharded run ================================================== *)

let before_limit s e =
  match s.lim_ev with
  | Some le -> compare_ev e le < 0
  | None -> e.etime < s.lim_time

let exec_lane_event ln e =
  ln.lclock <- e.etime;
  let own = { g = -1; lseq = ln.next_lseq } in
  ln.next_lseq <- ln.next_lseq + 1;
  ln.cur <- own;
  ln.next_k <- 0;
  if ln.wlen = Array.length ln.wlog then begin
    let b = Array.make (2 * ln.wlen) dummy_wentry in
    Array.blit ln.wlog 0 b 0 ln.wlen;
    ln.wlog <- b
  end;
  ln.wlog.(ln.wlen) <- { wev = e; own };
  ln.wlen <- ln.wlen + 1;
  ln.lexec <- ln.lexec + 1;
  Reg.inc ln.lm_events;
  e.fn ();
  if ln.lexec land depth_sample_mask = 0 && Trace.enabled ln.ltrace then
    Trace.counter ln.ltrace ~ts:ln.lclock ~tid:ln.lid
      ~value:(float_of_int (Evheap.length ln.heap))
      "engine.queue_depth"

let run_window s ln =
  let quota = ref s.quota in
  let go = ref true in
  while !go do
    if !quota <= 0 then go := false
    else
      match Evheap.peek ln.heap with
      | None -> go := false
      | Some e ->
        if before_limit s e then begin
          ignore (Evheap.pop ln.heap);
          exec_lane_event ln e;
          decr quota
        end
        else go := false
  done

let worker t s ln start_round =
  Domain.DLS.set ctx (t.id, ln.lid);
  Mutex.lock s.lock;
  let seen = ref start_round in
  let live = ref true in
  while !live do
    while s.round = !seen && not s.stop do
      Condition.wait s.work s.lock
    done;
    if s.stop then live := false
    else begin
      seen := s.round;
      Mutex.unlock s.lock;
      (try run_window s ln with e -> ln.lexn <- Some e);
      Mutex.lock s.lock;
      s.active <- s.active - 1;
      if s.active = 0 then Condition.signal s.done_
    end
  done;
  Mutex.unlock s.lock

(* Merge the per-shard window logs into the global execution order and
   assign [g]s. At every step each head entry's parent is already
   finalized (a same-window parent precedes its children in its own
   lane's log), so {!compare_ev} on heads is total and stable — the
   merge reproduces the order the sequential engine would have
   executed this window's events in. *)
let finalize_windows s =
  let lanes = s.lanes in
  let nl = Array.length lanes in
  let idx = Array.make nl 0 in
  let total = Array.fold_left (fun a ln -> a + ln.wlen) 0 lanes in
  for _ = 1 to total do
    let best = ref (-1) in
    for j = 0 to nl - 1 do
      if idx.(j) < lanes.(j).wlen then
        if
          !best < 0
          || compare_ev lanes.(j).wlog.(idx.(j)).wev
               lanes.(!best).wlog.(idx.(!best)).wev
             < 0
        then best := j
    done;
    let entry = lanes.(!best).wlog.(idx.(!best)) in
    entry.own.g <- s.next_g;
    s.next_g <- s.next_g + 1;
    idx.(!best) <- idx.(!best) + 1
  done;
  Array.iter
    (fun ln ->
      for i = 0 to ln.wlen - 1 do
        ln.wlog.(i) <- dummy_wentry
      done;
      ln.wlen <- 0)
    lanes;
  total

(* Deliver cross-shard events collected during the window. Times are
   clamped to the window limit: network sends never need it (a send at
   u crosses shards no earlier than u + delta >= limit), but delay-0
   deferrals from {!schedule_for} land at the next window boundary. *)
let drain_outboxes s =
  let nl = Array.length s.lanes in
  Array.iter
    (fun src ->
      if src.out_nonempty then begin
        for dst = 0 to nl - 1 do
          match src.outbox.(dst) with
          | [] -> ()
          | l ->
            src.outbox.(dst) <- [];
            List.iter
              (fun e ->
                let e =
                  if e.etime < s.lim_time then { e with etime = s.lim_time }
                  else e
                in
                Evheap.add s.lanes.(dst).heap e)
              (List.rev l)
        done;
        src.out_nonempty <- false
      end)
    s.lanes

let reached_limit_sharded t s =
  let per = Array.map (fun ln -> Evheap.length ln.heap) s.lanes in
  let pend = Array.fold_left ( + ) (Evheap.length s.control) per in
  let buf = Buffer.create 64 in
  Array.iteri
    (fun i d ->
      Buffer.add_string buf (Printf.sprintf "%s%d:%d" (if i > 0 then " " else "") i d))
    per;
  let depths = Buffer.contents buf in
  Log.warn (fun m ->
      m
        "event limit reached: %d events executed, %d still pending at t=%g \
         (per-shard pending [%s], control %d)"
        t.executed pend t.clock.now depths (Evheap.length s.control));
  Flight.note Flight.global ~ts:t.clock.now ~value:(float_of_int pend)
    ~detail:
      (Printf.sprintf
         "event budget exhausted with work pending; per-shard pending [%s], \
          control %d"
         depths (Evheap.length s.control))
    "engine.reached_limit";
  Reached_limit

let run_sharded ~max_events t s =
  let start = t.executed in
  let wall_start = Sys.time () in
  s.stop <- false;
  Array.iter (fun ln -> ln.lexn <- None) s.lanes;
  let start_round = s.round in
  let doms =
    Array.map (fun ln -> Domain.spawn (fun () -> worker t s ln start_round)) s.lanes
  in
  let park_and_join () =
    Mutex.lock s.lock;
    s.stop <- true;
    Condition.broadcast s.work;
    Mutex.unlock s.lock;
    Array.iter Domain.join doms
  in
  let lane_min () =
    Array.fold_left
      (fun acc ln ->
        match (Evheap.peek ln.heap, acc) with
        | None, _ -> acc
        | (Some _ as e), None -> e
        | Some e, Some b -> if compare_ev e b < 0 then Some e else Some b)
      None s.lanes
  in
  let observe () =
    match t.observer with
    | Some obs -> obs ~time:t.clock.now ~pending:(pending t)
    | None -> ()
  in
  let rec loop () =
    if t.executed - start >= max_events then reached_limit_sharded t s
    else
      match (Evheap.peek s.control, lane_min ()) with
      | None, None -> Drained
      | copt, lopt ->
        let control_first =
          match (copt, lopt) with
          | Some ce, Some le -> compare_ev ce le < 0
          | Some _, None -> true
          | None, _ -> false
        in
        if control_first then begin
          (* Control events — churn, fault actions, probes, anything
             scheduled from the main domain — execute one at a time on
             the main domain while every worker is parked, exactly when
             their key is globally minimal. They may therefore read and
             write state across shards, which is what keeps churn /
             nemesis / chaos closures working unmodified. *)
          let ce = Option.get copt in
          ignore (Evheap.pop s.control);
          t.clock.now <- ce.etime;
          let own = { g = s.next_g; lseq = 0 } in
          s.next_g <- s.next_g + 1;
          s.ctl_par <- Some own;
          s.ctl_k <- 0;
          t.executed <- t.executed + 1;
          Reg.inc t.m_events;
          ce.fn ();
          s.ctl_par <- None;
          observe ();
          loop ()
        end
        else begin
          (* Conservative window: all events with key below
             min(W + delta, next control key) are causally independent
             across shards, so the workers run them in parallel. *)
          let le = Option.get lopt in
          let w = le.etime in
          let e0 = w +. Shard.delta s.spec in
          (match copt with
          | Some ce when ce.etime <= e0 ->
            s.lim_time <- ce.etime;
            s.lim_ev <- copt
          | _ ->
            s.lim_time <- e0;
            s.lim_ev <- None);
          s.quota <- max_events - (t.executed - start);
          Mutex.lock s.lock;
          s.active <- Array.length s.lanes;
          s.round <- s.round + 1;
          Condition.broadcast s.work;
          while s.active > 0 do
            Condition.wait s.done_ s.lock
          done;
          Mutex.unlock s.lock;
          Array.iter
            (fun ln ->
              match ln.lexn with
              | Some e ->
                park_and_join ();
                raise e
              | None -> ())
            s.lanes;
          let n = finalize_windows s in
          t.executed <- t.executed + n;
          drain_outboxes s;
          Array.iter
            (fun ln -> if ln.lclock > t.clock.now then t.clock.now <- ln.lclock)
            s.lanes;
          Reg.set t.m_depth (float_of_int (pending t));
          observe ();
          loop ()
        end
  in
  let reason = loop () in
  park_and_join ();
  if Trace.capacity t.trace > 0 then
    Trace.merge_from t.trace (Array.map (fun ln -> ln.ltrace) s.lanes);
  List.iter (fun f -> f ()) (List.rev s.hooks);
  Array.iter
    (fun ln ->
      Reg.absorb Reg.default (Reg.snapshot ln.lreg);
      Reg.clear ln.lreg)
    s.lanes;
  Reg.set t.m_depth (float_of_int (pending t));
  let wall = Sys.time () -. wall_start in
  if wall > 0.0 then
    Reg.set t.m_rate (float_of_int (t.executed - start) /. wall);
  reason

let run ?(max_events = 10_000_000) t =
  match t.mode with
  | Single -> run_single ~max_events t
  | Sharded s -> run_sharded ~max_events t s

let events_executed t = t.executed
