(* The update guard: the receive-path defense layer the paper's mutual
   suspicion between administrative domains calls for. Every protocol
   driver hands the guard a verdict about each arriving update (the
   protocol knows its own wire format and policy semantics; the guard
   knows nothing about messages) and the guard decides whether the
   update is believed:

   - invalid updates (malformed, stale-sequence, policy-inconsistent)
     are rejected and counted; [strikes] rejections quarantine the
     sender,
   - link flaps feed an RFC-2439-style damping penalty with exponential
     half-life decay; a neighbor whose penalty crosses [suppress] is
     quarantined until it decays below [reuse],
   - a quarantined neighbor's updates are dropped wholesale until a
     backoff (doubling per re-quarantine, capped) elapses; readmission
     fires [on_readmit], which the runner turns into an
     adjacency-bring-up resync so state missed during the quarantine is
     recovered.

   All timing comes from the simulation engine, all bookkeeping is
   incremental, and no randomness is drawn — the guard never perturbs
   the determinism discipline: a (seed, plan, guard-config) triple
   fully determines every run. *)

module Engine = Pr_sim.Engine
module Reg = Pr_telemetry.Registry
module Trace = Pr_obs.Trace

let log_src = Logs.Src.create "pr.guard" ~doc:"Update guard"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Registry handles resolved once at module init: the receive path
   never hashes a metric name. *)
let m_rejected = Reg.counter Reg.default "guard.updates_rejected"

let m_quarantines = Reg.counter Reg.default "guard.quarantines"

let m_drops = Reg.counter Reg.default "guard.quarantine_drops"

let m_readmissions = Reg.counter Reg.default "guard.readmissions"

let m_active = Reg.gauge Reg.default "guard.active_quarantines"

type config = {
  enabled : bool;
  strikes : int;  (* invalid updates from a neighbor before quarantine *)
  flap_penalty : float;  (* damping penalty added per observed flap *)
  half_life : float;  (* exponential decay half-life of the penalty *)
  suppress : float;  (* penalty threshold that quarantines a neighbor *)
  reuse : float;  (* penalty must decay below this before readmission *)
  backoff : float;  (* first quarantine duration *)
  backoff_max : float;  (* cap on the doubling backoff *)
}

(* Tuned so the benign profiles stay clear of suppression: the default
   plan's flap storm spreads its flaps over random links (~1 penalty
   per neighbor pair), while a chatter attacker flapping one adjacency
   every 0.25 time units accumulates penalty far past [suppress]. *)
let default_config =
  {
    enabled = true;
    strikes = 1;
    flap_penalty = 1.0;
    half_life = 5.0;
    suppress = 5.0;
    reuse = 1.0;
    backoff = 8.0;
    backoff_max = 64.0;
  }

let disabled = { default_config with enabled = false }

let float_str v =
  if Float.is_integer v && Float.abs v < 1e9 then
    string_of_int (int_of_float v)
  else Printf.sprintf "%g" v

let config_to_string c =
  if not c.enabled then "off"
  else
    Printf.sprintf
      "on(strikes=%d,flap-penalty=%s,half-life=%s,suppress=%s,reuse=%s,backoff=%s..%s)"
      c.strikes (float_str c.flap_penalty) (float_str c.half_life)
      (float_str c.suppress) (float_str c.reuse) (float_str c.backoff)
      (float_str c.backoff_max)

(* Exponential penalty decay: p · 2^(−dt/half_life). Monotone
   non-increasing in [dt] — the property test_guard checks. *)
let decay ~half_life p ~dt =
  if dt <= 0.0 || p <= 0.0 then p
  else p *. Float.exp2 (-.dt /. half_life)

type peer = {
  mutable penalty : float;
  mutable penalty_at : float;  (* time [penalty] was last materialized *)
  mutable strikes : int;
  mutable quarantined : bool;
  mutable next_backoff : float;
}

module Peers = Hashtbl.Make (Int)

type t = {
  cfg : config;
  engine : Engine.t;
  peers : peer Peers.t array;  (* peers.(at), keyed by nbr *)
  held : int array;  (* held.(at): neighbors [at] holds in quarantine *)
  on_readmit : at:int -> nbr:int -> unit;
  mutable rejected : int;
  mutable quarantines : int;
  mutable drops : int;
  mutable readmissions : int;
  mutable active : int;
}

let create ?(config = default_config) ~engine ~n ~on_readmit () =
  {
    cfg = config;
    engine;
    peers = Array.init n (fun _ -> Peers.create 4);
    held = Array.make n 0;
    on_readmit;
    rejected = 0;
    quarantines = 0;
    drops = 0;
    readmissions = 0;
    active = 0;
  }

let config t = t.cfg

(* Monomorphic int lookup that returns the record itself: no
   polymorphic hash and no [Some] box on the receive path. *)
let peer t at nbr =
  let tbl = t.peers.(at) in
  match Peers.find tbl nbr with
  | p -> p
  | exception Not_found ->
    let p =
      {
        penalty = 0.0;
        penalty_at = 0.0;
        strikes = 0;
        quarantined = false;
        next_backoff = t.cfg.backoff;
      }
    in
    Peers.replace tbl nbr p;
    p

let current_penalty t p ~now =
  decay ~half_life:t.cfg.half_life p.penalty ~dt:(now -. p.penalty_at)

(* Public introspection for tests. *)
let penalty t ~at ~nbr =
  let p = peer t at nbr in
  current_penalty t p ~now:(Engine.now t.engine)

let quarantined t ~at ~nbr = (peer t at nbr).quarantined

let note_active t = Reg.set m_active (float_of_int t.active)

(* Readmission: the backoff must have elapsed AND the damping penalty
   must have decayed below [reuse]. A still-hot penalty reschedules the
   check at the analytic decay time — continued misbehaviour pushes
   readmission out, but any finite attack ends in readmission (the
   qcheck property). *)
let rec try_readmit t p ~at ~nbr () =
  if p.quarantined then begin
    let now = Engine.now t.engine in
    let pen = current_penalty t p ~now in
    if pen >= t.cfg.reuse then begin
      let wait =
        Float.max 0.5
          ((t.cfg.half_life *. Float.log2 (pen /. t.cfg.reuse)) +. 0.25)
      in
      Engine.schedule t.engine ~delay:wait (try_readmit t p ~at ~nbr)
    end
    else begin
      p.quarantined <- false;
      p.strikes <- 0;
      t.held.(at) <- t.held.(at) - 1;
      t.active <- t.active - 1;
      note_active t;
      t.readmissions <- t.readmissions + 1;
      Reg.inc m_readmissions;
      Trace.note (Engine.trace t.engine) ~ts:now ~tid:0
        ~detail:(Printf.sprintf "ad %d readmitted neighbor %d" at nbr)
        "guard.readmit";
      Log.debug (fun m -> m "t=%.2f ad %d readmits neighbor %d" now at nbr);
      t.on_readmit ~at ~nbr
    end
  end

let quarantine t p ~at ~nbr ~reason =
  if not p.quarantined then begin
    let now = Engine.now t.engine in
    p.quarantined <- true;
    p.strikes <- 0;
    t.held.(at) <- t.held.(at) + 1;
    t.quarantines <- t.quarantines + 1;
    Reg.inc m_quarantines;
    t.active <- t.active + 1;
    note_active t;
    Trace.note (Engine.trace t.engine) ~ts:now ~tid:0
      ~detail:(Printf.sprintf "ad %d quarantined neighbor %d: %s" at nbr reason)
      "guard.quarantine";
    Log.info (fun m ->
        m "t=%.2f ad %d quarantines neighbor %d: %s" now at nbr reason);
    let backoff = p.next_backoff in
    p.next_backoff <- Float.min (p.next_backoff *. 2.0) t.cfg.backoff_max;
    Engine.schedule t.engine ~delay:backoff (try_readmit t p ~at ~nbr)
  end

(* Screen one arriving update: [verdict] is the protocol driver's
   validation result. Returns true when the update should be believed
   (delivered to the driver). A valid update at an AD that holds no
   neighbor in quarantine is believed without looking its sender up:
   the lookup could only find an unquarantined peer, and believing
   touches no counter. *)
let screen t ~at ~from verdict =
  if not t.cfg.enabled then true
  else
    match verdict with
    | Ok () when t.held.(at) = 0 -> true
    | _ ->
      let p = peer t at from in
      if p.quarantined then begin
        t.drops <- t.drops + 1;
        Reg.inc m_drops;
        false
      end
      else (
        match verdict with
        | Ok () -> true
        | Error reason ->
          t.rejected <- t.rejected + 1;
          Reg.inc m_rejected;
          Trace.note (Engine.trace t.engine) ~ts:(Engine.now t.engine) ~tid:0
            ~detail:(Printf.sprintf "ad %d rejected update from %d: %s" at from reason)
            "guard.reject";
          p.strikes <- p.strikes + 1;
          if p.strikes >= t.cfg.strikes then
            quarantine t p ~at ~nbr:from ~reason:("invalid update: " ^ reason);
          false)

(* Flap damping input: a link to [nbr] went down as seen from [at]. *)
let observe_link t ~at ~nbr ~up =
  if t.cfg.enabled && not up then begin
    let now = Engine.now t.engine in
    let p = peer t at nbr in
    p.penalty <- current_penalty t p ~now +. t.cfg.flap_penalty;
    p.penalty_at <- now;
    if (not p.quarantined) && p.penalty >= t.cfg.suppress then
      quarantine t p ~at ~nbr ~reason:"flap damping suppression"
  end

let updates_rejected t = t.rejected

let quarantines_total t = t.quarantines

let quarantine_drops t = t.drops

let readmissions t = t.readmissions

let active_quarantines t = t.active
