(* Tests for the update guard (lib/guard): the damping-penalty decay
   algebra, quarantine/readmission liveness under arbitrary finite
   attack interleavings (the qcheck properties the guard's comments
   promise), and the screening state machine. *)

module Rng = Pr_util.Rng
module Engine = Pr_sim.Engine
module Guard = Pr_guard.Guard

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* --- Decay algebra (qcheck) ------------------------------------------ *)

let decay_monotone =
  QCheck.Test.make ~name:"damping penalty decays monotonically in dt" ~count:300
    QCheck.(
      triple (float_bound_inclusive 50.0) (float_bound_inclusive 20.0)
        (pair (float_bound_inclusive 30.0) (float_bound_inclusive 30.0)))
    (fun (p, hl, (dt_a, dt_b)) ->
      let half_life = 0.1 +. hl in
      let dt1 = Float.min dt_a dt_b and dt2 = Float.max dt_a dt_b in
      let d1 = Guard.decay ~half_life p ~dt:dt1 in
      let d2 = Guard.decay ~half_life p ~dt:dt2 in
      d2 <= d1 +. 1e-12 && d1 <= p +. 1e-12 && d2 >= 0.0)

let decay_composes =
  QCheck.Test.make
    ~name:"decaying in two steps equals decaying over the sum" ~count:300
    QCheck.(
      triple (float_bound_inclusive 50.0) (float_bound_inclusive 20.0)
        (pair (float_bound_inclusive 30.0) (float_bound_inclusive 30.0)))
    (fun (p, hl, (dt_a, dt_b)) ->
      let half_life = 0.1 +. hl in
      let dt1 = 0.01 +. dt_a and dt2 = 0.01 +. dt_b in
      let two_step =
        Guard.decay ~half_life (Guard.decay ~half_life p ~dt:dt1) ~dt:dt2
      in
      let one_step = Guard.decay ~half_life p ~dt:(dt1 +. dt2) in
      Float.abs (two_step -. one_step)
      <= 1e-6 *. Float.max 1.0 (Float.abs one_step))

let decay_halves_at_half_life () =
  Alcotest.(check (float 1e-9))
    "one half-life halves the penalty" 2.0
    (Guard.decay ~half_life:5.0 4.0 ~dt:5.0)

(* --- Liveness: every finite attack ends in readmission (qcheck) ------ *)

(* Arbitrary seed-derived interleavings of link flaps and invalid
   updates over random directed pairs: once the attack stops, the
   engine must drain (no perpetual rescheduling) with every quarantine
   lifted and the on_readmit hook fired exactly once per quarantine. *)
let attack_always_readmitted =
  QCheck.Test.make ~name:"every quarantined neighbor is eventually readmitted"
    ~count:60 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1) in
      let engine = Engine.create () in
      let n = 6 in
      let readmits = ref 0 in
      let guard =
        Guard.create ~engine ~n
          ~on_readmit:(fun ~at:_ ~nbr:_ -> incr readmits)
          ()
      in
      let t = ref 0.0 in
      for _ = 1 to 30 do
        t := !t +. Rng.float rng 1.5;
        let at = Rng.int rng n in
        let nbr = (at + 1 + Rng.int rng (n - 1)) mod n in
        let time = !t in
        if Rng.bool rng then
          Engine.schedule_at engine ~time (fun () ->
              Guard.observe_link guard ~at ~nbr ~up:false)
        else
          Engine.schedule_at engine ~time (fun () ->
              ignore (Guard.screen guard ~at ~from:nbr (Error "forged update")))
      done;
      (* Non-vacuity: at least one certain quarantine per case
         (strikes = 1 under the default config). *)
      Engine.schedule_at engine ~time:(!t +. 1.0) (fun () ->
          ignore (Guard.screen guard ~at:0 ~from:1 (Error "forged update")));
      (match Engine.run engine with
      | Engine.Drained -> ()
      | Engine.Reached_limit -> QCheck.Test.fail_report "engine did not drain");
      if Guard.quarantines_total guard = 0 then
        QCheck.Test.fail_report "attack produced no quarantine (vacuous case)";
      Guard.active_quarantines guard = 0
      && Guard.readmissions guard = Guard.quarantines_total guard
      && !readmits = Guard.readmissions guard)

(* --- Screening state machine ----------------------------------------- *)

let one_strike_quarantines () =
  let engine = Engine.create () in
  let guard = Guard.create ~engine ~n:4 ~on_readmit:(fun ~at:_ ~nbr:_ -> ()) () in
  check_bool "valid update believed" true (Guard.screen guard ~at:0 ~from:1 (Ok ()));
  check_bool "invalid update rejected" false
    (Guard.screen guard ~at:0 ~from:1 (Error "bad metric"));
  check_bool "sender quarantined on the first strike" true
    (Guard.quarantined guard ~at:0 ~nbr:1);
  check_bool "valid updates dropped while quarantined" false
    (Guard.screen guard ~at:0 ~from:1 (Ok ()));
  check_int "one rejection" 1 (Guard.updates_rejected guard);
  check_int "one drop" 1 (Guard.quarantine_drops guard);
  check_int "one quarantine" 1 (Guard.quarantines_total guard);
  check_bool "other direction unaffected" true
    (Guard.screen guard ~at:1 ~from:0 (Ok ()))

let strikes_accumulate () =
  let engine = Engine.create () in
  let config = { Guard.default_config with Guard.strikes = 3 } in
  let guard =
    Guard.create ~config ~engine ~n:4 ~on_readmit:(fun ~at:_ ~nbr:_ -> ()) ()
  in
  ignore (Guard.screen guard ~at:0 ~from:1 (Error "one"));
  ignore (Guard.screen guard ~at:0 ~from:1 (Error "two"));
  check_bool "two strikes below the threshold" false
    (Guard.quarantined guard ~at:0 ~nbr:1);
  ignore (Guard.screen guard ~at:0 ~from:1 (Error "three"));
  check_bool "third strike quarantines" true (Guard.quarantined guard ~at:0 ~nbr:1)

let disabled_guard_is_transparent () =
  let engine = Engine.create () in
  let guard =
    Guard.create ~config:Guard.disabled ~engine ~n:4
      ~on_readmit:(fun ~at:_ ~nbr:_ -> ())
      ()
  in
  check_bool "invalid update passes when disabled" true
    (Guard.screen guard ~at:0 ~from:1 (Error "bad"));
  Guard.observe_link guard ~at:0 ~nbr:1 ~up:false;
  check_int "nothing counted" 0 (Guard.updates_rejected guard);
  check_int "no quarantines" 0 (Guard.quarantines_total guard)

let flap_damping_suppresses () =
  let engine = Engine.create () in
  let guard = Guard.create ~engine ~n:4 ~on_readmit:(fun ~at:_ ~nbr:_ -> ()) () in
  Guard.observe_link guard ~at:2 ~nbr:3 ~up:false;
  check_bool "one flap is tolerated" false (Guard.quarantined guard ~at:2 ~nbr:3);
  for _ = 1 to 4 do
    Guard.observe_link guard ~at:2 ~nbr:3 ~up:false
  done;
  check_bool "rapid chatter crosses the suppress threshold" true
    (Guard.quarantined guard ~at:2 ~nbr:3);
  check_bool "penalty is observable" true (Guard.penalty guard ~at:2 ~nbr:3 >= 5.0)

let config_strings () =
  Alcotest.(check string)
    "disabled renders as off" "off"
    (Guard.config_to_string Guard.disabled);
  let s = Guard.config_to_string Guard.default_config in
  check_bool "enabled config renders its knobs" true
    (String.length s > 3 && String.sub s 0 3 = "on(")

(* --- Screening against the Hashtbl-only reference (qcheck) ----------- *)

(* The reference screen is the guard's own path before it kept a
   per-AD count of quarantined peers: every update looks its sender up
   in a table keyed by (at, nbr). The model keeps that table — strikes,
   quarantine flag and damping penalty per pair — applies the same
   strike and suppression rules, learns readmissions from the guard's
   callback, and predicts every verdict and every counter. *)
type model_peer = {
  mutable m_strikes : int;
  mutable m_quarantined : bool;
  mutable m_penalty : float;
  mutable m_penalty_at : float;
}

let screen_matches_reference =
  QCheck.Test.make ~name:"screen equals the Hashtbl-only reference" ~count:200
    QCheck.(pair small_int (int_range 1 3))
    (fun (seed, strikes) ->
      let rng = Rng.create (seed + 1) in
      let engine = Engine.create () in
      let n = 3 in
      let config = { Guard.default_config with Guard.strikes } in
      let table = Hashtbl.create 8 in
      let lookup at nbr =
        match Hashtbl.find_opt table (at, nbr) with
        | Some p -> p
        | None ->
          let p =
            { m_strikes = 0; m_quarantined = false; m_penalty = 0.0; m_penalty_at = 0.0 }
          in
          Hashtbl.replace table (at, nbr) p;
          p
      in
      let quarantines = ref 0 and readmissions = ref 0 and active = ref 0 in
      let rejected = ref 0 and drops = ref 0 and mismatch = ref None in
      let fail fmt = Printf.ksprintf (fun m -> if !mismatch = None then mismatch := Some m) fmt in
      let quarantine p =
        if not p.m_quarantined then begin
          p.m_quarantined <- true;
          p.m_strikes <- 0;
          incr quarantines;
          incr active
        end
      in
      let guard =
        Guard.create ~config ~engine ~n
          ~on_readmit:(fun ~at ~nbr ->
            let p = lookup at nbr in
            if not p.m_quarantined then fail "readmitted %d->%d while not quarantined" nbr at;
            p.m_quarantined <- false;
            p.m_strikes <- 0;
            incr readmissions;
            decr active)
          ()
      in
      let counters () =
        Printf.sprintf "q=%d r=%d a=%d rej=%d drops=%d" (Guard.quarantines_total guard)
          (Guard.readmissions guard) (Guard.active_quarantines guard)
          (Guard.updates_rejected guard) (Guard.quarantine_drops guard)
      and expected () =
        Printf.sprintf "q=%d r=%d a=%d rej=%d drops=%d" !quarantines !readmissions !active
          !rejected !drops
      in
      let t = ref 0.0 in
      for step = 1 to 80 do
        t := !t +. Rng.float rng 0.6;
        let at = Rng.int rng n in
        let nbr = (at + 1 + Rng.int rng (n - 1)) mod n in
        let op = Rng.int rng 4 in
        Engine.schedule_at engine ~time:!t (fun () ->
            let p = lookup at nbr in
            (if op = 0 then begin
               let now = Engine.now engine in
               p.m_penalty <-
                 Guard.decay ~half_life:config.Guard.half_life p.m_penalty
                   ~dt:(now -. p.m_penalty_at)
                 +. config.Guard.flap_penalty;
               p.m_penalty_at <- now;
               if p.m_penalty >= config.Guard.suppress then quarantine p;
               Guard.observe_link guard ~at ~nbr ~up:false
             end
             else begin
               let verdict = if op = 1 then Error "forged update" else Ok () in
               let want =
                 if p.m_quarantined then (incr drops; false)
                 else
                   match verdict with
                   | Ok () -> true
                   | Error _ ->
                     incr rejected;
                     p.m_strikes <- p.m_strikes + 1;
                     if p.m_strikes >= strikes then quarantine p;
                     false
               in
               let got = Guard.screen guard ~at ~from:nbr verdict in
               if got <> want then fail "step %d: screen %d->%d gave %b" step nbr at got
             end);
            if Guard.quarantined guard ~at ~nbr <> p.m_quarantined then
              fail "step %d: quarantine flag of %d->%d differs" step nbr at;
            if counters () <> expected () then
              fail "step %d: counters %s, reference %s" step (counters ()) (expected ()))
      done;
      (match Engine.run engine with
      | Engine.Drained -> ()
      | Engine.Reached_limit -> fail "engine did not drain");
      if counters () <> expected () then
        fail "drained: counters %s, reference %s" (counters ()) (expected ());
      match !mismatch with None -> true | Some m -> QCheck.Test.fail_report m)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "guard"
    [
      ( "decay",
        qsuite [ decay_monotone; decay_composes ]
        @ [ Alcotest.test_case "half-life halves" `Quick decay_halves_at_half_life ] );
      ("liveness", qsuite [ attack_always_readmitted ]);
      ("reference", qsuite [ screen_matches_reference ]);
      ( "screen",
        [
          Alcotest.test_case "one strike quarantines" `Quick one_strike_quarantines;
          Alcotest.test_case "strikes accumulate" `Quick strikes_accumulate;
          Alcotest.test_case "disabled guard is transparent" `Quick
            disabled_guard_is_transparent;
          Alcotest.test_case "flap damping suppresses chatter" `Quick
            flap_damping_suppresses;
          Alcotest.test_case "config strings" `Quick config_strings;
        ] );
    ]
