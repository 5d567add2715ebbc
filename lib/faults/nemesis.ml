module Engine = Pr_sim.Engine
module Network = Pr_sim.Network
module Trace = Pr_obs.Trace
module Rng = Pr_util.Rng
module Graph = Pr_topology.Graph
module Link = Pr_topology.Link

let log_src = Logs.Src.create "pr.faults" ~doc:"Fault injection"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  mutable log : (float * string) list;  (* reverse chronological *)
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable reordered : int;
  mutable corrupted : int;
  mutable partition_cut : Link.id list;
  mutable replayed : int;
  mutable forged : int;
  mutable attackers : Pr_topology.Ad.id list;
}

let fault_log t = List.rev t.log

let dropped t = t.dropped

let duplicated t = t.duplicated

let delayed t = t.delayed

let reordered t = t.reordered

let partition_cut t = t.partition_cut

let corrupted t = t.corrupted

let replayed t = t.replayed

let forged t = t.forged

let attackers t = t.attackers

let in_window (w : Plan.window) now = now >= w.Plan.from_time && now <= w.Plan.until_time

(* One message-fault rule. The window makes the record mixed, so
   [prob] stays a boxed float that passes to [Rng.chance] as is. *)
type rule = { prob : float; max_extra : float; window : Plan.window }

(* Does any rule fire on this message? Rules are tried in plan order
   and the walk stops at the first that fires, so later rules draw
   nothing — the draw sequence of the plan's list order. *)
let[@inline] fires rules ~now rng =
  let hit = ref false and i = ref 0 in
  while (not !hit) && !i < Array.length rules do
    let r = rules.(!i) in
    if in_window r.window now && Rng.chance rng r.prob then hit := true;
    incr i
  done;
  !hit

(* Sum of the latency every firing rule adds, in plan order. *)
let[@inline] extra_latency rules ~now rng =
  let acc = ref 0.0 in
  for i = 0 to Array.length rules - 1 do
    let r = rules.(i) in
    if in_window r.window now && Rng.chance rng r.prob then
      acc := !acc +. Rng.float rng r.max_extra
  done;
  !acc

(* The copy list of a message no fault touched, shared by all of them. *)
let unperturbed = [ 0.0 ]

let install (type msg) (net : msg Network.t) ~rng ?crash ?restart ?corrupt
    ?forge (plan : Plan.t) =
  let engine = Network.engine net in
  let graph = Network.graph net in
  let t =
    {
      log = [];
      dropped = 0;
      duplicated = 0;
      delayed = 0;
      reordered = 0;
      corrupted = 0;
      partition_cut = [];
      replayed = 0;
      forged = 0;
      attackers = [];
    }
  in
  let trace = Network.trace net in
  let note ~tid name time what =
    t.log <- (time, what) :: t.log;
    Trace.note trace ~ts:time ~tid ~detail:what name;
    Log.info (fun m -> m "t=%.2f %s" time what)
  in
  (* Message-level faults fire per send: trace-only, like sends. *)
  let instant ~tid name =
    if Trace.enabled trace then Trace.instant trace ~ts:(Engine.now engine) ~tid name
  in
  (* Without protocol-aware callbacks (tests driving a bare network),
     fall back to the same links-then-node sequence Runner.crash_ad
     performs, minus the handler muting and state reset. *)
  let fallback_links : (int, Link.id list) Hashtbl.t = Hashtbl.create 4 in
  let crash =
    match crash with
    | Some f -> f
    | None ->
      fun ad ->
        if Network.node_is_up net ad then begin
          let mine = ref [] in
          Graph.iter_neighbors graph ad ~f:(fun _nbr lid ->
              if Network.link_is_up net lid then mine := lid :: !mine);
          let mine = List.sort_uniq compare !mine in
          List.iter (fun lid -> Network.set_link_state net lid ~up:false) mine;
          Hashtbl.replace fallback_links ad mine;
          Network.set_node_state net ad ~up:false
        end
  in
  let restart =
    match restart with
    | Some f -> f
    | None ->
      fun ad ->
        if not (Network.node_is_up net ad) then begin
          Network.set_node_state net ad ~up:true;
          let mine = Option.value (Hashtbl.find_opt fallback_links ad) ~default:[] in
          Hashtbl.remove fallback_links ad;
          List.iter (fun lid -> Network.set_link_state net lid ~up:true) mine
        end
  in
  (* One independent stream per concern, split in a fixed order, so the
     number of draws one action makes never shifts another's. *)
  let msg_rng = Rng.split rng in
  let sched_rng = Rng.split rng in
  (* Message-level faults become a delivery interposer. Each kind's
     rules sit in an array in plan order and are walked without
     closures; a rule keeps its probability boxed, so handing it to
     [Rng.chance] allocates nothing. *)
  let rules pick = Array.of_list (List.filter_map pick plan) in
  let drops =
    rules (function
      | Plan.Drop { prob; window } -> Some { prob; max_extra = 0.0; window }
      | _ -> None)
  and dups =
    rules (function
      | Plan.Duplicate { prob; window } -> Some { prob; max_extra = 0.0; window }
      | _ -> None)
  and delays =
    rules (function
      | Plan.Delay { prob; max_extra; window } -> Some { prob; max_extra; window }
      | _ -> None)
  and reorders =
    rules (function
      | Plan.Reorder { prob; max_extra; window } -> Some { prob; max_extra; window }
      | _ -> None)
  in
  if Plan.has_message_faults plan then begin
    let has_delay = delays <> [||] in
    (* Latest scheduled arrival per directed neighbor pair: the FIFO
       clamp floor. Plain added latency must not overtake earlier
       messages on the same channel — only Reorder may do that. One
       flat float per directed unique-neighbor slot (parallel links
       share their pair's slot, hence one floor), 0 before the first
       clamp. *)
    let last_arrival =
      Float.Array.make (Array.length (snd (Graph.unique_csr graph))) 0.0
    in
    Network.set_delivery_interposer net
      (Some
         (fun ~src:_ ~dst ~slot:pair ~link ->
           let now = Engine.now engine in
           if fires drops ~now msg_rng then begin
             t.dropped <- t.dropped + 1;
             instant ~tid:dst "fault.drop";
             []
           end
           else begin
             let base_delay = (Graph.link graph link).Link.delay in
             let base = now +. base_delay in
             let extra_d = extra_latency delays ~now msg_rng in
             let extra_r = extra_latency reorders ~now msg_rng in
             if extra_d > 0.0 then begin
               t.delayed <- t.delayed + 1;
               instant ~tid:dst "fault.delay"
             end;
             if extra_r > 0.0 then begin
               t.reordered <- t.reordered + 1;
               instant ~tid:dst "fault.reorder"
             end;
             let clamp = has_delay && extra_r = 0.0 in
             let arrival =
               if extra_r > 0.0 then base +. extra_d +. extra_r
               else if has_delay then begin
                 (* Clamp even undelayed messages: one may not overtake
                    an earlier delayed one on the same channel. *)
                 let floor_a = Float.Array.get last_arrival pair in
                 let a = base +. extra_d in
                 let a = if a >= floor_a then a else floor_a in
                 Float.Array.set last_arrival pair a;
                 a
               end
               else base
             in
             let copies = ref [] in
             for i = 0 to Array.length dups - 1 do
               let r = dups.(i) in
               if in_window r.window now && Rng.chance msg_rng r.prob then begin
                 t.duplicated <- t.duplicated + 1;
                 instant ~tid:dst "fault.dup";
                 let dup_arrival = arrival +. (0.25 *. base_delay) in
                 if clamp then Float.Array.set last_arrival pair dup_arrival;
                 copies := (dup_arrival -. base) :: !copies
               end
             done;
             match !copies with
             | [] when arrival = base -> unperturbed
             | dup_copies -> (arrival -. base) :: List.rev dup_copies
           end))
  end;
  (* Byzantine actions: one attacker AD per run (for actions with
     [ad = None]), chosen from its own stream split after the benign
     ones so legacy plans draw identically. The attacker's outgoing
     updates are tampered via the network's message-tamper hook; forged
     and replayed updates are injected through the normal send path. *)
  if Plan.has_byzantine plan then begin
    let byz_rng = Rng.split rng in
    let attacker_default =
      match Graph.transit_ids graph with
      | [] -> Rng.int byz_rng (Graph.n graph)
      | pool -> Rng.choose byz_rng pool
    in
    let resolve ad = Option.value ad ~default:attacker_default in
    let attackers_l =
      List.sort_uniq compare
        (List.filter_map
           (function
             | Plan.Corrupt { ad; _ } | Plan.Forge { ad; _ }
             | Plan.Flap_chatter { ad; _ } -> Some (resolve ad)
             | Plan.Replay _ -> Some attacker_default
             | _ -> None)
           plan)
    in
    t.attackers <- attackers_l;
    let corrupt_specs =
      List.filter_map
        (function
          | Plan.Corrupt { prob; ad; window } -> Some (prob, resolve ad, window)
          | _ -> None)
        plan
    in
    let want_capture =
      List.exists (function Plan.Replay _ -> true | _ -> false) plan
    in
    (* Ring of the attackers' recent sends, captured pre-corruption:
       replayed updates are well-formed but stale by re-injection time. *)
    let capture_cap = 32 in
    let captured : (Pr_topology.Ad.id * int * msg) Queue.t = Queue.create () in
    (* Self-injected traffic (forge / replay re-sends) passes the tamper
       hook untouched and is never re-captured. *)
    let injecting = ref false in
    if corrupt_specs <> [] || want_capture then
      Network.set_message_tamper net
        (Some
           (fun ~src ~dst ~bytes msg ->
             if !injecting then None
             else begin
               if want_capture && List.mem src attackers_l then begin
                 if Queue.length captured >= capture_cap then
                   ignore (Queue.pop captured);
                 Queue.push (dst, bytes, msg) captured
               end;
               let now = Engine.now engine in
               match corrupt with
               | None -> None
               | Some corrupt_fn ->
                 let rec go = function
                   | [] -> None
                   | (prob, atk, w) :: rest ->
                     if src = atk && in_window w now && Rng.chance byz_rng prob
                     then (
                       match corrupt_fn byz_rng msg with
                       | Some m ->
                         t.corrupted <- t.corrupted + 1;
                         note ~tid:dst "fault.corrupt" now
                           (Printf.sprintf "corrupt %d->%d" src dst);
                         Some m
                       | None -> go rest)
                     else go rest
                 in
                 go corrupt_specs
             end));
    let send_injected ~src ~dst ~bytes msg =
      injecting := true;
      Network.send net ~src ~dst ~bytes msg;
      injecting := false
    in
    List.iter
      (function
        | Plan.Replay { at_time; count } ->
          Engine.schedule_at engine ~time:at_time (fun () ->
              let k = Stdlib.min count (Queue.length captured) in
              let src = attacker_default in
              for _ = 1 to k do
                let dst, bytes, msg = Queue.pop captured in
                t.replayed <- t.replayed + 1;
                send_injected ~src ~dst ~bytes msg
              done;
              note ~tid:src "fault.replay" at_time
                (Printf.sprintf "replay ad=%d count=%d" src k))
        | Plan.Forge { at_time; ad } ->
          let origin = resolve ad in
          let note = note ~tid:origin "fault.forge" at_time in
          Engine.schedule_at engine ~time:at_time (fun () ->
              match forge with
              | None -> note (Printf.sprintf "forge ad=%d: no forger installed" origin)
              | Some forge_fn -> (
                match forge_fn ~origin with
                | None -> note (Printf.sprintf "forge ad=%d: nothing to forge" origin)
                | Some (msg, bytes) ->
                  let nbrs = Network.up_neighbors net origin in
                  List.iter
                    (fun dst ->
                      t.forged <- t.forged + 1;
                      send_injected ~src:origin ~dst ~bytes msg)
                    nbrs;
                  note
                    (Printf.sprintf "forge ad=%d to %d neighbors" origin
                       (List.length nbrs))))
        | Plan.Flap_chatter { at_time; ad; flaps; spacing } ->
          let atk = resolve ad in
          (* One fixed adjacency — the attacker's lowest-id neighbor —
             flapped repeatedly so the per-pair damping penalty actually
             accumulates (a storm spreads flaps over random links). *)
          let victim_link = ref None in
          Graph.iter_neighbors graph atk ~f:(fun _nbr lid ->
              if !victim_link = None then victim_link := Some lid);
          (match !victim_link with
          | None -> ()
          | Some lid ->
            for i = 0 to flaps - 1 do
              let tf = at_time +. (float_of_int i *. spacing) in
              Engine.schedule_at engine ~time:tf (fun () ->
                  if Network.link_is_up net lid then begin
                    note ~tid:atk "fault.chatter" tf
                      (Printf.sprintf "chatter down link=%d" lid);
                    Network.set_link_state net lid ~up:false;
                    let hold = Plan.storm_hold ~spacing in
                    Engine.schedule engine ~delay:hold (fun () ->
                        note ~tid:atk "fault.restore" (tf +. hold)
                          (Printf.sprintf "chatter restore link=%d" lid);
                        Network.set_link_state net lid ~up:true)
                  end)
            done)
        | _ -> ())
      plan
  end;
  (* Topology/node incidents become scheduled events, Churn-style. The
     engine clock is 0 at install time, so absolute times are valid. *)
  List.iter
    (function
      | Plan.Drop _ | Plan.Duplicate _ | Plan.Delay _ | Plan.Reorder _
      | Plan.Corrupt _ | Plan.Replay _ | Plan.Forge _ | Plan.Flap_chatter _ ->
        ()
      | Plan.Crash { ad; at_time; down_for } ->
        let r = Rng.split sched_rng in
        let target =
          match ad with
          | Some a -> a
          | None -> (
            match Graph.transit_ids graph with
            | [] -> Rng.int r (Graph.n graph)
            | pool -> Rng.choose r pool)
        in
        Engine.schedule_at engine ~time:at_time (fun () ->
            note ~tid:target "fault.crash" at_time (Printf.sprintf "crash ad=%d" target);
            crash target);
        Option.iter
          (fun d ->
            let tr = at_time +. d in
            Engine.schedule_at engine ~time:tr (fun () ->
                note ~tid:target "fault.restart" tr (Printf.sprintf "restart ad=%d" target);
                restart target))
          down_for
      | Plan.Partition { at_time; heal_after } ->
        let r = Rng.split sched_rng in
        let n = Graph.n graph in
        (* Membership is fixed at install (BFS to ~n/2 from a random
           seed, so each side is connected in the static graph); the
           links actually cut are decided at fire time — only then is
           it known which crossing links are still up. *)
        let side = Array.make n false in
        let start = Rng.int r n in
        let target_size = Stdlib.max 1 (n / 2) in
        let q = Queue.create () in
        Queue.push start q;
        side.(start) <- true;
        let count = ref 1 in
        while !count < target_size && not (Queue.is_empty q) do
          let u = Queue.pop q in
          Graph.iter_neighbor_ids graph u ~f:(fun v ->
              if !count < target_size && not side.(v) then begin
                side.(v) <- true;
                incr count;
                Queue.push v q
              end)
        done;
        let cut = ref [] in
        Engine.schedule_at engine ~time:at_time (fun () ->
            Array.iter
              (fun (l : Link.t) ->
                if side.(l.Link.a) <> side.(l.Link.b) && Network.link_is_up net l.Link.id
                then begin
                  cut := l.Link.id :: !cut;
                  Network.set_link_state net l.Link.id ~up:false
                end)
              (Graph.links graph);
            cut := List.rev !cut;
            t.partition_cut <- !cut;
            note ~tid:0 "fault.partition" at_time
              (Printf.sprintf "partition %d|%d cut=%d links" !count (n - !count)
                 (List.length !cut)));
        Option.iter
          (fun h ->
            let th = at_time +. h in
            Engine.schedule_at engine ~time:th (fun () ->
                (* Exactly the links the partition took down — never a
                   link churn, a storm or a crash failed. *)
                List.iter (fun lid -> Network.set_link_state net lid ~up:true) !cut;
                note ~tid:0 "fault.heal" th
                  (Printf.sprintf "heal restore=%d links" (List.length !cut))))
          heal_after
      | Plan.Flap_storm { at_time; flaps; spacing } ->
        let r = Rng.split sched_rng in
        for i = 0 to flaps - 1 do
          let tf = at_time +. (float_of_int i *. spacing) in
          Engine.schedule_at engine ~time:tf (fun () ->
              match Network.fail_random_link net r () with
              | None -> note ~tid:0 "fault.flap" tf "flap: no up link to fail"
              | Some lid ->
                note ~tid:0 "fault.flap" tf (Printf.sprintf "flap down link=%d" lid);
                let hold = Plan.storm_hold ~spacing in
                Engine.schedule engine ~delay:hold (fun () ->
                    note ~tid:0 "fault.restore" (tf +. hold)
                      (Printf.sprintf "flap restore link=%d" lid);
                    Network.set_link_state net lid ~up:true))
        done)
    plan;
  t
