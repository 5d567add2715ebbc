module Engine = Pr_sim.Engine
module Network = Pr_sim.Network
module Trace = Pr_obs.Trace
module Rng = Pr_util.Rng
module Graph = Pr_topology.Graph
module Link = Pr_topology.Link

let log_src = Logs.Src.create "pr.faults" ~doc:"Fault injection"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Per-message state is kept per scheduling slot so the interposer and
   tamper hook — which execute on whichever domain performs the send —
   never share mutable state across lanes: slot 0 is the main domain
   (and the whole story for sequential runs), slots 1..N the worker
   lanes of a sharded engine. Probabilistic draws on a lane come from
   that lane's own split stream, so a sharded run is deterministic per
   (seed, plan, shard-count); scheduled incidents (crash, partition,
   storm) run as control events on the main domain and fire
   identically at every shard count. *)
type t = {
  slots : int;
  logs : (float * string) list array;  (* per-slot, reverse chronological *)
  dropped : int array;
  duplicated : int array;
  delayed : int array;
  reordered : int array;
  corrupted : int array;
  mutable partition_cut : Link.id list;
  mutable replayed : int;
  mutable forged : int;
  mutable attackers : Pr_topology.Ad.id list;
}

let isum = Array.fold_left ( + ) 0

(* Merge the per-slot logs into one chronological list. Within a slot
   entries are already ordered; across slots ties break on (slot,
   position), so the merged log is a deterministic function of the
   run. The single-slot fast path is the sequential engine's exact
   historical output. *)
let fault_log t =
  if t.slots = 1 then List.rev t.logs.(0)
  else begin
    let tagged = ref [] in
    Array.iteri
      (fun slot lst ->
        List.iteri
          (fun pos e -> tagged := (e, slot, pos) :: !tagged)
          (List.rev lst))
      t.logs;
    List.sort
      (fun ((t1, _), s1, p1) ((t2, _), s2, p2) ->
        compare (t1, s1, p1) (t2, s2, p2))
      !tagged
    |> List.map (fun (e, _, _) -> e)
  end

let dropped t = isum t.dropped

let duplicated t = isum t.duplicated

let delayed t = isum t.delayed

let reordered t = isum t.reordered

let partition_cut t = t.partition_cut

let corrupted t = isum t.corrupted

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
  let shards = Engine.shard_count engine in
  let nslots = if shards <= 1 then 1 else shards + 1 in
  (* Current scheduling slot: main/control context is -1 + 1 = 0. *)
  let slot () = Engine.current_shard engine + 1 in
  let t =
    {
      slots = nslots;
      logs = Array.make nslots [];
      dropped = Array.make nslots 0;
      duplicated = Array.make nslots 0;
      delayed = Array.make nslots 0;
      reordered = Array.make nslots 0;
      corrupted = Array.make nslots 0;
      partition_cut = [];
      replayed = 0;
      forged = 0;
      attackers = [];
    }
  in
  let note time what =
    let s = slot () in
    t.logs.(s) <- (time, what) :: t.logs.(s);
    Pr_telemetry.Flight.note Pr_telemetry.Flight.global ~ts:time ~detail:what
      "nemesis.fault";
    Log.info (fun m -> m "t=%.2f %s" time what)
  in
  (* The recorder is looked up per call: on a worker lane
     [Network.trace] resolves to that lane's private recorder. *)
  let instant ~tid name =
    let trace = Network.trace net in
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
     number of draws one action makes never shifts another's. Under
     sharding each slot additionally gets its own sub-stream (slot 0
     keeps the parent), so concurrent lanes never contend on one rng
     and draws depend only on (seed, plan, shard-count). *)
  let msg_rng = Rng.split rng in
  let sched_rng = Rng.split rng in
  let per_slot_rngs parent =
    let a = Array.make nslots parent in
    for i = 1 to nslots - 1 do
      a.(i) <- Rng.split parent
    done;
    a
  in
  let msg_rngs = per_slot_rngs msg_rng in
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
       clamp. Indexed by the sender's owning shard: every send for
       [src] executes either on that lane or on the main domain while
       lanes are parked, so each array has one writer at a time. *)
    let nslots = Array.length (snd (Graph.unique_csr graph)) in
    let last_arrival = Array.init shards (fun _ -> Float.Array.make nslots 0.0) in
    Network.set_delivery_interposer net
      (Some
         (fun ~src ~dst ~slot:pair ~link ->
           let now = Engine.now engine in
           let s = slot () in
           let mrng = msg_rngs.(s) in
           if fires drops ~now mrng then begin
             t.dropped.(s) <- t.dropped.(s) + 1;
             instant ~tid:dst "fault.drop";
             []
           end
           else begin
             let base_delay = (Graph.link graph link).Link.delay in
             let base = now +. base_delay in
             let extra_d = extra_latency delays ~now mrng in
             let extra_r = extra_latency reorders ~now mrng in
             if extra_d > 0.0 then begin
               t.delayed.(s) <- t.delayed.(s) + 1;
               instant ~tid:dst "fault.delay"
             end;
             if extra_r > 0.0 then begin
               t.reordered.(s) <- t.reordered.(s) + 1;
               instant ~tid:dst "fault.reorder"
             end;
             let la = last_arrival.(Engine.shard_owner engine src) in
             let clamp = has_delay && extra_r = 0.0 in
             let arrival =
               if extra_r > 0.0 then base +. extra_d +. extra_r
               else if has_delay then begin
                 (* Clamp even undelayed messages: one may not overtake
                    an earlier delayed one on the same channel. *)
                 let floor_a = Float.Array.get la pair in
                 let a = base +. extra_d in
                 let a = if a >= floor_a then a else floor_a in
                 Float.Array.set la pair a;
                 a
               end
               else base
             in
             let copies = ref [] in
             for i = 0 to Array.length dups - 1 do
               let r = dups.(i) in
               if in_window r.window now && Rng.chance mrng r.prob then begin
                 t.duplicated.(s) <- t.duplicated.(s) + 1;
                 instant ~tid:dst "fault.dup";
                 let dup_arrival = arrival +. (0.25 *. base_delay) in
                 if clamp then Float.Array.set la pair dup_arrival;
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
    let byz_rngs = per_slot_rngs byz_rng in
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
       replayed updates are well-formed but stale by re-injection time.
       One ring per owning shard (the capture runs on the sender's
       lane); replay drains them in lane order on the main domain. *)
    let capture_cap = 32 in
    let captured : (Pr_topology.Ad.id * int * msg) Queue.t array =
      Array.init shards (fun _ -> Queue.create ())
    in
    let captured_total () =
      Array.fold_left (fun acc q -> acc + Queue.length q) 0 captured
    in
    let captured_pop () =
      let rec go i =
        if Queue.is_empty captured.(i) then go (i + 1) else Queue.pop captured.(i)
      in
      go 0
    in
    (* Self-injected traffic (forge / replay re-sends) passes the tamper
       hook untouched and is never re-captured. Only the main domain
       flips this flag, and only while the lanes are parked. *)
    let injecting = ref false in
    if corrupt_specs <> [] || want_capture then
      Network.set_message_tamper net
        (Some
           (fun ~src ~dst ~bytes msg ->
             if !injecting then None
             else begin
               if want_capture && List.mem src attackers_l then begin
                 let q = captured.(Engine.shard_owner engine src) in
                 if Queue.length q >= capture_cap then ignore (Queue.pop q);
                 Queue.push (dst, bytes, msg) q
               end;
               let now = Engine.now engine in
               match corrupt with
               | None -> None
               | Some corrupt_fn ->
                 let brng = byz_rngs.(slot ()) in
                 let rec go = function
                   | [] -> None
                   | (prob, atk, w) :: rest ->
                     if src = atk && in_window w now && Rng.chance brng prob
                     then (
                       match corrupt_fn brng msg with
                       | Some m ->
                         let s = slot () in
                         t.corrupted.(s) <- t.corrupted.(s) + 1;
                         note now (Printf.sprintf "corrupt %d->%d" src dst);
                         instant ~tid:dst "fault.corrupt";
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
              let k = Stdlib.min count (captured_total ()) in
              let src = attacker_default in
              for _ = 1 to k do
                let dst, bytes, msg = captured_pop () in
                t.replayed <- t.replayed + 1;
                send_injected ~src ~dst ~bytes msg
              done;
              note at_time (Printf.sprintf "replay ad=%d count=%d" src k);
              instant ~tid:src "fault.replay")
        | Plan.Forge { at_time; ad } ->
          let origin = resolve ad in
          Engine.schedule_at engine ~time:at_time (fun () ->
              match forge with
              | None ->
                note at_time
                  (Printf.sprintf "forge ad=%d: no forger installed" origin)
              | Some forge_fn -> (
                match forge_fn ~origin with
                | None ->
                  note at_time
                    (Printf.sprintf "forge ad=%d: nothing to forge" origin)
                | Some (msg, bytes) ->
                  let nbrs = Network.up_neighbors net origin in
                  List.iter
                    (fun dst ->
                      t.forged <- t.forged + 1;
                      send_injected ~src:origin ~dst ~bytes msg)
                    nbrs;
                  note at_time
                    (Printf.sprintf "forge ad=%d to %d neighbors" origin
                       (List.length nbrs));
                  instant ~tid:origin "fault.forge"))
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
                    note tf (Printf.sprintf "chatter down link=%d" lid);
                    instant ~tid:atk "fault.chatter";
                    Network.set_link_state net lid ~up:false;
                    let hold = Plan.storm_hold ~spacing in
                    Engine.schedule engine ~delay:hold (fun () ->
                        note (tf +. hold)
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
            note at_time (Printf.sprintf "crash ad=%d" target);
            instant ~tid:target "fault.crash";
            crash target);
        Option.iter
          (fun d ->
            let tr = at_time +. d in
            Engine.schedule_at engine ~time:tr (fun () ->
                note tr (Printf.sprintf "restart ad=%d" target);
                instant ~tid:target "fault.restart";
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
            note at_time
              (Printf.sprintf "partition %d|%d cut=%d links" !count (n - !count)
                 (List.length !cut));
            instant ~tid:0 "fault.partition");
        Option.iter
          (fun h ->
            let th = at_time +. h in
            Engine.schedule_at engine ~time:th (fun () ->
                (* Exactly the links the partition took down — never a
                   link churn, a storm or a crash failed. *)
                List.iter (fun lid -> Network.set_link_state net lid ~up:true) !cut;
                note th (Printf.sprintf "heal restore=%d links" (List.length !cut));
                instant ~tid:0 "fault.heal"))
          heal_after
      | Plan.Flap_storm { at_time; flaps; spacing } ->
        let r = Rng.split sched_rng in
        for i = 0 to flaps - 1 do
          let tf = at_time +. (float_of_int i *. spacing) in
          Engine.schedule_at engine ~time:tf (fun () ->
              match Network.fail_random_link net r () with
              | None -> note tf "flap: no up link to fail"
              | Some lid ->
                note tf (Printf.sprintf "flap down link=%d" lid);
                instant ~tid:0 "fault.flap";
                let hold = Plan.storm_hold ~spacing in
                Engine.schedule engine ~delay:hold (fun () ->
                    note (tf +. hold) (Printf.sprintf "flap restore link=%d" lid);
                    Network.set_link_state net lid ~up:true))
        done)
    plan;
  t
