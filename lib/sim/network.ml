module Graph = Pr_topology.Graph
module Link = Pr_topology.Link
module Rng = Pr_util.Rng
module Trace = Pr_obs.Trace
module Reg = Pr_telemetry.Registry

(* Debug tracing: enable with Logs.Src.set_level Network.log_src
   (Some Logs.Debug) and a reporter. Off by default and free when
   disabled: the hot paths test the level before building a message. *)
let log_src = Logs.Src.create "pr.network" ~doc:"Inter-AD message passing"

module Log = (val Logs.src_log log_src : Logs.LOG)

type 'msg t = {
  engine : Engine.t;
  graph : Graph.t;
  metrics : Metrics.t;
  link_up : bool array;
  node_up : bool array;
  (* Fault-plan hook: maps each send to the extra delivery delays of
     its copies ([] = dropped in flight, one 0.0 entry = the normal
     delivery, several entries = duplicates). None (the default) costs
     one match per send. *)
  mutable interpose :
    (src:Pr_topology.Ad.id -> dst:Pr_topology.Ad.id -> slot:int -> link:Link.id -> float list)
    option;
  (* Byzantine hook: rewrite a message as it leaves [src] ([None] from
     the hook = pass unchanged). Used by the nemesis to model an
     attacker AD corrupting its own updates. *)
  mutable tamper :
    (src:Pr_topology.Ad.id -> dst:Pr_topology.Ad.id -> bytes:int -> 'msg -> 'msg option)
    option;
  mutable on_message : at:Pr_topology.Ad.id -> from:Pr_topology.Ad.id -> 'msg -> unit;
  mutable on_link : at:Pr_topology.Ad.id -> link:Link.id -> up:bool -> unit;
  (* Directed link [2 * link] (from its [a] end) or [2 * link + 1]
     (from its [b] end) -> the handler delivering a message sent over
     it, built on the first send; [unbuilt] until then. Each send
     schedules (deliverer, message), so no closure is made per send. *)
  deliverers : ('msg -> unit) array;
  (* Registry handles resolved once at creation. *)
  m_sends : Reg.counter;
  m_losses : Reg.counter;
}

let unbuilt _ = ()

let create engine graph metrics =
  {
    engine;
    graph;
    metrics;
    link_up = Array.make (Graph.num_links graph) true;
    node_up = Array.make (Graph.n graph) true;
    interpose = None;
    tamper = None;
    on_message = (fun ~at:_ ~from:_ _ -> ());
    on_link = (fun ~at:_ ~link:_ ~up:_ -> ());
    deliverers = Array.make (2 * Graph.num_links graph) unbuilt;
    m_sends = Reg.counter Reg.default "net.sends";
    m_losses = Reg.counter Reg.default "net.losses";
  }

let graph t = t.graph

let engine t = t.engine

let metrics t = t.metrics

let trace t = Engine.trace t.engine

let debug_on () =
  match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false

let set_message_handler t f = t.on_message <- f

let set_link_handler t f = t.on_link <- f

let set_delivery_interposer t f = t.interpose <- f

let set_message_tamper t f = t.tamper <- f

let link_is_up t lid = t.link_up.(lid)

let node_is_up t ad = t.node_up.(ad)

(* The one link lookup: the pair's slot, then its cheapest up link. *)
let slot_link t k = if k < 0 then -1 else Graph.cheapest_up_link t.graph k ~up:t.link_up

let up_link t x y = slot_link t (Graph.uniq_slot t.graph x y)

let adjacent_and_up t x y = up_link t x y >= 0

let iter_up_neighbors t x ~f =
  (* The CSR row is sorted by neighbor, so parallel links are adjacent:
     emit each neighbor once, on its first up link. *)
  let last = ref (-1) in
  Graph.iter_neighbors t.graph x ~f:(fun v lid ->
      if v <> !last && t.link_up.(lid) then begin
        last := v;
        f v
      end)

let up_neighbors t x =
  let acc = ref [] in
  iter_up_neighbors t x ~f:(fun v -> acc := v :: !acc);
  List.rev !acc

let lose t ~src ~dst =
  (* Loss is charged to the receiver. *)
  Metrics.record_loss t.metrics dst;
  Reg.inc t.m_losses;
  let tr = trace t in
  if Trace.enabled tr then Trace.instant tr ~ts:(Engine.now t.engine) ~tid:dst "net.lost";
  if debug_on () then
    Log.debug (fun m ->
        m "t=%.1f message %d -> %d lost in flight" (Engine.now t.engine) src dst)

(* The deliverer of the directed link [l] from [src] to [dst]. *)
let deliverer t (l : Link.t) ~src ~dst =
  let lid = l.Link.id in
  let k = if src = l.Link.a then 2 * lid else (2 * lid) + 1 in
  let d = t.deliverers.(k) in
  if d != unbuilt then d
  else begin
    let d msg =
      (* Lost if the link failed, or the receiver crashed, while the
         message was in flight. *)
      if t.link_up.(lid) && t.node_up.(dst) then t.on_message ~at:dst ~from:src msg
      else lose t ~src ~dst
    in
    t.deliverers.(k) <- d;
    d
  end

(* One delivery event per interposed copy. A zero extra reuses the
   link's own delay, so the common unperturbed copy boxes no float. *)
let rec schedule_copies t ~delay deliver msg = function
  | [] -> ()
  | extra :: rest ->
    if extra = 0.0 then Engine.schedule_call t.engine ~delay deliver msg
    else Engine.schedule_call t.engine ~delay:(delay +. extra) deliver msg;
    schedule_copies t ~delay deliver msg rest

(* The send path after the slot lookup, shared by {!send} and
   {!broadcast}: [lid] is the up link [slot_link] chose for [src]'s
   slot [slot] to [dst], and [src] is up. *)
let send_on t ~src ~dst ~slot ~lid ~bytes msg =
  Metrics.record_send t.metrics src ~bytes;
  Reg.inc t.m_sends;
  let tr = trace t in
  if Trace.enabled tr then Trace.instant tr ~ts:(Engine.now t.engine) ~tid:src "net.send";
  if debug_on () then
    Log.debug (fun m ->
        m "t=%.1f send %d -> %d (%d bytes)" (Engine.now t.engine) src dst bytes);
  let msg =
    match t.tamper with
    | None -> msg
    | Some f -> ( match f ~src ~dst ~bytes msg with None -> msg | Some m -> m)
  in
  let l = Graph.link t.graph lid in
  let delay = l.Link.delay in
  let deliver = deliverer t l ~src ~dst in
  match t.interpose with
  | None -> Engine.schedule_call t.engine ~delay deliver msg
  | Some f -> (
    match f ~src ~dst ~slot ~link:lid with
    | [] ->
      (* The fault plan ate it; the bits were still transmitted, so
         the send stays charged. *)
      lose t ~src ~dst
    | extras -> schedule_copies t ~delay deliver msg extras)

let send t ~src ~dst ~bytes msg =
  (* A crashed AD transmits nothing. *)
  if t.node_up.(src) then begin
    let slot = Graph.uniq_slot t.graph src dst in
    let lid = slot_link t slot in
    if lid >= 0 then send_on t ~src ~dst ~slot ~lid ~bytes msg
  end

let broadcast t ~src ~except ~filter ~bytes msg =
  if t.node_up.(src) then begin
    (* [src]'s unique-neighbor row: slot [k] is the pair (src, nbr.(k)),
       so no per-neighbor slot search. *)
    let off, nbr = Graph.unique_csr t.graph in
    for k = off.(src) to off.(src + 1) - 1 do
      let dst = nbr.(k) in
      if dst <> except then begin
        let lid = slot_link t k in
        if lid >= 0 && filter dst then send_on t ~src ~dst ~slot:k ~lid ~bytes msg
      end
    done
  end

let set_link_state t lid ~up =
  if t.link_up.(lid) <> up then begin
    t.link_up.(lid) <- up;
    let l = Graph.link t.graph lid in
    Trace.note (trace t) ~ts:(Engine.now t.engine) ~tid:l.Link.a
      ~detail:(Printf.sprintf "link %d--%d" l.Link.a l.Link.b)
      (if up then "link.up" else "link.down");
    Log.info (fun m ->
        m "t=%.1f link %d--%d %s" (Engine.now t.engine) l.Link.a l.Link.b
          (if up then "restored" else "FAILED"));
    t.on_link ~at:l.Link.a ~link:lid ~up;
    t.on_link ~at:l.Link.b ~link:lid ~up
  end

let set_node_state t ad ~up =
  if t.node_up.(ad) <> up then begin
    t.node_up.(ad) <- up;
    Trace.note (trace t) ~ts:(Engine.now t.engine) ~tid:ad
      ~detail:(Printf.sprintf "AD %d" ad)
      (if up then "node.up" else "node.down");
    Log.info (fun m ->
        m "t=%.1f AD %d %s" (Engine.now t.engine) ad (if up then "restarted" else "CRASHED"))
  end

let fail_random_link t rng ?kind () =
  let candidates =
    Graph.fold_links t.graph ~init:[] ~f:(fun acc l ->
        let kind_ok =
          match kind with
          | None -> true
          | Some k -> l.Link.kind = k
        in
        if kind_ok && t.link_up.(l.Link.id) then l.Link.id :: acc else acc)
  in
  match candidates with
  | [] -> None
  | _ ->
    let lid = Rng.choose rng candidates in
    set_link_state t lid ~up:false;
    Some lid
