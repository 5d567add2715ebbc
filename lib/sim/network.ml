module Graph = Pr_topology.Graph
module Link = Pr_topology.Link
module Rng = Pr_util.Rng
module Trace = Pr_obs.Trace

(* Debug tracing: enable with Logs.Src.set_level Network.log_src
   (Some Logs.Debug) and a reporter. Off by default and free when
   disabled: the hot paths test the level before building a message. *)
let log_src = Logs.Src.create "pr.network" ~doc:"Inter-AD message passing"

module Log = (val Logs.src_log log_src : Logs.LOG)

type 'msg t = {
  engine : Engine.t;
  graph : Graph.t;
  (* Read once at creation: the send path fetches neither per call. *)
  uoff : int array;  (* [Graph.unique_csr] *)
  unbr : int array;
  trace : Trace.t;
  metrics : Metrics.t;
  link_up : bool array;
  node_up : bool array;
  (* Fault-plan hook: writes the extra delivery delays of a send's
     copies into [extras] and returns how many it made (0 = dropped in
     flight, one 0.0 copy = the normal delivery, several =
     duplicates). None (the default) costs one match per send. *)
  mutable interpose :
    (src:Pr_topology.Ad.id ->
    dst:Pr_topology.Ad.id ->
    slot:int ->
    link:Link.id ->
    extras:Float.Array.t ->
    int)
    option;
  mutable extras : Float.Array.t;
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
  (* Per AD: 1 when its broadcasts fan out (see {!broadcast}), 0 when
     they send copy by copy, -1 until its first broadcast. *)
  fans : int array;
  (* Unique-neighbor slot [k] -> the fan-out handler of the chunk of
     [fan_chunk] slots that starts there, built on the chunk's first
     fan-out; [unbuilt_fanout] until then. *)
  fanouts : (int -> 'msg -> unit) array;
}

let unbuilt _ = ()

let unbuilt_fanout _ _ = ()

let create engine graph metrics =
  let uoff, unbr = Graph.unique_csr graph in
  {
    engine;
    graph;
    uoff;
    unbr;
    trace = Engine.trace engine;
    metrics;
    link_up = Array.make (Graph.num_links graph) true;
    node_up = Array.make (Graph.n graph) true;
    interpose = None;
    extras = Float.Array.create 0;
    tamper = None;
    on_message = (fun ~at:_ ~from:_ _ -> ());
    on_link = (fun ~at:_ ~link:_ ~up:_ -> ());
    deliverers = Array.make (2 * Graph.num_links graph) unbuilt;
    fans = Array.make (Graph.n graph) (-1);
    fanouts = Array.make (Array.length unbr) unbuilt_fanout;
  }

let graph t = t.graph

let engine t = t.engine

let metrics t = t.metrics

let trace t = t.trace

let debug_on () =
  match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false

let set_message_handler t f = t.on_message <- f

let set_link_handler t f = t.on_link <- f

let set_delivery_interposer t ~copies f =
  if copies < 1 then invalid_arg "Network.set_delivery_interposer: copies < 1";
  if Float.Array.length t.extras < copies then t.extras <- Float.Array.make copies 0.0;
  t.interpose <- f

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

(* The opt-in record of one send, or with [~lost] one loss, from [src]
   to [dst]: an instant on the charged AD's track and a debug line. *)
let[@inline] note t ~src ~dst ~bytes ~lost =
  if Trace.enabled t.trace then
    Trace.instant t.trace ~ts:(Engine.now t.engine) ~tid:(if lost then dst else src)
      (if lost then "net.lost" else "net.send");
  if debug_on () then
    if lost then
      Log.debug (fun m ->
          m "t=%.1f message %d -> %d lost in flight" (Engine.now t.engine) src dst)
    else
      Log.debug (fun m ->
          m "t=%.1f send %d -> %d (%d bytes)" (Engine.now t.engine) src dst bytes)

let lose t ~src ~dst =
  (* Loss is charged to the receiver. *)
  Metrics.record_loss t.metrics dst;
  note t ~src ~dst ~bytes:0 ~lost:true

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

(* Charge one send from [src] to [dst] and record it. *)
let[@inline] charge t ~src ~dst ~bytes =
  Metrics.record_sends t.metrics src ~copies:1 ~bytes;
  note t ~src ~dst ~bytes ~lost:false

(* The send path after the slot lookup, shared by {!send} and
   {!broadcast}: [lid] is the up link [slot_link] chose for [src]'s
   slot [slot] to [dst], and [src] is up. With an interposer installed,
   a copy is queued on the slot's channel, so the copies in flight on a
   directed pair take one queue entry while they arrive in order. A
   zero extra reuses the link's own delay, so the common unperturbed
   copy rounds as an uninterposed send does. *)
let send_on t ~src ~dst ~slot ~lid ~bytes msg =
  charge t ~src ~dst ~bytes;
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
  | Some f ->
    let extras = t.extras in
    let copies = f ~src ~dst ~slot ~link:lid ~extras in
    (* The fault plan ate it; the bits were still transmitted, so the
       send stays charged. *)
    if copies = 0 then lose t ~src ~dst
    else
      for i = 0 to copies - 1 do
        let extra = Float.Array.get extras i in
        let delay = if extra = 0.0 then delay else delay +. extra in
        Engine.schedule_call_on t.engine ~chan:slot ~delay deliver msg
      done

let send t ~src ~dst ~bytes msg =
  (* A crashed AD transmits nothing. *)
  if t.node_up.(src) then begin
    let slot = Graph.uniq_slot t.graph src dst in
    let lid = slot_link t slot in
    if lid >= 0 then send_on t ~src ~dst ~slot ~lid ~bytes msg
  end

(* Slots per fan-out: the bits of a positive OCaml int, so longer rows
   take several fan-outs. *)
let fan_chunk = 62

(* The link of a slot that holds one. *)
let only_link t k =
  Graph.link t.graph (Graph.fold_slot_links t.graph k ~init:(-1) ~f:(fun _ l -> l))

(* Can [src]'s broadcasts fan out? Each slot of its row must hold one
   link, so the slot names the link a copy travels, and the row's
   links must share one delay, so every copy arrives at once. *)
let fans t src =
  let s = t.fans.(src) in
  if s >= 0 then s = 1
  else begin
    let lo = t.uoff.(src) and hi = t.uoff.(src + 1) in
    let ok = ref (Graph.degree t.graph src = hi - lo) and k = ref (lo + 1) in
    while !ok && !k < hi do
      ok := (only_link t !k).Link.delay = (only_link t lo).Link.delay;
      incr k
    done;
    t.fans.(src) <- (if !ok then 1 else 0);
    !ok
  end

(* The fan-out handler of [src]'s chunk starting at slot [k0]: call [i]
   delivers the copy sent on slot [k0 + i], lost as {!deliverer} would
   lose it. The slot holds one link, so it has an up link exactly when
   the link the copy was sent on is up. *)
let fanout t ~src ~k0 =
  let f = t.fanouts.(k0) in
  if f != unbuilt_fanout then f
  else begin
    let f i msg =
      let k = k0 + i in
      let dst = t.unbr.(k) in
      if slot_link t k >= 0 && t.node_up.(dst) then t.on_message ~at:dst ~from:src msg
      else lose t ~src ~dst
    in
    t.fanouts.(k0) <- f;
    f
  end

(* Queue the copies of slots [k0, min (k0 + fan_chunk) hi) as one
   fan-out and charge them in one step (each is still traced and
   logged in slot order), then go on with the next chunk. *)
let rec fan_out t ~src ~except ~filter ~bytes msg k0 hi =
  let stop = Int.min (k0 + fan_chunk) hi in
  let mask = ref 0 and lid = ref (-1) and copies = ref 0 in
  for k = k0 to stop - 1 do
    let dst = t.unbr.(k) in
    if dst <> except then begin
      let l = slot_link t k in
      if l >= 0 && filter dst then begin
        note t ~src ~dst ~bytes ~lost:false;
        mask := !mask lor (1 lsl (k - k0));
        lid := l;
        incr copies
      end
    end
  done;
  if !mask <> 0 then begin
    Metrics.record_sends t.metrics src ~copies:!copies ~bytes;
    Engine.schedule_fanout t.engine
      ~delay:(Graph.link t.graph !lid).Link.delay
      (fanout t ~src ~k0) msg ~mask:!mask
  end;
  if stop < hi then fan_out t ~src ~except ~filter ~bytes msg stop hi

let broadcast t ~src ~except ~filter ~bytes msg =
  if t.node_up.(src) then begin
    (* [src]'s unique-neighbor row: slot [k] is the pair (src, nbr.(k)),
       so no per-neighbor slot search. *)
    let lo = t.uoff.(src) and hi = t.uoff.(src + 1) in
    match (t.interpose, t.tamper) with
    | None, None when fans t src -> fan_out t ~src ~except ~filter ~bytes msg lo hi
    | _ ->
      for k = lo to hi - 1 do
        let dst = t.unbr.(k) in
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
    Trace.note t.trace ~ts:(Engine.now t.engine) ~tid:l.Link.a
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
    Trace.note t.trace ~ts:(Engine.now t.engine) ~tid:ad
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
