(** The message-passing substrate connecting AD routing agents.

    Wraps a {!Pr_topology.Graph} with dynamic link state and delivers
    protocol messages between neighboring ADs through the
    {!Engine}, charging each send to {!Metrics}. Messages in flight
    when their link fails are lost — protocols must tolerate this, as
    the paper's model requires adaptivity to inter-AD topology change
    (§2.2). *)

type 'msg t

val log_src : Logs.src
(** Debug log source ("pr.network"): set its level to [Debug] (and
    install a reporter) to trace sends, in-flight losses and link
    state changes. *)

val create : Engine.t -> Pr_topology.Graph.t -> Metrics.t -> 'msg t
(** All links start up. Handlers must be installed before any
    traffic flows. When the engine's trace is enabled, the network
    records instant events for sends (["net.send"], track = sender)
    and in-flight losses (["net.lost"], track = intended receiver).
    Link flaps (["link.up"] / ["link.down"]) and AD crashes
    (["node.up"] / ["node.down"]) are {!Pr_obs.Trace.note}s: they also
    reach the post-mortem ring. *)

val graph : 'msg t -> Pr_topology.Graph.t

val engine : 'msg t -> Engine.t

val metrics : 'msg t -> Metrics.t

val trace : 'msg t -> Pr_obs.Trace.t
(** The engine's recorder ({!Engine.trace}). Protocol drivers record
    their route-computation spans on this. *)

val set_message_handler :
  'msg t -> (at:Pr_topology.Ad.id -> from:Pr_topology.Ad.id -> 'msg -> unit) -> unit
(** Called on delivery of each message at the receiving AD. *)

val set_link_handler :
  'msg t -> (at:Pr_topology.Ad.id -> link:Pr_topology.Link.id -> up:bool -> unit) -> unit
(** Called at both endpoints when a link changes state. *)

val set_delivery_interposer :
  'msg t ->
  copies:int ->
  (src:Pr_topology.Ad.id ->
  dst:Pr_topology.Ad.id ->
  slot:int ->
  link:Pr_topology.Link.id ->
  extras:Float.Array.t ->
  int)
  option ->
  unit
(** Install (or remove, with [None]) a fault-plan hook consulted on
    every send. [slot] is the directed pair's
    {!Pr_topology.Graph.uniq_slot} (shared by parallel links), [link]
    the link the message travels. The hook writes the extra delivery
    delays of the message's copies into the first cells of [extras], a
    buffer of at least [copies] cells that the network owns and
    reuses, and returns how many copies it made: one copy of extra
    [0.0] is the unperturbed delivery, [0] drops the message in
    flight (counted in {!Pr_sim.Metrics.msgs_lost}, the send still
    charged), several duplicate it, and non-zero extras delay it. So a
    send builds no list and boxes no float. Copies are queued on the
    slot's channel ({!Engine.schedule_call_on}), in the order the hook
    wrote them. Without an interposer the only cost is one match per
    send.
    @raise Invalid_argument when [copies < 1]. *)

val set_message_tamper :
  'msg t ->
  (src:Pr_topology.Ad.id -> dst:Pr_topology.Ad.id -> bytes:int -> 'msg -> 'msg option)
  option ->
  unit
(** Install (or remove) a Byzantine hook consulted on every send,
    before delivery scheduling: returning [Some m'] substitutes the
    in-flight message, [None] passes it unchanged. The nemesis uses
    this to model an attacker AD corrupting the updates it emits (and
    to capture them for later replay). Without a hook the only cost is
    one match per send. *)

val send :
  'msg t -> src:Pr_topology.Ad.id -> dst:Pr_topology.Ad.id -> bytes:int -> 'msg -> unit
(** Send over (the cheapest) link between neighbors [src] and [dst].
    Silently dropped when no such link is up — protocols discover
    failures via the link handler, not via send errors. The send is
    charged to metrics even if the message is later lost (the bits
    were transmitted). *)

val charge : 'msg t -> src:Pr_topology.Ad.id -> dst:Pr_topology.Ad.id -> bytes:int -> unit
(** Charge one message from [src] to [dst] as {!send} does, without
    carrying it: for exchanges a protocol counts but does not simulate,
    such as a stub's route query to its route server and the reply.
    It calls {!Metrics.record_sends}, which also counts ["net.sends"];
    the ["net.send"] instant and the debug line stay opt-in. *)

val broadcast :
  'msg t ->
  src:Pr_topology.Ad.id ->
  except:Pr_topology.Ad.id ->
  filter:(Pr_topology.Ad.id -> bool) ->
  bytes:int ->
  'msg ->
  unit
(** {!send} to every neighbor joined to [src] by an up link, other than
    [except] ([-1] excepts no one) and satisfying [filter], in
    increasing neighbor order — each on the link {!send} would pick.
    It walks [src]'s unique-neighbor row instead of searching each
    neighbor's slot; deliveries, link choice and charges equal a
    {!send} per {!iter_up_neighbors} neighbor. [filter] is consulted
    only for neighbors behind an up link. When no interposer or tamper
    hook is installed and [src]'s row has one link per neighbor, all
    of one delay, the copies share one queue entry
    ({!Engine.schedule_fanout}); every copy is still one event. *)

val link_is_up : 'msg t -> Pr_topology.Link.id -> bool

val node_is_up : 'msg t -> Pr_topology.Ad.id -> bool

val set_node_state : 'msg t -> Pr_topology.Ad.id -> up:bool -> unit
(** Crash ([up:false]) or restart an AD. A crashed AD transmits
    nothing (its sends are silently suppressed, not charged) and
    receives nothing (deliveries addressed to it are lost and
    counted). Link state is independent: callers modeling a gateway
    crash take the AD's links down alongside, so neighbors observe the
    outage through their link handlers — see
    [Pr_proto.Runner.Make.crash_ad]. No-op when the state is
    unchanged. *)

val up_link : 'msg t -> Pr_topology.Ad.id -> Pr_topology.Ad.id -> Pr_topology.Link.id
(** The cheapest up link joining the two ADs (lowest id among equally
    cheap ones), or [-1] when none is up — the link {!send} uses. *)

val adjacent_and_up : 'msg t -> Pr_topology.Ad.id -> Pr_topology.Ad.id -> bool
(** Some up link joins the two ADs. *)

val up_neighbors : 'msg t -> Pr_topology.Ad.id -> Pr_topology.Ad.id list
(** Deduplicated neighbors reachable over at least one up link. *)

val iter_up_neighbors : 'msg t -> Pr_topology.Ad.id -> f:(Pr_topology.Ad.id -> unit) -> unit
(** Allocation-free {!up_neighbors}: each reachable neighbor once, in
    increasing id order. The form protocol inner loops should use. *)

val set_link_state : 'msg t -> Pr_topology.Link.id -> up:bool -> unit
(** Change a link's state immediately and notify both endpoints
    through the link handler. No-op when the state is unchanged. *)

val fail_random_link :
  'msg t -> Pr_util.Rng.t -> ?kind:Pr_topology.Link.kind -> unit -> Pr_topology.Link.id option
(** Fail a uniformly chosen currently-up link (optionally of a given
    kind). Returns the failed link. *)
