(** Wires a protocol to a simulated network and drives it.

    The runner owns the engine/network/metrics triple, installs the
    protocol's handlers, runs the control plane to quiescence, injects
    topology changes, and sends data packets through the protocol's
    forwarding plane. *)

type totals = {
  messages : int;  (** control messages sent *)
  bytes : int;  (** control bytes sent *)
  computations : int;  (** route-computation work units *)
  transit_computations : int;  (** the work at transit-capable ADs only *)
  msgs_lost : int;  (** messages lost in flight (faults, crashes) *)
  table_total : int;  (** routing state summed over the ADs *)
  table_max : int;  (** routing state at the worst-loaded AD *)
}
(** A run's cost in the paper's currencies (§5) as totals: messages
    and bytes, computation, and state. *)

type costs = {
  totals : totals;
  msg_max : int;  (** messages sent by the worst-loaded AD *)
  msg_mean : float;  (** mean messages per AD *)
  msg_p90 : float;  (** 90th percentile of per-AD messages *)
  tbl_p90 : float;  (** 90th percentile of per-AD table entries *)
}
(** A run's {!totals} with the per-AD skew figures, which matter
    because the §5.2.1/§5.3 arguments are about the worst-loaded AD,
    not the totals. *)

val cost_keys : string list
(** The JSON keys of the {!costs} fields: [messages], [bytes],
    [computations], [transit_computations], [msgs_lost], [table_total],
    [table_max], [msg_max], [msg_mean], [msg_p90], [tbl_p90]. *)

val cost_fields : costs -> string list -> (string * Pr_util.Json.t) list
(** The named fields of the costs, as JSON members in the order given:
    the one writer of run costs, for reports that each pin their own
    key order.
    @raise Invalid_argument on a key not in {!cost_keys}. *)

type convergence = {
  converged : bool;  (** false when the event budget was exhausted *)
  sim_time : float;  (** simulated time when the system quiesced *)
  events : int;  (** events executed during this run *)
  messages : int;  (** control messages sent during this run *)
  bytes : int;  (** control bytes sent during this run *)
}

val pp_convergence : Format.formatter -> convergence -> unit

module Make (P : Protocol_intf.PROTOCOL) : sig
  type t

  val setup :
    ?trace:Pr_obs.Trace.t ->
    Pr_topology.Graph.t ->
    Pr_policy.Config.t ->
    t
  (** Build engine, network, metrics and protocol agents; handlers are
      installed but nothing has been sent yet. [trace] (default
      {!Pr_obs.Trace.disabled}) is threaded into the engine and
      network, and protocols pick it up via [Network.trace] for their
      route-computation spans. *)

  val graph : t -> Pr_topology.Graph.t

  val config : t -> Pr_policy.Config.t

  val protocol : t -> P.t

  val metrics : t -> Pr_sim.Metrics.t

  val network : t -> P.message Pr_sim.Network.t

  val trace : t -> Pr_obs.Trace.t
  (** The recorder passed to {!setup}. *)

  val converge : ?max_events:int -> t -> convergence
  (** First call starts the protocol; later calls just drain whatever
      events are pending (e.g. after a link event). When tracing, each
      converge is wrapped in a ["converge"] span on track 0. *)

  val fail_link : t -> Pr_topology.Link.id -> unit
  (** Take a link down and notify the protocol at both ends (run
      {!converge} afterwards to let it react). *)

  val restore_link : t -> Pr_topology.Link.id -> unit

  val crash_ad : t -> Pr_topology.Ad.id -> unit
  (** The AD's gateway crashes: every currently-up incident link is
      taken down (neighbors are notified through their link handlers —
      the crashed router itself reacts to nothing) and the node stops
      sending and receiving. In-flight messages addressed to it are
      lost and counted in {!Pr_sim.Metrics.msgs_lost}. Only the links
      this crash transitioned down are remembered for {!restart_ad},
      so a restart never restores a link some other fault source
      failed. No-op if the AD is already down. *)

  val restart_ad : t -> Pr_topology.Ad.id -> unit
  (** Restart a crashed AD with total state loss: the node comes back
      up, the links the crash took down are restored (neighbors react
      normally; the restarting router stays silent), and the
      protocol's [reset_node] rebuilds its local state and
      re-announces. No-op if the AD is up. *)

  val send_flow : t -> Pr_policy.Flow.t -> Forwarding.outcome
  (** Send one packet of the flow through the protocol's forwarding
      plane (including any route setup the protocol performs). *)

  val table_entries : t -> int
  (** Sum of per-AD routing state. *)

  val max_table_entries : t -> int

  val timeline : ?window:float -> t -> Pr_obs.Timeline.t
  (** The traced run's convergence timeline: the [messages],
      [computations] and [table-entries] series (the last is
      {!table_entries}), sampled on the run's {!trace} by the engine's
      per-event observer, which this installs. [window] is
      {!Pr_obs.Timeline.create}'s. The caller takes the final sample
      with {!Pr_obs.Timeline.finish}. *)

  val totals : t -> totals
  (** The run's cost totals so far: the {!Pr_sim.Metrics} totals, with
      state read from the protocol's [table_entries]. Builds no per-AD
      list. *)

  val costs : t -> costs
  (** {!totals} and the per-AD skew figures. *)

  val set_receive_filter :
    t -> (at:Pr_topology.Ad.id -> from:Pr_topology.Ad.id -> P.message -> bool) option -> unit
  (** Interpose on the receive path: an update for which the filter
      returns false is silently discarded before the protocol sees it.
      This is where the update guard ([Pr_guard]) screens neighbors.
      [None] removes the interposer. *)

  val set_link_tap :
    t -> (at:Pr_topology.Ad.id -> nbr:Pr_topology.Ad.id -> up:bool -> unit) option -> unit
  (** Observe link transitions exactly as the protocol's own link
      handler does (muted crashed routers see neither) — the guard's
      flap-damping feed. Runs before the protocol handler. *)

  (** {2 Adversarial-surface delegates}

      The protocol's [PROTOCOL] adversarial hooks, lifted to the
      runner so fault harnesses need not reach into the protocol
      value. *)

  val check_update :
    t -> at:Pr_topology.Ad.id -> from:Pr_topology.Ad.id -> P.message -> (unit, string) result

  val corrupt_update : t -> rng:Pr_util.Rng.t -> P.message -> P.message option

  val forge_update : t -> origin:Pr_topology.Ad.id -> (P.message * int) option

  val audit_state : t -> at:Pr_topology.Ad.id -> string option

  val resync : t -> at:Pr_topology.Ad.id -> nbr:Pr_topology.Ad.id -> unit
end
