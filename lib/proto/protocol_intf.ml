(** The common interface every inter-AD routing protocol implements.

    A protocol instance manages the routing agents of {e all} ADs in
    one simulated internet (this is a simulator: global state is held
    in one value, but agents only ever read their own node's slice and
    the messages delivered to them). The {!Runner} functor wires an
    instance to a {!Pr_sim.Network} and drives it. *)

(** The control plane: the advertisement exchange the neighbors drive
    and its adversarial surface. The link-state designs share one
    realization ({!Ls_flood.Members}). *)
module type CONTROL = sig
  type t

  type message

  val start : t -> unit
  (** Emit initial advertisements (full tables, LSA origination). *)

  val handle_message : t -> at:Pr_topology.Ad.id -> from:Pr_topology.Ad.id -> message -> unit
  (** A control message arrived at AD [at] from neighbor [from]. *)

  val handle_link : t -> at:Pr_topology.Ad.id -> link:Pr_topology.Link.id -> up:bool -> unit
  (** Link state change visible at endpoint [at]. *)

  (** {2 Adversarial surface}

      The paper's mutual-suspicion premise (§2.1): a neighbor AD may
      emit malformed, stale, or policy-violating routing information.
      Each protocol names what an update from [from] must satisfy to be
      believed ({!check_update}), how an attacker would tamper with or
      fabricate its updates ({!corrupt_update}, {!forge_update}), what
      installed state would betray a successful attack
      ({!audit_state}), and how to recover a neighbor that missed
      updates while quarantined ({!resync}). The update guard
      ([Pr_guard]) interposes these at the receive path; the nemesis
      drives the offense side. *)

  val check_update :
    t -> at:Pr_topology.Ad.id -> from:Pr_topology.Ad.id -> message -> (unit, string) result
  (** Validate an update as received at [at] from direct neighbor
      [from]: syntactic well-formedness (indices in range, metrics
      non-negative), sequence/freshness discipline where the protocol
      has one, and policy-consistency against what [from]'s own
      advertised Policy Terms allow it to announce. Must accept every
      update an honest implementation can emit (including benign
      flooding duplicates) — rejections quarantine the sender. *)

  val corrupt_update : t -> rng:Pr_util.Rng.t -> message -> message option
  (** Tamper with an in-flight update the attacker emitted — the
      protocol-specific realization of a bit-flip/truncation ([None] =
      this message offers nothing to corrupt). Corruption must stay
      {e index-safe}: receivers may reject it, but never crash on it. *)

  val forge_update : t -> origin:Pr_topology.Ad.id -> (message * int) option
  (** A fabricated announcement (message, wire bytes) from [origin]
      that violates [origin]'s own advertised Policy Terms — a route
      leak / hijack. [None] when the protocol family has nothing
      forgeable beyond what {!corrupt_update} covers. *)

  val audit_state : t -> at:Pr_topology.Ad.id -> string option
  (** Ground-truth containment audit: does AD [at]'s installed routing
      state contain anything that {!check_update} would have rejected
      (poisoned metrics, policy-violating entries, fabricated
      adjacencies)? [Some reason] describes the first offending entry.
      Protocols whose state cannot be audited (EGP's unverifiable
      reachability bits) always return [None] — the paper's argument
      for carrying checkable policy terms. *)

  val resync : t -> at:Pr_topology.Ad.id -> nbr:Pr_topology.Ad.id -> unit
  (** Neighbor [nbr] pushes its full current state to [at] — the
      adjacency-bring-up exchange replayed after [at] readmits [nbr]
      from quarantine, so updates dropped while quarantined are
      recovered. *)
end

module type PROTOCOL = sig
  type t
  (** Instance state: all per-AD agents for one simulation. *)

  type message
  (** Control messages exchanged between neighbor ADs. *)

  val name : string

  val design_point : Design_point.t
  (** Position in the paper's Table 1 design space. *)

  val create : Pr_topology.Graph.t -> Pr_policy.Config.t -> message Pr_sim.Network.t -> t
  (** Build agents for every AD. The protocol may keep the network for
      sending but must not send until {!start}. *)

  include CONTROL with type t := t and type message := message

  val reset_node : t -> at:Pr_topology.Ad.id -> unit
  (** AD [at]'s router restarted with total state loss (paper §2.2:
      gateways crash and recover): forget every learned route and
      database entry, rebuild the AD's own local entries exactly as
      {!create} would, and re-announce over currently-up links. The
      rest of the internet keeps whatever it heard from the AD before
      the crash — recovery must go through the normal protocol
      exchange. Callers (see [Runner.Make.restart_ad]) invoke this
      after the AD's links are back up, mirroring a rebooted gateway
      whose adjacencies come up before its routing process has
      relearned anything. *)

  (** {2 Data plane} *)

  val prepare_flow : t -> Pr_policy.Flow.t -> Packet.prep
  (** Called once before the first packet of a flow: route synthesis
      and setup for ORWG, a no-op ({!Packet.no_prep}) elsewhere. *)

  val originate : t -> Packet.t -> unit
  (** Stamp origination-time header state onto a fresh packet (source
      route, handle, header size). Hop-by-hop protocols leave the base
      header. *)

  val forward :
    t -> at:Pr_topology.Ad.id -> from:Pr_topology.Ad.id option -> Packet.t -> Packet.decision
  (** Forwarding decision of AD [at] for a packet arriving from
      neighbor [from] ([None] at the source). *)

  val table_entries : t -> Pr_topology.Ad.id -> int
  (** Current routing/forwarding state held by the AD (routing table
      entries, LSDB size, or cached policy routes) — the state gauge
      of experiments E4/E5. *)
end
