module Engine = Pr_sim.Engine
module Network = Pr_sim.Network
module Metrics = Pr_sim.Metrics
module Graph = Pr_topology.Graph
module Trace = Pr_obs.Trace

type convergence = {
  converged : bool;
  sim_time : float;
  events : int;
  messages : int;
  bytes : int;
}

let pp_convergence ppf c =
  Format.fprintf ppf "%s t=%.1f events=%d msgs=%d bytes=%d"
    (if c.converged then "converged" else "DIVERGED")
    c.sim_time c.events c.messages c.bytes

module Make (P : Protocol_intf.PROTOCOL) = struct
  type t = {
    graph : Graph.t;
    config : Pr_policy.Config.t;
    engine : Engine.t;
    net : P.message Network.t;
    metrics : Metrics.t;
    proto : P.t;
    mutable started : bool;
    (* Metrics state at the end of the previous converge, so that
       control traffic triggered between converges (e.g. by fail_link
       handlers) is attributed to the next convergence delta. *)
    mutable marker : Metrics.t;
    mutable events_marker : int;
    (* AD whose link notifications are suppressed, or -1. While a
       crashed AD's links are being forced down (and back up on
       restart), the dead router must not react to them — only its
       neighbors observe the outage. *)
    mutable muted : int;
    (* Links that were up when the AD crashed, to restore on restart.
       Only links this crash transitioned down are recorded, so a
       restart never restores a link some other fault source failed. *)
    crash_links : (Pr_topology.Ad.id, Pr_topology.Link.id list) Hashtbl.t;
    (* Receive-path interposer (the update guard's hook): when it
       returns false the update never reaches the protocol. *)
    mutable filter : (at:Pr_topology.Ad.id -> from:Pr_topology.Ad.id -> P.message -> bool) option;
    (* Observer of link transitions as the protocol sees them (the
       guard's flap-damping feed). Runs before the protocol handler. *)
    mutable link_tap : (at:Pr_topology.Ad.id -> nbr:Pr_topology.Ad.id -> up:bool -> unit) option;
  }

  let setup ?(trace = Trace.disabled) graph config =
    let engine = Engine.create ~trace () in
    let metrics = Metrics.create ~n:(Graph.n graph) in
    let net = Network.create engine graph metrics in
    let proto = P.create graph config net in
    let t =
      {
        graph;
        config;
        engine;
        net;
        metrics;
        proto;
        started = false;
        marker = Metrics.snapshot metrics;
        events_marker = 0;
        muted = -1;
        crash_links = Hashtbl.create 4;
        filter = None;
        link_tap = None;
      }
    in
    Network.set_message_handler net (fun ~at ~from msg ->
        let admit =
          match t.filter with None -> true | Some f -> f ~at ~from msg
        in
        if admit then P.handle_message proto ~at ~from msg);
    Network.set_link_handler net (fun ~at ~link ~up ->
        if at <> t.muted then begin
          (match t.link_tap with
          | None -> ()
          | Some tap ->
            let l = Pr_topology.Graph.link graph link in
            tap ~at ~nbr:(Pr_topology.Link.other_end l at) ~up);
          P.handle_link proto ~at ~link ~up
        end);
    t

  let set_receive_filter t f = t.filter <- f

  let set_link_tap t f = t.link_tap <- f

  let graph t = t.graph

  let config t = t.config

  let protocol t = t.proto

  let metrics t = t.metrics

  let network t = t.net

  let trace t = Network.trace t.net

  let converge ?max_events t =
    let before = t.marker in
    let events_before = t.events_marker in
    let tr = Network.trace t.net in
    if Trace.enabled tr then
      Trace.span_begin tr ~ts:(Engine.now t.engine) ~tid:0 "converge";
    if not t.started then begin
      t.started <- true;
      P.start t.proto
    end;
    let stop = Engine.run ?max_events t.engine in
    if Trace.enabled tr then Trace.span_end tr ~ts:(Engine.now t.engine) ~tid:0 "converge";
    let delta = Metrics.diff ~after:t.metrics ~before in
    t.marker <- Metrics.snapshot t.metrics;
    t.events_marker <- Engine.events_executed t.engine;
    {
      converged = stop = Engine.Drained;
      sim_time = Engine.now t.engine;
      events = Engine.events_executed t.engine - events_before;
      messages = Metrics.messages delta;
      bytes = Metrics.bytes delta;
    }

  let fail_link t lid = Network.set_link_state t.net lid ~up:false

  let restore_link t lid = Network.set_link_state t.net lid ~up:true

  (* Batched link patch applied with the patched AD muted: the single
     code path crash and restart both flow through, the runner-side
     mirror of the [Spf_delta.node_down]/[node_up] patch pair. Only
     the neighbors observe the transitions (their link handlers drive
     re-origination and delta-scoped invalidation); the patched router
     itself reacts to nothing. *)
  let apply_link_patch t ad ~up links =
    t.muted <- ad;
    List.iter (fun lid -> Network.set_link_state t.net lid ~up) links;
    t.muted <- -1

  let crash_ad t ad =
    if Network.node_is_up t.net ad then begin
      (* Take the gateway's up links down first: neighbors observe the
         outage through their link handlers (failure detection), while
         the dying router itself — muted — reacts to nothing. *)
      let mine = ref [] in
      Graph.iter_neighbors t.graph ad ~f:(fun _nbr lid ->
          if Network.link_is_up t.net lid then mine := lid :: !mine);
      let mine = List.sort_uniq compare !mine in
      apply_link_patch t ad ~up:false mine;
      Hashtbl.replace t.crash_links ad mine;
      Network.set_node_state t.net ad ~up:false
    end

  let restart_ad t ad =
    if not (Network.node_is_up t.net ad) then begin
      Network.set_node_state t.net ad ~up:true;
      (* Bring the adjacencies back before the routing process knows
         anything: neighbors react normally, the restarting router —
         still muted — does not advertise its stale pre-crash state. *)
      let mine = Option.value (Hashtbl.find_opt t.crash_links ad) ~default:[] in
      Hashtbl.remove t.crash_links ad;
      apply_link_patch t ad ~up:true mine;
      (* Then reboot it with total state loss; its re-announcements go
         out over the restored links, and the neighbors' link-up
         advertisements are already in flight toward it. *)
      P.reset_node t.proto ~at:ad
    end

  let send_flow t flow =
    Forwarding.send ~n:(Graph.n t.graph)
      ~prepare:(fun f -> P.prepare_flow t.proto f)
      ~originate:(fun packet -> P.originate t.proto packet)
      ~forward:(fun ~at ~from packet -> P.forward t.proto ~at ~from packet)
      ~adjacent:(fun x y -> Network.adjacent_and_up t.net x y)
      flow

  let table_entries t =
    let n = Graph.n t.graph in
    let total = ref 0 in
    for ad = 0 to n - 1 do
      total := !total + P.table_entries t.proto ad
    done;
    !total

  let max_table_entries t =
    let n = Graph.n t.graph in
    let best = ref 0 in
    for ad = 0 to n - 1 do
      best := Stdlib.max !best (P.table_entries t.proto ad)
    done;
    !best

  (* Adversarial-surface delegates, so harnesses (chaos, guard) work
     against the runner without reaching into the protocol value. *)

  let check_update t ~at ~from msg = P.check_update t.proto ~at ~from msg

  let corrupt_update t ~rng msg = P.corrupt_update t.proto ~rng msg

  let forge_update t ~origin = P.forge_update t.proto ~origin

  let audit_state t ~at = P.audit_state t.proto ~at

  let resync t ~at ~nbr = P.resync t.proto ~at ~nbr
end
