module Graph = Pr_topology.Graph
module Link = Pr_topology.Link
module Network = Pr_sim.Network
module Flow = Pr_policy.Flow
module Packet = Pr_proto.Packet
module Cost_model = Pr_proto.Cost_model
module Design_point = Pr_proto.Design_point

let probe_update = Pr_proto.Probe.make "dv.update"

let infinity_metric = 64

type message = (Pr_topology.Ad.id * int) list

module type VARIANT = sig
  val name : string

  val split_horizon : bool
end

module Make (V : VARIANT) = struct
  (* Distributed Bellman-Ford: each node remembers the last vector
     received from every neighbor and recomputes its own entry as the
     minimum over neighbors of (heard metric + link cost). This is the
     classical scheme, complete with its classical pathology: after a
     withdrawal, a node can adopt a neighbor's stale route that in fact
     passes through itself, and metrics then climb step by step to
     infinity (count-to-infinity, paper §4.3). *)
  type node = {
    (* last vector heard, per neighbor *)
    heard : (Pr_topology.Ad.id, int array) Hashtbl.t;
    metric : int array;  (* own table: metric per destination *)
    next_hop : int array;  (* -1 when unreachable *)
  }

  type t = { graph : Graph.t; net : message Network.t; nodes : node array }

  type nonrec message = message

  let name = V.name

  let design_point =
    Design_point.make Design_point.Distance_vector Design_point.Hop_by_hop
      Design_point.In_topology

  (* The static filler [nodes] is made over ({!Pr_util.Filler}). *)
  let no_node = { heard = Hashtbl.create 1; metric = [||]; next_hop = [||] }

  (* A node's own table as at boot: itself at distance 0, everything
     else unreachable. *)
  let init_table node ad =
    Array.fill node.metric 0 (Array.length node.metric) infinity_metric;
    Array.fill node.next_hop 0 (Array.length node.next_hop) (-1);
    node.metric.(ad) <- 0;
    node.next_hop.(ad) <- ad

  let create graph _config net =
    let n = Graph.n graph in
    let make_node ad =
      let node =
        { heard = Hashtbl.create 8; metric = Array.make n 0; next_hop = Array.make n 0 }
      in
      init_table node ad;
      node
    in
    { graph; net; nodes = Pr_util.Filler.init ~filler:no_node n make_node }

  let vector_bytes entries =
    Cost_model.update_fixed_bytes + (Cost_model.dv_entry_bytes * List.length entries)

  (* Recompute this node's entry for [dst]; true when it changed. The
     inner loop is allocation-free: up neighbors stream from the CSR
     rows and the (static cheapest) link cost is an array read. *)
  let recompute t ad dst =
    if dst = ad then false
    else begin
      let node = t.nodes.(ad) in
      let best = ref infinity_metric and via = ref (-1) in
      Network.iter_up_neighbors t.net ad ~f:(fun nbr ->
          match Hashtbl.find_opt node.heard nbr with
          | None -> ()
          | Some table ->
            let cost = Graph.link_cost t.graph ad nbr in
            if cost >= 0 then begin
              let candidate = Stdlib.min (table.(dst) + cost) infinity_metric in
              if candidate < !best then begin
                best := candidate;
                via := nbr
              end
            end);
      let changed = node.metric.(dst) <> !best || node.next_hop.(dst) <> !via in
      node.metric.(dst) <- !best;
      node.next_hop.(dst) <- (if !best >= infinity_metric then -1 else !via);
      changed
    end

  (* The entry [ad] advertises to [nbr] for [dst]: poisoned reverse
     under split horizon (a route through [nbr] goes back as
     unreachable), the own metric otherwise. *)
  let advertised_entry t ad nbr dst =
    if V.split_horizon && t.nodes.(ad).next_hop.(dst) = nbr && dst <> ad then
      (dst, infinity_metric)
    else (dst, Stdlib.min t.nodes.(ad).metric.(dst) infinity_metric)

  let send_vector t ~src ~dst dests =
    let entries = List.map (advertised_entry t src dst) dests in
    Network.send t.net ~src ~dst ~bytes:(vector_bytes entries) entries

  (* Advertise the given destinations to every up neighbor. *)
  let advertise t ad dests =
    if dests <> [] then
      Network.iter_up_neighbors t.net ad ~f:(fun nbr -> send_vector t ~src:ad ~dst:nbr dests)

  let all_dests t = List.init (Graph.n t.graph) (fun i -> i)

  let start t =
    for ad = 0 to Graph.n t.graph - 1 do
      advertise t ad (all_dests t)
    done

  let heard_table t ad nbr =
    let node = t.nodes.(ad) in
    match Hashtbl.find_opt node.heard nbr with
    | Some table -> table
    | None ->
      let table = Array.make (Graph.n t.graph) infinity_metric in
      Hashtbl.replace node.heard nbr table;
      table

  let handle_message t ~at ~from vector =
    Pr_proto.Probe.computation probe_update t.net ~at ();
    let table = heard_table t at from in
    let changed = ref [] in
    List.iter
      (fun (dst, metric) ->
        table.(dst) <- Stdlib.min metric infinity_metric;
        if recompute t at dst then changed := dst :: !changed)
      vector;
    advertise t at (List.rev !changed)

  let handle_link t ~at ~link ~up =
    let l = Graph.link t.graph link in
    let nbr = Link.other_end l at in
    if up then
      (* Fresh adjacency: share the whole table; the neighbor's vector
         will arrive symmetrically. *)
      advertise t at (all_dests t)
    else begin
      Hashtbl.remove t.nodes.(at).heard nbr;
      let changed = List.filter (recompute t at) (all_dests t) in
      advertise t at changed
    end

  let reset_node t ~at =
    Hashtbl.reset t.nodes.(at).heard;
    init_table t.nodes.(at) at;
    advertise t at (all_dests t)

  (* {2 Adversarial surface}

     DV updates carry no policy content, so validation is purely
     syntactic: in-range destinations, metrics within [0, infinity].
     Forgery (a zero-distance hijack) is well-formed and sails through
     — the distance-vector half of the paper's §3 argument that
     reachability/distance claims alone cannot be defended. *)

  let check_update t ~at:_ ~from:_ vector =
    let n = Graph.n t.graph in
    let rec go = function
      | [] -> Ok ()
      | (dst, metric) :: rest ->
        if dst < 0 || dst >= n then
          Error (Printf.sprintf "destination %d out of range" dst)
        else if metric < 0 || metric > infinity_metric then
          Error
            (Printf.sprintf "metric %d for destination %d outside [0,%d]"
               metric dst infinity_metric)
        else go rest
    in
    go vector

  (* Negate one metric: an impossible (detectable) value, and — unlike
     truncation or inflation, which the receive path clamps or cannot
     distinguish from honest state — index-safe poison. *)
  let corrupt_update _t ~rng vector =
    match vector with
    | [] -> None
    | entries ->
      let k = Pr_util.Rng.int rng (List.length entries) in
      Some
        (List.mapi
           (fun i (dst, m) -> if i = k then (dst, -7 - m) else (dst, m))
           entries)

  (* The hijack: distance 0 to everything. Syntactically flawless. *)
  let forge_update t ~origin:_ =
    let entries = List.map (fun dst -> (dst, 0)) (all_dests t) in
    Some (entries, vector_bytes entries)

  let audit_state t ~at =
    let node = t.nodes.(at) in
    let n = Graph.n t.graph in
    let bad = ref None in
    Graph.iter_neighbor_ids t.graph at ~f:(fun nbr ->
        if !bad = None then
          match Hashtbl.find_opt node.heard nbr with
          | None -> ()
          | Some table ->
            for dst = 0 to n - 1 do
              if !bad = None && (table.(dst) < 0 || table.(dst) > infinity_metric)
              then
                bad :=
                  Some
                    (Printf.sprintf
                       "poisoned metric %d for destination %d heard from ad %d"
                       table.(dst) dst nbr)
            done);
    !bad

  (* [nbr] re-sends its full vector to [at] alone — the link-up
     exchange, directed, with poisoned reverse relative to [at]. *)
  let resync t ~at ~nbr = send_vector t ~src:nbr ~dst:at (all_dests t)

  let prepare_flow _t _flow = Packet.no_prep

  let originate _t _packet = ()

  let forward t ~at ~from:_ packet =
    let dst = packet.Packet.flow.Flow.dst in
    if at = dst then Packet.Deliver
    else begin
      let node = t.nodes.(at) in
      if node.metric.(dst) >= infinity_metric || node.next_hop.(dst) < 0 then
        Packet.Drop "no route"
      else Packet.Forward node.next_hop.(dst)
    end

  let table_entries t ad =
    Array.fold_left
      (fun acc m -> if m < infinity_metric then acc + 1 else acc)
      0 t.nodes.(ad).metric

  (* Test/experiment introspection (not part of PROTOCOL). *)
  let route_of t ~at ~dst =
    let node = t.nodes.(at) in
    if node.metric.(dst) >= infinity_metric then None
    else Some (node.metric.(dst), node.next_hop.(dst))
end

module Plain = Make (struct
  let name = "dv-plain"

  let split_horizon = false
end)

module Split_horizon = Make (struct
  let name = "dv-split-horizon"

  let split_horizon = true
end)

let route_of = Plain.route_of
