module Graph = Pr_topology.Graph
module Link = Pr_topology.Link
module Ad = Pr_topology.Ad
module Network = Pr_sim.Network
module Flow = Pr_policy.Flow
module Qos = Pr_policy.Qos
module Policy_term = Pr_policy.Policy_term
module Transit_policy = Pr_policy.Transit_policy
module Config = Pr_policy.Config
module Packet = Pr_proto.Packet
module Cost_model = Pr_proto.Cost_model
module Design_point = Pr_proto.Design_point

let probe_update = Pr_proto.Probe.make "ecma.update"

(* Unreachability sentinel. Unlike plain DV, ECMA never counts toward
   it (the down_only/mixed dependency graph is acyclic), so it only
   needs to exceed any legitimate per-QOS path metric — the Low_delay
   metric accumulates ~10 per hop. *)
let infinity_metric = 100_000

type update_entry = {
  qos : Qos.t;
  dest : Pr_topology.Ad.id;
  metric : int;
  gone_down : bool;
}

type message = update_entry list

(* Distributed Bellman-Ford with the ECMA up/down rule. Each node keeps
   the last vector heard from each neighbor; a neighbor's contribution
   lands in exactly one of two tables determined by the (strict) link
   direction:

   - [down_only]: routes learned from neighbors BELOW us — the packet
     path descends all the way. Only these may be advertised upward.
   - [mixed]: routes learned from neighbors ABOVE us — the packet path
     climbs first.

   Because only down_only is advertised up, down_only at a node depends
   only on down_only strictly below it, and mixed only on tables
   strictly above: the dependency graph is acyclic, so there is no
   count-to-infinity — the property §5.1.1 claims for the partial
   ordering. *)
type node = {
  heard : (Pr_topology.Ad.id, int array) Hashtbl.t;  (* [qos * n + dest] *)
  down_only : int array array;  (* [qos][dest] metric *)
  down_hop : int array array;
  mixed : int array array;
  mixed_hop : int array array;
}

type t = {
  graph : Graph.t;
  config : Config.t;
  net : message Network.t;
  nodes : node array;
  rank : int array;  (* strict global ordering; smaller = higher *)
}

let name = "ecma"

let design_point =
  Design_point.make Design_point.Distance_vector Design_point.Hop_by_hop
    Design_point.In_topology

(* Both advertisement gates run per (qos, dest, neighbor) during
   convergence: probe the shared compiled store (one QOS-union mask
   check / one bitset probe per term) instead of re-interpreting the
   term lists. *)
let supports_qos config ad q =
  let store = Pr_policy.Policy_store.of_config config in
  Pr_policy.Compiled.supports_qos (Pr_policy.Policy_store.compiled store ad) q

let dest_allowed config ad dest q =
  let store = Pr_policy.Policy_store.of_config config in
  Pr_policy.Compiled.dest_allowed (Pr_policy.Policy_store.compiled store ad) dest q

(* The static filler [nodes] is made over ({!Pr_util.Filler}). *)
let no_node =
  { heard = Hashtbl.create 1; down_only = [||]; down_hop = [||]; mixed = [||]; mixed_hop = [||] }

let create graph config net =
  let n = Graph.n graph in
  let make_tables () = Array.init Qos.count (fun _ -> Array.make n infinity_metric) in
  let make_hops () = Array.init Qos.count (fun _ -> Array.make n (-1)) in
  let nodes =
    Pr_util.Filler.init ~filler:no_node n (fun ad ->
        let node =
          {
            heard = Hashtbl.create 8;
            down_only = make_tables ();
            down_hop = make_hops ();
            mixed = make_tables ();
            mixed_hop = make_hops ();
          }
        in
        Array.iter (fun row -> row.(ad) <- 0) node.down_only;
        Array.iter (fun row -> row.(ad) <- ad) node.down_hop;
        node)
  in
  let rank =
    Array.map (fun (a : Ad.t) -> (Ad.level_rank a.Ad.level * n) + a.Ad.id) (Graph.ads graph)
  in
  { graph; config; net; nodes; rank }

let is_down_step t ~from_ad ~to_ad = t.rank.(to_ad) > t.rank.(from_ad)

let message_bytes entries =
  Cost_model.update_fixed_bytes + ((Cost_model.dv_entry_bytes + 2) * List.length entries)

(* Per-QOS metric of the (cheapest) link between neighbors — ECMA's
   per-QOS FIBs route on per-QOS metrics, exactly as §5.1.1's multiple
   Forwarding Information Bases describe. *)
let link_metric t q x y =
  match Graph.find_link t.graph x y with
  | None -> None
  | Some lid ->
    let l = Graph.link t.graph lid in
    Some (Pr_proto.Qos_metric.metric q ~cost:l.Link.cost ~delay:l.Link.delay)

(* Recompute the table the neighbor class feeds for (qos, dest); true
   when the entry changed. [lower] selects the down_only table (fed by
   neighbors below us). *)
let recompute t ad ~lower qi dest =
  if dest = ad then false
  else begin
    let n = Graph.n t.graph in
    let node = t.nodes.(ad) in
    let best = ref infinity_metric and via = ref (-1) in
    Network.iter_up_neighbors t.net ad ~f:(fun nbr ->
        if is_down_step t ~from_ad:ad ~to_ad:nbr = lower then
          match
            (Hashtbl.find_opt node.heard nbr, link_metric t (Qos.of_index qi) ad nbr)
          with
          | Some heard, Some cost ->
            let candidate = Stdlib.min (heard.((qi * n) + dest) + cost) infinity_metric in
            if candidate < !best then begin
              best := candidate;
              via := nbr
            end
          | _ -> ());
    let table, hops = if lower then (node.down_only, node.down_hop) else (node.mixed, node.mixed_hop) in
    let changed = table.(qi).(dest) <> !best in
    table.(qi).(dest) <- !best;
    hops.(qi).(dest) <- (if !best >= infinity_metric then -1 else !via);
    changed
  end

(* What [ad] advertises to [nbr] for (qos, dest), or None when gated by
   the policy projection. *)
let advertised_entry t ad nbr q dest =
  let qi = Qos.index q in
  let node = t.nodes.(ad) in
  let gate_ok =
    dest = ad || (supports_qos t.config ad q && dest_allowed t.config ad dest q)
  in
  if not gate_ok then None
  else if is_down_step t ~from_ad:ad ~to_ad:nbr then begin
    (* Downward advertisement: best of both routes. *)
    let d = node.down_only.(qi).(dest) and m = node.mixed.(qi).(dest) in
    Some { qos = q; dest; metric = Stdlib.min d m; gone_down = m < d }
  end
  else
    (* Upward advertisement: the up/down rule permits only all-down
       routes. *)
    Some { qos = q; dest; metric = node.down_only.(qi).(dest); gone_down = false }

let advertise t ad pairs =
  if pairs <> [] then
    Network.iter_up_neighbors t.net ad ~f:(fun nbr ->
        let entries =
          List.filter_map (fun (q, dest) -> advertised_entry t ad nbr q dest) pairs
        in
        if entries <> [] then
          Network.send t.net ~src:ad ~dst:nbr ~bytes:(message_bytes entries) entries)

let all_pairs t =
  List.concat_map (fun q -> List.init (Graph.n t.graph) (fun dest -> (q, dest))) Qos.all

let start t =
  for ad = 0 to Graph.n t.graph - 1 do
    advertise t ad (all_pairs t)
  done

let heard_table t ad nbr =
  let node = t.nodes.(ad) in
  match Hashtbl.find_opt node.heard nbr with
  | Some table -> table
  | None ->
    let table = Array.make (Qos.count * Graph.n t.graph) infinity_metric in
    Hashtbl.replace node.heard nbr table;
    table

let handle_message t ~at ~from entries =
  Pr_proto.Probe.computation probe_update t.net ~at ();
  let n = Graph.n t.graph in
  let heard = heard_table t at from in
  (* [from] below us feeds down_only; above us feeds mixed. *)
  let lower = is_down_step t ~from_ad:at ~to_ad:from in
  let changed = ref [] in
  List.iter
    (fun e ->
      if e.dest <> at then begin
        let qi = Qos.index e.qos in
        heard.((qi * n) + e.dest) <- Stdlib.min e.metric infinity_metric;
        if recompute t at ~lower qi e.dest then changed := (e.qos, e.dest) :: !changed
      end)
    entries;
  advertise t at (List.sort_uniq compare !changed)

let handle_link t ~at ~link ~up =
  let l = Graph.link t.graph link in
  let nbr = Link.other_end l at in
  if up then advertise t at (all_pairs t)
  else begin
    Hashtbl.remove t.nodes.(at).heard nbr;
    let lower = is_down_step t ~from_ad:at ~to_ad:nbr in
    let changed =
      List.filter
        (fun (q, dest) -> recompute t at ~lower (Qos.index q) dest)
        (all_pairs t)
    in
    advertise t at changed
  end

let reset_node t ~at =
  let node = t.nodes.(at) in
  Hashtbl.reset node.heard;
  let clear_metrics rows = Array.iter (fun row -> Array.fill row 0 (Array.length row) infinity_metric) rows in
  let clear_hops rows = Array.iter (fun row -> Array.fill row 0 (Array.length row) (-1)) rows in
  clear_metrics node.down_only;
  clear_hops node.down_hop;
  clear_metrics node.mixed;
  clear_hops node.mixed_hop;
  Array.iter (fun row -> row.(at) <- 0) node.down_only;
  Array.iter (fun row -> row.(at) <- at) node.down_hop;
  advertise t at (all_pairs t)

(* {2 Adversarial surface}

   ECMA's updates carry (qos, dest) claims gated by the sender's own
   configured Policy Terms ([advertised_entry]), so — unlike DV/EGP —
   a receiver can check policy consistency: an entry for a (qos, dest)
   the sender's terms do not admit can only come from a liar. This is
   the checkable-content half of the paper's mutual-suspicion argument,
   realized in the weakest of the four §5 designs. *)

(* Would an honest [from] ever advertise this entry? Exactly the
   [advertised_entry] gate, evaluated with the {e sender's} terms. *)
let entry_allowed t ~from e =
  e.dest = from || (supports_qos t.config from e.qos && dest_allowed t.config from e.dest e.qos)

let check_update t ~at:_ ~from entries =
  let n = Graph.n t.graph in
  let rec go = function
    | [] -> Ok ()
    | e :: rest ->
      if e.dest < 0 || e.dest >= n then
        Error (Printf.sprintf "destination %d out of range" e.dest)
      else if e.metric < 0 || e.metric > infinity_metric then
        Error
          (Printf.sprintf "metric %d for destination %d outside [0,%d]"
             e.metric e.dest infinity_metric)
      else if not (entry_allowed t ~from e) then
        Error
          (Printf.sprintf
             "ad %d advertised (%s, %d) its own policy terms forbid" from
             (Qos.to_string e.qos) e.dest)
      else go rest
  in
  go entries

let corrupt_update _t ~rng entries =
  match entries with
  | [] -> None
  | l ->
    let k = Pr_util.Rng.int rng (List.length l) in
    Some (List.mapi (fun i e -> if i = k then { e with metric = -7 - e.metric } else e) l)

(* The ECMA route leak: advertise excellent routes to (qos, dest)
   pairs the origin's own terms forbid. When the origin's policy is
   fully open (nothing to leak), fall back to a malformed negative
   metric so the forgery is still deterministically rejectable. *)
let forge_update t ~origin =
  let n = Graph.n t.graph in
  let leaked = ref [] and count = ref 0 in
  List.iter
    (fun q ->
      for dest = n - 1 downto 0 do
        if !count < 8 && dest <> origin
           && not (supports_qos t.config origin q && dest_allowed t.config origin dest q)
        then begin
          incr count;
          leaked := { qos = q; dest; metric = 1; gone_down = false } :: !leaked
        end
      done)
    Qos.all;
  let entries =
    if !leaked <> [] then !leaked
    else
      [ { qos = List.hd Qos.all; dest = (origin + 1) mod n; metric = -1; gone_down = false } ]
  in
  Some (entries, message_bytes entries)

let audit_state t ~at =
  let n = Graph.n t.graph in
  let node = t.nodes.(at) in
  let bad = ref None in
  Graph.iter_neighbor_ids t.graph at ~f:(fun nbr ->
      if !bad = None then
        match Hashtbl.find_opt node.heard nbr with
        | None -> ()
        | Some heard ->
          List.iter
            (fun q ->
              let qi = Qos.index q in
              for dest = 0 to n - 1 do
                if !bad = None then begin
                  let v = heard.((qi * n) + dest) in
                  if v < 0 then
                    bad :=
                      Some
                        (Printf.sprintf "poisoned metric %d at (%s, %d) heard from ad %d"
                           v (Qos.to_string q) dest nbr)
                  else if
                    v < infinity_metric
                    && not (entry_allowed t ~from:nbr { qos = q; dest; metric = v; gone_down = false })
                  then
                    bad :=
                      Some
                        (Printf.sprintf
                           "route to (%s, %d) heard from ad %d violates its policy terms"
                           (Qos.to_string q) dest nbr)
                end
              done)
            Qos.all);
  !bad

(* [nbr]'s gated full-table advertisement, directed at [at] alone. *)
let resync t ~at ~nbr =
  let entries =
    List.filter_map (fun (q, dest) -> advertised_entry t nbr at q dest) (all_pairs t)
  in
  if entries <> [] then
    Network.send t.net ~src:nbr ~dst:at ~bytes:(message_bytes entries) entries

let prepare_flow _t _flow = Packet.no_prep

let originate _t _packet = ()

let lookup t at dst q ~gone_down =
  let qi = Qos.index q in
  let node = t.nodes.(at) in
  let d = node.down_only.(qi).(dst) in
  if gone_down then
    if d < infinity_metric then Some (d, node.down_hop.(qi).(dst)) else None
  else begin
    let m = node.mixed.(qi).(dst) in
    if d <= m then if d < infinity_metric then Some (d, node.down_hop.(qi).(dst)) else None
    else if m < infinity_metric then Some (m, node.mixed_hop.(qi).(dst))
    else None
  end

let forward t ~at ~from:_ packet =
  let flow = packet.Packet.flow in
  let dst = flow.Flow.dst in
  if at = dst then Packet.Deliver
  else
    match lookup t at dst flow.Flow.qos ~gone_down:packet.Packet.gone_down with
    | None -> Packet.Drop "no route (up/down rule)"
    | Some (_, nh) ->
      if is_down_step t ~from_ad:at ~to_ad:nh then packet.Packet.gone_down <- true;
      Packet.Forward nh

let table_entries t ad =
  let count tables =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc m -> if m < infinity_metric then acc + 1 else acc) acc row)
      0 tables
  in
  count t.nodes.(ad).down_only + count t.nodes.(ad).mixed

let route_of t ~at ~dst ~qos ~gone_down = lookup t at dst qos ~gone_down
