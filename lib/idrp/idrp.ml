module Graph = Pr_topology.Graph
module Link = Pr_topology.Link
module Bitset = Pr_util.Bitset
module Network = Pr_sim.Network
module Flow = Pr_policy.Flow
module Qos = Pr_policy.Qos
module Uci = Pr_policy.Uci
module Policy_term = Pr_policy.Policy_term
module Transit_policy = Pr_policy.Transit_policy
module Config = Pr_policy.Config
module Packet = Pr_proto.Packet
module Cost_model = Pr_proto.Cost_model
module Design_point = Pr_proto.Design_point

let probe_update = Pr_proto.Probe.make "idrp.update"

type route = {
  dest : Pr_topology.Ad.id;
  class_idx : int;
  path : Pr_topology.Ad.id list;
  allowed : Bitset.t;
}

type update = { route : route; withdraw : bool }

type message = update list

module type VARIANT = sig
  val name : string

  val per_source : bool

  val distribution_scope : bool
end

module Make (V : VARIANT) = struct
  type nonrec message = message

  type node = {
    (* (class, dest) -> routes received per neighbor *)
    rib_in : (int * int, (Pr_topology.Ad.id * route) list) Hashtbl.t;
    (* (class, dest) -> (next hop, the neighbor's advertised route) *)
    selected : (int * int, Pr_topology.Ad.id * route) Hashtbl.t;
    (* memoized allowed-source masks: (class, dest, prev, next) *)
    mask_cache : (int * int * int * int, Bitset.t) Hashtbl.t;
  }

  type t = {
    graph : Graph.t;
    config : Config.t;
    net : message Network.t;
    nodes : node array;
    n : int;
    store : Pr_policy.Policy_store.t;  (* shared compiled policies *)
  }

  let name = V.name

  let design_point =
    Design_point.make Design_point.Distance_vector Design_point.Hop_by_hop
      Design_point.Policy_terms

  let class_count t = if V.per_source then Flow.class_count * t.n else Flow.class_count

  let class_of_flow t (flow : Flow.t) =
    if V.per_source then (Flow.class_key flow * t.n) + flow.Flow.src
    else Flow.class_key flow

  (* Decompose a class index into (qos, uci, fixed source or None). *)
  let decompose t c =
    if V.per_source then begin
      let qk = c / t.n and src = c mod t.n in
      (Qos.of_index (qk / Uci.count), Uci.of_index (qk mod Uci.count), Some src)
    end
    else (Qos.of_index (c / Uci.count), Uci.of_index (c mod Uci.count), None)

  (* The static filler [nodes] is made over ({!Pr_util.Filler}). *)
  let no_node =
    { rib_in = Hashtbl.create 1; selected = Hashtbl.create 1; mask_cache = Hashtbl.create 1 }

  let create graph config net =
    let n = Graph.n graph in
    let make_node _ =
      {
        rib_in = Hashtbl.create 64;
        selected = Hashtbl.create 64;
        mask_cache = Hashtbl.create 64;
      }
    in
    {
      graph;
      config;
      net;
      nodes = Pr_util.Filler.init ~filler:no_node n make_node;
      n;
      store = Pr_policy.Policy_store.of_config config;
    }

  (* Which sources does [at]'s policy admit for transit toward [dest]
     in class [c], arriving from [prev] and departing to [next]. *)
  let mask t at c dest ~prev ~next =
    let node = t.nodes.(at) in
    let key = (c, dest, prev, next) in
    match Hashtbl.find_opt node.mask_cache key with
    | Some b -> b
    | None ->
      let qos, uci, fixed_src = decompose t c in
      let compiled = Pr_policy.Policy_store.compiled t.store at in
      let b = Bitset.create t.n in
      (* The probe flow mirrors Flow.make's defaults (hour 12, not
         authenticated): masks describe steady-state transit policy,
         not a specific packet. *)
      (match fixed_src with
      | Some src ->
        let flow = Flow.make ~src ~dst:dest ~qos ~uci () in
        if
          Pr_policy.Compiled.allows compiled
            { Policy_term.flow; prev = Some prev; next = Some next }
        then Bitset.add b src
      | None ->
        (* One bitset union per passing term instead of n interpreted
           probes — the compiled engine's IDRP fast path. *)
        Pr_policy.Compiled.admitted_sources_into compiled b ~dst:dest ~qos ~uci
          ~hour:12 ~auth:false ~prev:(Some prev) ~next:(Some next));
      Hashtbl.replace node.mask_cache key b;
      b

  let full_set t =
    let b = Bitset.create t.n in
    for i = 0 to t.n - 1 do
      Bitset.add b i
    done;
    b

  let attribute_bytes t allowed =
    let card = Bitset.cardinal allowed in
    4 + (Cost_model.ad_id_bytes * Stdlib.min card (t.n - card))

  let update_bytes t u =
    if u.withdraw then Cost_model.dv_entry_bytes + 2
    else
      Cost_model.path_vector_entry_bytes
        ~path_len:(List.length u.route.path)
        ~pt_bytes:(attribute_bytes t u.route.allowed)

  let message_bytes t updates =
    Cost_model.update_fixed_bytes
    + List.fold_left (fun acc u -> acc + update_bytes t u) 0 updates

  (* Distribution scope (§5.2.1): "updates can specify what other ADs
     are allowed to receive the information described in the update".
     A host-only neighbor whose sources the route does not admit is
     given nothing to hold: policy enforced by information hiding
     rather than by forwarding-time checks. Transit-capable neighbors
     always receive routes — they may carry admitted third-party
     sources. *)
  let scope_excludes t nbr allowed =
    V.distribution_scope
    && (not (Pr_topology.Ad.is_transit_capable (Graph.ad t.graph nbr)))
    && not (Bitset.mem allowed nbr)

  (* The update [at] currently sends [nbr] for (c, dest). *)
  let export_update t at nbr (c, dest) =
    let withdraw () =
      {
        route = { dest; class_idx = c; path = []; allowed = Bitset.create t.n };
        withdraw = true;
      }
    in
    match Hashtbl.find_opt t.nodes.(at).selected (c, dest) with
    | None -> withdraw ()
    | Some (next_hop, r) ->
      if dest = at then begin
        let allowed = full_set t in
        if scope_excludes t nbr allowed then withdraw ()
        else { route = { dest; class_idx = c; path = [ at ]; allowed }; withdraw = false }
      end
      else begin
        let path' = at :: r.path in
        if List.mem nbr path' then withdraw ()
        else begin
          let allowed' = Bitset.copy r.allowed in
          Bitset.inter_into allowed' (mask t at c dest ~prev:nbr ~next:next_hop);
          if Bitset.is_empty allowed' || scope_excludes t nbr allowed' then withdraw ()
          else
            { route = { dest; class_idx = c; path = path'; allowed = allowed' }; withdraw = false }
        end
      end

  let export t at pairs =
    if pairs <> [] then
      List.iter
        (fun nbr ->
          let updates = List.map (export_update t at nbr) pairs in
          Network.send t.net ~src:at ~dst:nbr ~bytes:(message_bytes t updates) updates)
        (Network.up_neighbors t.net at)

  (* Re-run selection for (c, dest) at [at]; true when the choice
     changed. Selection: shortest AD path, then lowest neighbor id —
     among usable (non-empty allowed) candidates. *)
  let reselect t at (c, dest) =
    let node = t.nodes.(at) in
    if dest = at then false
    else begin
      let candidates =
        match Hashtbl.find_opt node.rib_in (c, dest) with
        | None -> []
        | Some l -> l
      in
      let score (nbr, r) = (List.length r.path, nbr) in
      let best =
        List.fold_left
          (fun acc (nbr, r) ->
            if Bitset.is_empty r.allowed then acc
            else
              match acc with
              | None -> Some (nbr, r)
              | Some cur -> if score (nbr, r) < score cur then Some (nbr, r) else acc)
          None candidates
      in
      let current = Hashtbl.find_opt node.selected (c, dest) in
      let same =
        match (current, best) with
        | None, None -> true
        | Some (n1, r1), Some (n2, r2) ->
          n1 = n2 && r1.path = r2.path && Bitset.equal r1.allowed r2.allowed
        | _ -> false
      in
      if same then false
      else begin
        (match best with
        | None -> Hashtbl.remove node.selected (c, dest)
        | Some choice -> Hashtbl.replace node.selected (c, dest) choice);
        true
      end
    end

  let own_pairs t at = List.init (class_count t) (fun c -> (c, at))

  let start t =
    for at = 0 to t.n - 1 do
      let node = t.nodes.(at) in
      List.iter
        (fun (c, dest) ->
          Hashtbl.replace node.selected (c, dest)
            (at, { dest; class_idx = c; path = [ at ]; allowed = full_set t }))
        (own_pairs t at);
      export t at (own_pairs t at)
    done

  let handle_message t ~at ~from updates =
    Pr_proto.Probe.computation probe_update t.net ~at ~work:(List.length updates) ();
    let node = t.nodes.(at) in
    let touched = ref [] in
    List.iter
      (fun u ->
        let key = (u.route.class_idx, u.route.dest) in
        let existing =
          match Hashtbl.find_opt node.rib_in key with
          | None -> []
          | Some l -> List.remove_assoc from l
        in
        let entry =
          if u.withdraw then existing
          else if List.mem at u.route.path then existing (* loop: reject *)
          else (from, u.route) :: existing
        in
        Hashtbl.replace node.rib_in key entry;
        touched := key :: !touched)
      updates;
    let changed = List.filter (reselect t at) (List.sort_uniq compare !touched) in
    export t at changed

  let all_known_pairs t at =
    let node = t.nodes.(at) in
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) node.selected [] in
    List.sort_uniq compare keys

  let handle_link t ~at ~link ~up =
    let l = Graph.link t.graph link in
    let nbr = Link.other_end l at in
    if up then export t at (all_known_pairs t at)
    else begin
      let node = t.nodes.(at) in
      let touched = ref [] in
      Hashtbl.iter
        (fun key entries ->
          if List.mem_assoc nbr entries then touched := key :: !touched)
        node.rib_in;
      List.iter
        (fun key ->
          let entries = Hashtbl.find node.rib_in key in
          Hashtbl.replace node.rib_in key (List.remove_assoc nbr entries))
        !touched;
      let changed = List.filter (reselect t at) (List.sort_uniq compare !touched) in
      export t at changed
    end

  let reset_node t ~at =
    let node = t.nodes.(at) in
    Hashtbl.reset node.rib_in;
    Hashtbl.reset node.selected;
    (* mask_cache is a pure function of the static policy
       configuration, so state loss need not invalidate it. *)
    List.iter
      (fun (c, dest) ->
        Hashtbl.replace node.selected (c, dest)
          (at, { dest; class_idx = c; path = [ at ]; allowed = full_set t }))
      (own_pairs t at);
    export t at (own_pairs t at)

  (* {2 Adversarial surface}

     Path attributes make IDRP the most checkable of the four designs:
     a receiver can insist the path starts at the sender, terminates at
     the claimed destination, is simple, avoids the receiver, and that
     the allowed-source set is no wider than what the sender's own
     advertised Policy Terms admit for that (prev, next) transit — the
     product rule [export_update] applies when honest. *)

  (* Why an honest [from]'s update to [at] must pass, case by case:
     origin routes are [\[from\]] with a full allowed set; longer paths
     are built by prepending the sender to a stored simple path that
     never contains the holder, and intersecting allowed with the
     sender's own mask for prev = receiver, next = second path hop. *)
  let route_error t ~at ~from (r : route) =
    if r.dest < 0 || r.dest >= t.n then Some (Printf.sprintf "destination %d out of range" r.dest)
    else if r.class_idx < 0 || r.class_idx >= class_count t then
      Some (Printf.sprintf "class %d out of range" r.class_idx)
    else if List.exists (fun ad -> ad < 0 || ad >= t.n) r.path then Some "path ad out of range"
    else
      match r.path with
      | [] -> Some "empty path on a non-withdrawn route"
      | head :: rest ->
        if head <> from then
          Some (Printf.sprintf "path head %d is not the sender %d" head from)
        else if List.length (List.sort_uniq compare r.path) <> List.length r.path then
          Some "path is not simple"
        else if List.mem at r.path then
          Some (Printf.sprintf "path already contains the receiver %d" at)
        else begin
          let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> assert false in
          if last r.path <> r.dest then
            Some
              (Printf.sprintf "path terminates at %d, not the claimed destination %d"
                 (last r.path) r.dest)
          else if Bitset.is_empty r.allowed then Some "empty allowed-source set"
          else
            match rest with
            | [] -> None (* origin's own route: full allowed set is legitimate *)
            | next :: _ ->
              if
                Bitset.subset r.allowed
                  (mask t from r.class_idx r.dest ~prev:at ~next)
              then None
              else
                Some
                  (Printf.sprintf
                     "allowed sources exceed what ad %d's own policy terms admit" from)
        end

  let check_update t ~at ~from updates =
    let rec go = function
      | [] -> Ok ()
      | u :: rest ->
        if u.withdraw then
          if u.route.dest < 0 || u.route.dest >= t.n then
            Error (Printf.sprintf "withdraw for destination %d out of range" u.route.dest)
          else go rest
        else begin
          match route_error t ~at ~from u.route with
          | Some e -> Error e
          | None -> go rest
        end
    in
    go updates

  (* Widen one route's allowed set to everyone and stutter the path's
     last hop: a transit leak stapled to a non-simple path, so the
     tamper stays detectable even under fully open policies (and
     index-safe — every id already existed). *)
  let corrupt_update t ~rng updates =
    let routes = List.filteri (fun _ u -> not u.withdraw) updates in
    if routes = [] then None
    else begin
      let k = Pr_util.Rng.int rng (List.length routes) in
      let picked = List.nth routes k in
      Some
        (List.map
           (fun u ->
             if u == picked then begin
               let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> u.route.dest in
               let path = u.route.path @ [ last u.route.path ] in
               { u with route = { u.route with path; allowed = full_set t } }
             end
             else u)
           updates)
    end

  (* The hijack: claim to BE one hop from a destination the origin
     merely neighbors (path [origin] must terminate at [dest]), with an
     all-sources allowed set. Shortest possible path, so guard-less
     receivers prefer it. The target is the origin's second up
     neighbor — the chatter action flaps the first's link, which would
     flush the forged RIB entry there before the post-convergence
     audit. *)
  let forge_update t ~origin =
    let nbrs = ref [] in
    Graph.iter_neighbor_ids t.graph origin ~f:(fun nbr -> nbrs := nbr :: !nbrs);
    let dest =
      match List.rev !nbrs with
      | _ :: second :: _ -> second
      | [ only ] -> only
      | [] -> (origin + 1) mod t.n
    in
    let u =
      {
        route = { dest; class_idx = 0; path = [ origin ]; allowed = full_set t };
        withdraw = false;
      }
    in
    Some ([ u ], message_bytes t [ u ])

  let audit_state t ~at =
    let node = t.nodes.(at) in
    let bad = ref None in
    Hashtbl.iter
      (fun _key entries ->
        if !bad = None then
          List.iter
            (fun (nbr, r) ->
              if !bad = None then
                match route_error t ~at ~from:nbr r with
                | Some e ->
                  bad :=
                    Some (Printf.sprintf "rib-in route from ad %d for %d: %s" nbr r.dest e)
                | None -> ())
            entries)
      node.rib_in;
    !bad

  (* [nbr] re-exports every pair it has a selection for, to [at]
     alone — the directed form of the link-up full exchange. *)
  let resync t ~at ~nbr =
    let pairs = all_known_pairs t nbr in
    if pairs <> [] && List.mem at (Network.up_neighbors t.net nbr) then begin
      let updates = List.map (export_update t nbr at) pairs in
      Network.send t.net ~src:nbr ~dst:at ~bytes:(message_bytes t updates) updates
    end

  let prepare_flow _t _flow = Packet.no_prep

  let originate _t _packet = ()

  let forward t ~at ~from:_ packet =
    let flow = packet.Packet.flow in
    if at = flow.Flow.dst then Packet.Deliver
    else begin
      let c = class_of_flow t flow in
      match Hashtbl.find_opt t.nodes.(at).selected (c, flow.Flow.dst) with
      | None -> Packet.Drop "no route for policy class"
      | Some (next_hop, r) ->
        if not (Bitset.mem r.allowed flow.Flow.src) then
          Packet.Drop "selected route not permitted for this source"
        else Packet.Forward next_hop
    end

  let table_entries t ad = Hashtbl.length t.nodes.(ad).selected

  let selected_route t ~at ~dst ~flow =
    let c = class_of_flow t flow in
    match Hashtbl.find_opt t.nodes.(at).selected (c, dst) with
    | None -> None
    | Some (_, r) -> if at = dst then Some r else Some { r with path = at :: r.path }
end

module Standard = Make (struct
  let name = "idrp"

  let per_source = false

  let distribution_scope = false
end)

module Per_source = Make (struct
  let name = "idrp-per-source"

  let per_source = true

  let distribution_scope = false
end)

module Scoped = Make (struct
  let name = "idrp-scoped"

  let per_source = false

  let distribution_scope = true
end)
