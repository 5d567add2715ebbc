module Graph = Pr_topology.Graph
module Network = Pr_sim.Network
module Flow = Pr_policy.Flow
module Packet = Pr_proto.Packet
module Cost_model = Pr_proto.Cost_model
module Design_point = Pr_proto.Design_point

let probe_update = Pr_proto.Probe.make "egp.update"

type message = (Pr_topology.Ad.id * bool) list

type node = {
  advertisers : bool array array;  (* advertisers.(dst).(nbr) *)
  chosen : int array;  (* sticky next hop per dst; -1 = none *)
  sent : (Pr_topology.Ad.id, bool array) Hashtbl.t;
      (* what we last announced to each neighbor *)
}

type t = { graph : Graph.t; net : message Network.t; nodes : node array }

let name = "egp"

let design_point =
  Design_point.make Design_point.Distance_vector Design_point.Hop_by_hop
    Design_point.In_topology

let create graph _config net =
  let n = Graph.n graph in
  let make_node ad =
    let chosen = Array.make n (-1) in
    chosen.(ad) <- ad;
    { advertisers = Array.init n (fun _ -> Array.make n false); chosen; sent = Hashtbl.create 8 }
  in
  { graph; net; nodes = Array.init n make_node }

(* EGP distances are not comparable across neighbors, so route choice
   cannot pick "the shortest". We model the practical behaviour: the
   first advertiser heard is kept until it withdraws ("sticky"); on
   withdrawal the lowest-id remaining advertiser is adopted. Binary
   reachability means a post-failure re-choice can silently adopt an
   advertiser whose own path runs through us — a stable forwarding
   loop no metric will ever reveal. *)
let rechoose t ad dst =
  let node = t.nodes.(ad) in
  if dst <> ad then begin
    let current = node.chosen.(dst) in
    if current >= 0 && node.advertisers.(dst).(current) then ()
    else begin
      let best = ref (-1) in
      Array.iteri
        (fun nbr yes -> if yes && !best < 0 then best := nbr)
        node.advertisers.(dst);
      node.chosen.(dst) <- !best
    end
  end

let choice t ad dst =
  if ad = dst then Some ad
  else begin
    let c = t.nodes.(ad).chosen.(dst) in
    if c >= 0 then Some c else None
  end

let reaches t ad dst = choice t ad dst <> None

let message_bytes entries =
  Cost_model.update_fixed_bytes + (Cost_model.dv_entry_bytes * List.length entries)

(* Send each neighbor the diff between what we now advertise to it and
   what we last told it. Faithful to EGP's NR messages, a gateway
   advertises everything it reaches — with NO split horizon; nothing in
   the protocol stops the advertisement going back to the neighbor the
   route runs through. On the engineered tree this is harmless; on a
   cyclic topology it is what makes stable loops possible (§3). *)
let advertise t ad =
  let n = Graph.n t.graph in
  List.iter
    (fun nbr ->
      let previous =
        match Hashtbl.find_opt t.nodes.(ad).sent nbr with
        | Some a -> a
        | None ->
          let a = Array.make n false in
          Hashtbl.replace t.nodes.(ad).sent nbr a;
          a
      in
      let entries = ref [] in
      for dst = n - 1 downto 0 do
        let now = choice t ad dst <> None in
        if now <> previous.(dst) then begin
          previous.(dst) <- now;
          entries := (dst, now) :: !entries
        end
      done;
      if !entries <> [] then
        Network.send t.net ~src:ad ~dst:nbr ~bytes:(message_bytes !entries) !entries)
    (Network.up_neighbors t.net ad)

let start t =
  for ad = 0 to Graph.n t.graph - 1 do
    advertise t ad
  done

let handle_message t ~at ~from entries =
  Pr_proto.Probe.computation probe_update t.net ~at ();
  List.iter
    (fun (dst, reachable) ->
      t.nodes.(at).advertisers.(dst).(from) <- reachable;
      rechoose t at dst)
    entries;
  advertise t at

let handle_link t ~at ~link ~up =
  let l = Graph.link t.graph link in
  let nbr = Pr_topology.Link.other_end l at in
  if not up then begin
    Array.iteri
      (fun dst adv ->
        adv.(nbr) <- false;
        rechoose t at dst)
      t.nodes.(at).advertisers;
    Hashtbl.remove t.nodes.(at).sent nbr
  end;
  advertise t at

let reset_node t ~at =
  let node = t.nodes.(at) in
  Array.iter (fun adv -> Array.fill adv 0 (Array.length adv) false) node.advertisers;
  Array.fill node.chosen 0 (Array.length node.chosen) (-1);
  node.chosen.(at) <- at;
  (* Forgetting [sent] resets the NR diff baseline: the next advertise
     re-announces everything the restarted gateway reaches. *)
  Hashtbl.reset node.sent;
  advertise t at

(* {2 Adversarial surface}

   EGP is the paper's cautionary tale: an NR message is a bare list of
   (destination, reachable) claims. Beyond index range there is nothing
   to validate — a flipped bit or an "I reach everything" forgery is
   byte-for-byte indistinguishable from an honest core gateway, and no
   installed state betrays it afterwards ([audit_state] is [None] by
   construction, not laziness). *)

let check_update t ~at:_ ~from:_ entries =
  let n = Graph.n t.graph in
  let rec go = function
    | [] -> Ok ()
    | (dst, _) :: rest ->
      if dst < 0 || dst >= n then
        Error (Printf.sprintf "destination %d out of range" dst)
      else go rest
  in
  go entries

(* Flip one reachability bit: perfectly well-formed. *)
let corrupt_update _t ~rng entries =
  match entries with
  | [] -> None
  | l ->
    let k = Pr_util.Rng.int rng (List.length l) in
    Some (List.mapi (fun i (d, r) -> if i = k then (d, not r) else (d, r)) l)

(* The EGP route leak: claim reachability to every destination. *)
let forge_update t ~origin:_ =
  let n = Graph.n t.graph in
  let entries = List.init n (fun d -> (d, true)) in
  Some (entries, message_bytes entries)

let audit_state _t ~at:_ = None

(* Drop the NR diff baseline toward [at] and re-advertise: [at] gets a
   full restatement; other neighbors see empty diffs and nothing. *)
let resync t ~at ~nbr =
  Hashtbl.remove t.nodes.(nbr).sent at;
  advertise t nbr

let prepare_flow _t _flow = Packet.no_prep

let originate _t _packet = ()

let forward t ~at ~from:_ packet =
  let dst = packet.Packet.flow.Flow.dst in
  if at = dst then Packet.Deliver
  else
    match choice t at dst with
    | None -> Packet.Drop "no route"
    | Some nbr -> Packet.Forward nbr

let table_entries t ad =
  let n = Graph.n t.graph in
  let count = ref 0 in
  for dst = 0 to n - 1 do
    if reaches t ad dst then incr count
  done;
  !count

let next_hop_of t ~at ~dst = if at = dst then None else choice t at dst
