module Graph = Pr_topology.Graph
module Network = Pr_sim.Network
module Flow = Pr_policy.Flow
module Packet = Pr_proto.Packet
module Cost_model = Pr_proto.Cost_model
module Design_point = Pr_proto.Design_point

let probe_update = Pr_proto.Probe.make "egp.update"

type message = (Pr_topology.Ad.id * bool) list

(* What an AD last announced to one neighbor, per destination, and
   the AD's advertise count just after it last compared it. *)
type baseline = { seen : bool array; mutable synced : int }

type node = {
  advertisers : Bytes.t;
      (* byte [dst * degree + j] is 1 when the neighbor of the AD's
         unique-neighbor slot [j] advertises [dst]; n x degree bytes *)
  chosen : int array;  (* sticky next hop per dst; -1 = none *)
  sent : (Pr_topology.Ad.id, baseline) Hashtbl.t;
      (* what we last announced to each neighbor *)
  mutable advertised : int;  (* [advertise] calls so far *)
}

type t = {
  graph : Graph.t;
  net : message Network.t;
  nodes : node array;
  (* [Graph.unique_csr]: AD [ad]'s neighbor slots are [uoff.(ad)] to
     [uoff.(ad + 1) - 1] of [unbr], in increasing neighbor order. *)
  uoff : int array;
  unbr : int array;
}

let name = "egp"

let design_point =
  Design_point.make Design_point.Distance_vector Design_point.Hop_by_hop
    Design_point.In_topology

(* The static filler [nodes] is made over ({!Pr_util.Filler}). *)
let no_node =
  { advertisers = Bytes.empty; chosen = [||]; sent = Hashtbl.create 1; advertised = 0 }

let create graph _config net =
  let n = Graph.n graph in
  let uoff, unbr = Graph.unique_csr graph in
  let make_node ad =
    let chosen = Array.make n (-1) in
    chosen.(ad) <- ad;
    {
      advertisers = Bytes.make (n * (uoff.(ad + 1) - uoff.(ad))) '\000';
      chosen;
      sent = Hashtbl.create 8;
      advertised = 0;
    }
  in
  { graph; net; nodes = Pr_util.Filler.init ~filler:no_node n make_node; uoff; unbr }

let degree t ad = t.uoff.(ad + 1) - t.uoff.(ad)

(* [nbr]'s slot in [ad]'s row, counted from the row's start. *)
let slot t ad nbr = Graph.uniq_slot t.graph ad nbr - t.uoff.(ad)

let advertises t ad ~dst j =
  Bytes.get t.nodes.(ad).advertisers ((dst * degree t ad) + j) <> '\000'

let set_advertises t ad ~dst j yes =
  Bytes.set t.nodes.(ad).advertisers ((dst * degree t ad) + j) (if yes then '\001' else '\000')

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
    if current >= 0 && advertises t ad ~dst (slot t ad current) then ()
    else begin
      (* The row is sorted by neighbor id: its first advertiser is the
         lowest-id one. *)
      let j = ref 0 and deg = degree t ad in
      while !j < deg && not (advertises t ad ~dst !j) do
        incr j
      done;
      node.chosen.(dst) <- (if !j < deg then t.unbr.(t.uoff.(ad) + !j) else -1)
    end
  end

let choice t ad dst =
  if ad = dst then Some ad
  else begin
    let c = t.nodes.(ad).chosen.(dst) in
    if c >= 0 then Some c else None
  end

(* [choice] without its option. *)
let reaches t ad dst = ad = dst || t.nodes.(ad).chosen.(dst) >= 0

let message_bytes entries =
  Cost_model.update_fixed_bytes + (Cost_model.dv_entry_bytes * List.length entries)

(* Are a message's destinations strictly ascending? One that
   [advertise] built always is; a corrupted or forged one need not be. *)
let rec ascending prev = function
  | [] -> true
  | (dst, _) :: rest -> dst > prev && ascending dst rest

(* Send each neighbor the diff between what we now advertise to it and
   what we last told it. Faithful to EGP's NR messages, a gateway
   advertises everything it reaches — with NO split horizon; nothing in
   the protocol stops the advertisement going back to the neighbor the
   route runs through. On the engineered tree this is harmless; on a
   cyclic topology it is what makes stable loops possible (§3).

   Every handler that moves [chosen] advertises at once, so
   [changed], when given, lists (in ascending order) every destination
   whose [chosen] may have moved since the AD's last advertise. A
   baseline compared at that advertise then differs from the AD's
   routes only there. Any other baseline (new, reset, or kept while
   its neighbor was down) is compared over every destination. *)
let advertise ?changed t ad =
  let n = Graph.n t.graph in
  let node = t.nodes.(ad) in
  let epoch = node.advertised in
  node.advertised <- epoch + 1;
  let changed = match changed with Some l when ascending (-1) l -> Some l | _ -> None in
  Network.iter_up_neighbors t.net ad ~f:(fun nbr ->
      let b =
        match Hashtbl.find_opt node.sent nbr with
        | Some b -> b
        | None ->
          let b = { seen = Array.make n false; synced = -1 } in
          Hashtbl.replace node.sent nbr b;
          b
      in
      let seen = b.seen in
      let entries =
        match changed with
        | Some l when b.synced = epoch ->
          let rec diff = function
            | [] -> []
            | (dst, _) :: rest ->
              let now = reaches t ad dst in
              if now <> seen.(dst) then begin
                seen.(dst) <- now;
                (dst, now) :: diff rest
              end
              else diff rest
          in
          diff l
        | _ ->
          let entries = ref [] in
          for dst = n - 1 downto 0 do
            let now = reaches t ad dst in
            if now <> seen.(dst) then begin
              seen.(dst) <- now;
              entries := (dst, now) :: !entries
            end
          done;
          !entries
      in
      b.synced <- epoch + 1;
      if entries <> [] then
        Network.send t.net ~src:ad ~dst:nbr ~bytes:(message_bytes entries) entries)

let start t =
  for ad = 0 to Graph.n t.graph - 1 do
    advertise t ad
  done

let handle_message t ~at ~from entries =
  Pr_proto.Probe.computation probe_update t.net ~at ();
  let j = slot t at from in
  List.iter
    (fun (dst, reachable) ->
      set_advertises t at ~dst j reachable;
      rechoose t at dst)
    entries;
  advertise t at ~changed:entries

let handle_link t ~at ~link ~up =
  let l = Graph.link t.graph link in
  let nbr = Pr_topology.Link.other_end l at in
  if not up then begin
    let j = slot t at nbr in
    for dst = 0 to Graph.n t.graph - 1 do
      set_advertises t at ~dst j false;
      rechoose t at dst
    done;
    Hashtbl.remove t.nodes.(at).sent nbr;
    advertise t at
  end
  else
    (* A restored link moves no route: only a neighbor without a
       baseline hears anything. *)
    advertise t at ~changed:[]

let reset_node t ~at =
  let node = t.nodes.(at) in
  Bytes.fill node.advertisers 0 (Bytes.length node.advertisers) '\000';
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
  advertise t nbr ~changed:[]

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
