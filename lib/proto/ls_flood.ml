module Graph = Pr_topology.Graph
module Network = Pr_sim.Network
module Bitset = Pr_util.Bitset

type delta = Unchanged | Full | Origins of Pr_topology.Ad.id list

type t = {
  net : Lsdb.lsa Network.t;
  n : int;
  dbs : Lsdb.t array;
  seqs : int array;
  (* Per-AD database version: bumped on every accepted LSA. Protocols
     key their synthesis caches on this — an unchanged version means
     the AD's view of the topology is unchanged, so cached SPF trees
     and policy routes are still valid. *)
  versions : int array;
  (* Per-AD dirty set since the AD's consumer last drained it: which
     origins' LSAs changed. The scoped-invalidation machinery — a
     consumer whose cached region provably does not meet the delta
     skips its recompute entirely. [dirty_full] swallows the origin
     list (database reset). Tracking starts at an AD's first drain,
     which answers [Full] and allocates [dirty_mem]; until then
     [dirty_mem] is [None] and nothing is recorded, so protocols that
     never drain pay nothing per change. *)
  dirty : Pr_topology.Ad.id list array;  (* newest first *)
  dirty_mem : Bitset.t option array;
  dirty_full : bool array;
  terms_for : Pr_topology.Ad.id -> Pr_policy.Policy_term.t list;
  flood_to : Pr_topology.Ad.id -> bool;
  (* Per origin, the last record {!check_lsa} accepted (a sentinel
     until then): honest copies of one origination are one physical
     record, so each is validated once however many copies arrive. *)
  vetted : Lsdb.lsa array;
  mutable on_change : Pr_topology.Ad.id -> origin:Pr_topology.Ad.id option -> unit;
}

let create net ~terms_for ?(flood_to = fun _ -> true) () =
  let n = Graph.n (Network.graph net) in
  let first = Lsdb.create ~n in
  {
    net;
    n;
    dbs = Array.init n (fun ad -> if ad = 0 then first else Lsdb.sibling first);
    seqs = Array.make n 0;
    versions = Array.make n 0;
    dirty = Array.make n [];
    dirty_mem = Array.make n None;
    dirty_full = Array.make n false;
    terms_for;
    flood_to;
    vetted = Array.make n (Lsdb.make_lsa ~origin:(-1) ~seq:(-1) ~adjacencies:[] ~terms:[]);
    on_change = (fun _ ~origin:_ -> ());
  }

let set_on_change t f = t.on_change <- f

let db t ad = t.dbs.(ad)

let db_version t ad = t.versions.(ad)

let db_entries t ad = Lsdb.entry_count t.dbs.(ad)

(* Current up adjacencies of [ad]: the cheapest up link per neighbor,
   with its cost and delay. *)
let current_adjacencies t ad =
  let g = Network.graph t.net in
  let acc = ref [] in
  Graph.iter_neighbor_ids g ad ~f:(fun nbr ->
      let lid = Network.up_link t.net ad nbr in
      if lid >= 0 then begin
        let l = Graph.link g lid in
        acc :=
          { Lsdb.nbr; cost = l.Pr_topology.Link.cost; delay = l.Pr_topology.Link.delay }
          :: !acc
      end);
  List.rev !acc

let flood_from t ad ~except lsa =
  Network.broadcast t.net ~src:ad ~except ~filter:t.flood_to ~bytes:(Lsdb.lsa_bytes lsa) lsa

let mark_dirty t ad origin =
  match (t.dirty_mem.(ad), origin) with
  | None, _ -> ()
  | Some m, None ->
    t.dirty_full.(ad) <- true;
    t.dirty.(ad) <- [];
    Bitset.clear m
  | Some m, Some o ->
    if (not t.dirty_full.(ad)) && not (Bitset.mem m o) then begin
      Bitset.add m o;
      t.dirty.(ad) <- o :: t.dirty.(ad)
    end

let changed t ad ~origin =
  t.versions.(ad) <- t.versions.(ad) + 1;
  mark_dirty t ad origin;
  t.on_change ad ~origin

let take_delta t ad =
  match t.dirty_mem.(ad) with
  | None ->
    t.dirty_mem.(ad) <- Some (Bitset.create t.n);
    Full
  | Some m ->
    if t.dirty_full.(ad) then begin
      t.dirty_full.(ad) <- false;
      t.dirty.(ad) <- [];
      Bitset.clear m;
      Full
    end
    else (
      match t.dirty.(ad) with
      | [] -> Unchanged
      | os ->
        t.dirty.(ad) <- [];
        Bitset.clear m;
        Origins (List.rev os))

(* The region an AD's cached routes can depend on: everything reachable
   from it through bidirectionally-confirmed adjacencies of its own
   database. *)
let reachable_set t ad =
  let db = t.dbs.(ad) in
  let reach = Bitset.create t.n in
  Bitset.add reach ad;
  let queue = Queue.create () in
  Queue.add ad queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun (a : Lsdb.adjacency) ->
        let v = a.Lsdb.nbr in
        if v >= 0 && v < t.n && (not (Bitset.mem reach v))
           && Lsdb.bidirectional db u v <> None
        then begin
          Bitset.add reach v;
          Queue.add v queue
        end)
      (Lsdb.adjacencies_of db u)
  done;
  reach

(* Can a change to [o]'s LSA affect routes computed over [reach]?
   Only if [o] is inside the region, or its LSA advertises a
   bidirectionally-confirmed adjacency attaching it to the region (a
   new attachment grows the region; anything further away cannot alter
   any shortest or policy route among region members, because every
   edge such routes use is advertised by two region members whose LSAs
   did not change). *)
let delta_in_scope t ad ~reach origins =
  let db = t.dbs.(ad) in
  List.exists
    (fun o ->
      o = ad
      || Bitset.mem reach o
      || List.exists
           (fun (a : Lsdb.adjacency) ->
             let v = a.Lsdb.nbr in
             v >= 0 && v < t.n && Bitset.mem reach v && Lsdb.bidirectional db o v <> None)
           (Lsdb.adjacencies_of db o))
    origins

let originate t ad =
  t.seqs.(ad) <- t.seqs.(ad) + 1;
  let lsa =
    Lsdb.make_lsa ~origin:ad ~seq:t.seqs.(ad)
      ~adjacencies:(current_adjacencies t ad) ~terms:(t.terms_for ad)
  in
  if Lsdb.insert t.dbs.(ad) lsa then changed t ad ~origin:(Some ad);
  flood_from t ad ~except:(-1) lsa

let start t =
  let n = Graph.n (Network.graph t.net) in
  for ad = 0 to n - 1 do
    originate t ad
  done

let handle_message t ~at ~from lsa =
  if Lsdb.insert t.dbs.(at) lsa then begin
    changed t at ~origin:(Some lsa.Lsdb.origin);
    flood_from t at ~except:from lsa
  end

(* {2 Adversarial surface shared by the link-state families}

   Validation accepts everything honest flooding can deliver —
   including duplicates and late copies racing a newer origination
   (stale sequence numbers are shed by {!Lsdb.insert}, which is also
   what contains replay: re-injected old LSAs never displace newer
   state). What it rejects is content no honest origin can emit: out of
   range ids, negative costs, adjacencies over links the real topology
   does not contain (the LS form of a route leak — claiming transit
   connectivity the AD does not have), and Policy Terms owned by
   someone other than the origin. Term {e content} is deliberately not
   checked against the static config: ORWG mutates transit policies
   live ([set_policy]), so only ownership is invariant.

   A verdict depends only on the record's immutable fields (origin,
   adjacencies, term owners) and the static graph, so an accepted
   record is remembered by identity and a later copy of it is answered
   without re-checking. Corruption, forgery and tampering always build
   fresh records; rejections are never remembered. *)

let link_exists g u v = Graph.uniq_slot g u v >= 0

let validate t (lsa : Lsdb.lsa) =
  let g = Network.graph t.net in
  let origin = lsa.Lsdb.origin in
  if origin < 0 || origin >= t.n then
    Error (Printf.sprintf "LSA origin %d out of range" origin)
  else begin
    let bad = ref None in
    List.iter
      (fun (a : Lsdb.adjacency) ->
        if !bad = None then
          if a.Lsdb.nbr < 0 || a.Lsdb.nbr >= t.n then
            bad :=
              Some (Printf.sprintf "adjacency neighbor %d out of range" a.Lsdb.nbr)
          else if a.Lsdb.cost < 0 then
            bad := Some (Printf.sprintf "negative adjacency cost %d" a.Lsdb.cost)
          else if not (Float.is_finite a.Lsdb.delay && a.Lsdb.delay > 0.0) then
            bad :=
              Some
                (Printf.sprintf "adjacency to %d has impossible delay %g" a.Lsdb.nbr
                   a.Lsdb.delay)
          else if not (link_exists g origin a.Lsdb.nbr) then
            bad :=
              Some
                (Printf.sprintf "ad %d advertises a fabricated adjacency to %d"
                   origin a.Lsdb.nbr))
      lsa.Lsdb.adjacencies;
    List.iter
      (fun (term : Pr_policy.Policy_term.t) ->
        if !bad = None && term.Pr_policy.Policy_term.owner <> origin then
          bad :=
            Some
              (Printf.sprintf "ad %d advertises a policy term owned by ad %d"
                 origin term.Pr_policy.Policy_term.owner))
      lsa.Lsdb.terms;
    match !bad with None -> Ok () | Some reason -> Error reason
  end

let check_lsa t ~at:_ (lsa : Lsdb.lsa) =
  let origin = lsa.Lsdb.origin in
  if origin >= 0 && origin < t.n && t.vetted.(origin) == lsa then Ok ()
  else
    match validate t lsa with
    | Ok () ->
      t.vetted.(origin) <- lsa;
      Ok ()
    | Error _ as e -> e

let audit_db t ~at =
  Lsdb.fold t.dbs.(at) ~init:None ~f:(fun acc lsa ->
      match acc with
      | Some _ -> acc
      | None -> (
        match check_lsa t ~at lsa with
        | Ok () -> None
        | Error reason -> Some reason))

(* Lowest-id AD the origin has no real link to — the fabricated
   neighbor corruption and forgery both claim. None in complete
   graphs. *)
let fabricated_neighbor t origin =
  let g = Network.graph t.net in
  let fake = ref (-1) in
  let i = ref 0 in
  while !fake < 0 && !i < t.n do
    if !i <> origin && not (link_exists g origin !i) then fake := !i;
    incr i
  done;
  if !fake < 0 then None else Some !fake

(* Retarget one adjacency onto a link that does not exist: detectable
   by {!check_lsa}, invisible to SPF without a guard (the bidirectional
   discipline never confirms it), and — unlike truncation — never
   confusable with an honest link-down. *)
let corrupt_lsa t ~rng (lsa : Lsdb.lsa) =
  match (lsa.Lsdb.adjacencies, fabricated_neighbor t lsa.Lsdb.origin) with
  | [], _ | _, None -> None
  | adjs, Some fake ->
    let k = Pr_util.Rng.int rng (List.length adjs) in
    let adjacencies =
      List.mapi
        (fun i (a : Lsdb.adjacency) ->
          if i = k then { a with Lsdb.nbr = fake } else a)
        adjs
    in
    Some { lsa with Lsdb.adjacencies; compiled = None }

(* The classic LS attack: a far-future sequence number (honest
   re-originations are shadowed until something intervenes) carrying a
   fabricated adjacency. Guarded receivers reject it outright;
   unguarded ones flood it internet-wide, where the final audit finds
   it. *)
let forge_lsa t origin =
  match fabricated_neighbor t origin with
  | None -> None
  | Some fake ->
    let adjacencies =
      current_adjacencies t origin @ [ { Lsdb.nbr = fake; cost = 1; delay = 1.0 } ]
    in
    let lsa =
      Lsdb.make_lsa ~origin ~seq:(t.seqs.(origin) + 1000) ~adjacencies
        ~terms:(t.terms_for origin)
    in
    Some (lsa, Lsdb.lsa_bytes lsa)

(* Quarantine readmission: [nbr] pushes its full database to [at] —
   the same bring-up exchange {!reset_node} performs, directed. LSAs
   [at] already has (or newer) are shed by the sequence check. *)
let resync t ~at ~nbr =
  if t.flood_to at && t.flood_to nbr then
    Lsdb.fold t.dbs.(nbr) ~init:() ~f:(fun () lsa ->
        Network.send t.net ~src:nbr ~dst:at ~bytes:(Lsdb.lsa_bytes lsa) lsa)

(* A link event at [at]: re-originate, and on restore pull the other
   end's full database — LSAs flooded while the link was down (or lost
   on it as it failed) are never sent again, so without the pull a
   healed partition keeps two diverged views. Each end pulls from the
   other, so a restore exchanges in both directions. *)
let handle_link t ~at ~link ~up =
  originate t at;
  if up then
    resync t ~at ~nbr:(Pr_topology.Link.other_end (Graph.link (Network.graph t.net) link) at)

let reset_node t ad =
  (* State loss empties the AD's database; the origination sequence
     number survives (lollipop-style — restarting at 0 would make the
     rest of the internet reject the fresh LSAs as stale). *)
  t.dbs.(ad) <- Lsdb.sibling t.dbs.(ad);
  changed t ad ~origin:None;
  originate t ad;
  (* Adjacency bring-up database exchange (the OSPF-style sync real
     link-state protocols perform): each up in-scope neighbor pushes
     its full database to the restarted AD, so its view reconverges
     even for origins it shares no adjacency with. Duplicates are shed
     by the sequence-number check; the pushes are charged to the
     neighbors like any other flood traffic. *)
  Network.iter_up_neighbors t.net ad ~f:(fun nbr -> resync t ~at:ad ~nbr)
