(* Policy decision diagrams (see pdd.mli).

   Variable order: per-AD roots array (the AD variable), then
     level 0  QOS class        — Branch, Qos.count children
     level 1  UCI              — Branch, Uci.count children
     level 2  authentication   — Branch, 2 children (0 = unauth)
     level 3  hour of day      — Branch, 24 children
     level 4  source AD        — Test chain (bitset probes)
     level 5  destination AD   — Test chain
     level 6  previous-hop AD  — Test chain
     level 7  next-hop AD      — Test chain

   A term list is an OR of conjunctions. The builder carries the set
   of terms still satisfiable along the current path ("live"); at a
   branch level it partitions live terms by attribute value, at a test
   level it emits a chain of binary predicate tests (one per distinct
   interned predicate among the live terms), accumulating which terms
   survived. Empty live set => false leaf; any live term with only
   trivial conditions left => true leaf (short-circuit). Nodes and
   predicates are hash-consed globally, so equal sub-diagrams are
   pointer-equal across every AD in the database. *)

module Compiled = Pr_policy.Compiled
module Policy_store = Pr_policy.Policy_store
module Flow = Pr_policy.Flow
module Qos = Pr_policy.Qos
module Uci = Pr_policy.Uci
module Bitset = Pr_util.Bitset

type node =
  | Leaf of bool
  | Branch of { id : int; sel : int; children : node array }
  | Test of { id : int; sel : int; pred : Compiled.pred; yes : node; no : node }

let leaf_false = Leaf false
let leaf_true = Leaf true
let leaf b = if b then leaf_true else leaf_false
let is_false_leaf n = n == leaf_false

let node_id = function
  | Leaf false -> 0
  | Leaf true -> 1
  | Branch { id; _ } | Test { id; _ } -> id

(* Interned predicate: canonical Compiled.pred plus its id and
   triviality class (empty Except = always true, empty Only = always
   false — both show up in generated and random policies). *)
type triv = T_true | T_false | T_test

type ipred = { pid : int; p : Compiled.pred; triv : triv }

type key = KBranch of int * int array | KTest of int * int * int * int

(* Predicates are interned by content: the complement flag and the
   bitset's packed bytes. A lookup hashes and compares bytes in place,
   allocating nothing; the table's keys are the interned predicates
   themselves, which no one mutates once compiled. *)
module Pred_tbl = Hashtbl.Make (struct
  type t = Compiled.pred

  let equal (a : t) (b : t) =
    a.Compiled.compl = b.Compiled.compl && Bitset.equal a.Compiled.bits b.Compiled.bits

  let hash (p : t) = Bitset.hash p.Compiled.bits lxor Bool.to_int p.Compiled.compl
end)

type store = {
  preds : ipred Pred_tbl.t;
  nodes : (key, node) Hashtbl.t;
  mutable next_pid : int;
  mutable next_id : int;
}

let store_create () =
  { preds = Pred_tbl.create 256; nodes = Hashtbl.create 1024; next_pid = 0; next_id = 2 }

let store_nodes s = Hashtbl.length s.nodes
let store_preds s = Pred_tbl.length s.preds

let intern_pred s (p : Compiled.pred) =
  match Pred_tbl.find_opt s.preds p with
  | Some ip -> ip
  | None ->
      let triv =
        if not (Bitset.is_empty p.Compiled.bits) then T_test
        else if p.Compiled.compl then T_true
        else T_false
      in
      let ip = { pid = s.next_pid; p; triv } in
      s.next_pid <- s.next_pid + 1;
      Pred_tbl.add s.preds p ip;
      ip

let mk_branch s sel children =
  let first = children.(0) in
  if Array.for_all (fun c -> c == first) children then first
  else
    let k = KBranch (sel, Array.map node_id children) in
    match Hashtbl.find_opt s.nodes k with
    | Some n -> n
    | None ->
        let n = Branch { id = s.next_id; sel; children } in
        s.next_id <- s.next_id + 1;
        Hashtbl.add s.nodes k n;
        n

let mk_test s sel ip yes no =
  if yes == no then yes
  else
    let k = KTest (sel, ip.pid, node_id yes, node_id no) in
    match Hashtbl.find_opt s.nodes k with
    | Some n -> n
    | None ->
        let n = Test { id = s.next_id; sel; pred = ip.p; yes; no } in
        s.next_id <- s.next_id + 1;
        Hashtbl.add s.nodes k n;
        n

let full_day = (1 lsl 24) - 1
let full_qos = (1 lsl Qos.count) - 1
let full_uci = (1 lsl Uci.count) - 1

(* Per-term compile-time info: masks, interned predicates, and
   free.(l) = "every condition at levels >= l is trivially true" (the
   short-circuit test). *)
type tinfo = {
  qm : int;
  um : int;
  hm : int;
  auth : bool;
  t_src : ipred;
  t_dst : ipred;
  t_prev : ipred;
  t_next : ipred;
  free : bool array; (* length 9 *)
}

let pred_at info l i =
  match l with
  | 4 -> info.(i).t_src
  | 5 -> info.(i).t_dst
  | 6 -> info.(i).t_prev
  | _ -> info.(i).t_next

let compile s (c : Compiled.t) =
  let views = Compiled.term_views c in
  let info =
    Array.map
      (fun (v : Compiled.term_view) ->
        let t_src = intern_pred s v.Compiled.v_src
        and t_dst = intern_pred s v.Compiled.v_dst
        and t_prev = intern_pred s v.Compiled.v_prev
        and t_next = intern_pred s v.Compiled.v_next in
        let free = Array.make 9 false in
        let trivial_at = function
          | 0 -> v.Compiled.v_qos_mask land full_qos = full_qos
          | 1 -> v.Compiled.v_uci_mask land full_uci = full_uci
          | 2 -> not v.Compiled.v_auth_required
          | 3 -> v.Compiled.v_hour_mask land full_day = full_day
          | 4 -> t_src.triv = T_true
          | 5 -> t_dst.triv = T_true
          | 6 -> t_prev.triv = T_true
          | _ -> t_next.triv = T_true
        in
        free.(8) <- true;
        for l = 7 downto 0 do
          free.(l) <- free.(l + 1) && trivial_at l
        done;
        {
          qm = v.Compiled.v_qos_mask;
          um = v.Compiled.v_uci_mask;
          hm = v.Compiled.v_hour_mask;
          auth = v.Compiled.v_auth_required;
          t_src;
          t_dst;
          t_prev;
          t_next;
          free;
        })
      views
  in
  (* Terms that can never admit anything vanish up front. Src and dst
     are always concrete, so an always-false predicate there kills the
     term; prev/next must NOT be pruned the same way — [None] (the flow
     enters or leaves the internet at this AD) passes any predicate,
     so even an all-false prev predicate admits border crossings. *)
  let dead i =
    info.(i).qm = 0 || info.(i).um = 0 || info.(i).hm = 0
    || info.(i).t_src.triv = T_false
    || info.(i).t_dst.triv = T_false
  in
  let all_live =
    List.filter
      (fun i -> not (dead i))
      (List.init (Array.length info) (fun i -> i))
  in
  let memo : (int * int list, node) Hashtbl.t = Hashtbl.create 16 in
  let rec build l live =
    if live = [] then leaf_false
    else if List.exists (fun i -> info.(i).free.(l)) live then leaf_true
    else
      match Hashtbl.find_opt memo (l, live) with
      | Some n -> n
      | None ->
          let n =
            if l >= 8 then leaf_true
            else if l <= 3 then branch_level l live
            else test_level l live
          in
          Hashtbl.add memo (l, live) n;
          n
  and branch_level l live =
    let arity = match l with 0 -> Qos.count | 1 -> Uci.count | 2 -> 2 | _ -> 24 in
    let passes v i =
      match l with
      | 0 -> info.(i).qm land (1 lsl v) <> 0
      | 1 -> info.(i).um land (1 lsl v) <> 0
      | 2 -> v = 1 || not info.(i).auth
      | _ -> info.(i).hm land (1 lsl v) <> 0
    in
    let passes_all i =
      match l with
      | 0 -> info.(i).qm land full_qos = full_qos
      | 1 -> info.(i).um land full_uci = full_uci
      | 2 -> not info.(i).auth
      | _ -> info.(i).hm land full_day = full_day
    in
    (* When no live term tests this level every child is the same
       diagram, which [mk_branch] would collapse to: build it once. *)
    if List.for_all passes_all live then build (l + 1) live
    else
      let children =
        Array.init arity (fun v -> build (l + 1) (List.filter (passes v) live))
      in
      mk_branch s l children
  and test_level l live =
    let pass_through, tested =
      List.partition (fun i -> (pred_at info l i).triv = T_true) live
    in
    (* Group tested terms by interned predicate, ordered by pred id so
       the chain shape is deterministic. *)
    let groups = Hashtbl.create 8 in
    List.iter
      (fun i ->
        let ip = pred_at info l i in
        let members = try Hashtbl.find groups ip.pid with Not_found -> (ip, []) in
        Hashtbl.replace groups ip.pid (fst members, i :: snd members))
      tested;
    let gs =
      Hashtbl.fold (fun pid g acc -> (pid, g) :: acc) groups []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd
    in
    let rec chain gs surviving =
      match gs with
      | [] -> build (l + 1) (List.sort_uniq compare (surviving @ pass_through))
      | (ip, members) :: rest ->
          let yes =
            if List.exists (fun i -> info.(i).free.(l + 1)) members then leaf_true
            else chain rest (members @ surviving)
          in
          let no = chain rest surviving in
          mk_test s l ip yes no
    in
    chain gs []
  in
  build 0 all_live

(* --- walks ------------------------------------------------------- *)

let rec admit_node n (f : Flow.t) ~prev ~next =
  match n with
  | Leaf b -> b
  | Branch { sel; children; _ } ->
      let v =
        match sel with
        | 0 -> Qos.index f.Flow.qos
        | 1 -> Uci.index f.Flow.uci
        | 2 -> if f.Flow.authenticated then 1 else 0
        | _ -> f.Flow.hour
      in
      admit_node (Array.unsafe_get children v) f ~prev ~next
  | Test { sel; pred; yes; no; _ } ->
      let pass =
        match sel with
        | 4 -> Compiled.probe pred f.Flow.src
        | 5 -> Compiled.probe pred f.Flow.dst
        | 6 -> Compiled.hop_probe pred prev
        | _ -> Compiled.hop_probe pred next
      in
      admit_node (if pass then yes else no) f ~prev ~next

let rec flow_entry n (f : Flow.t) =
  match n with
  | Leaf _ -> n
  | Branch { sel; children; _ } ->
      let v =
        match sel with
        | 0 -> Qos.index f.Flow.qos
        | 1 -> Uci.index f.Flow.uci
        | 2 -> if f.Flow.authenticated then 1 else 0
        | _ -> f.Flow.hour
      in
      flow_entry (Array.unsafe_get children v) f
  | Test { sel; pred; yes; no; _ } when sel <= 5 ->
      let ad = if sel = 4 then f.Flow.src else f.Flow.dst in
      flow_entry (if Compiled.probe pred ad then yes else no) f
  | Test _ -> n

let rec entry_admit n ~prev ~next =
  match n with
  | Leaf b -> b
  | Test { sel = (6 | 7) as sel; pred; yes; no; _ } ->
      let pass = Compiled.hop_probe pred (if sel = 6 then prev else next) in
      entry_admit (if pass then yes else no) ~prev ~next
  | Branch _ | Test _ -> invalid_arg "Pdd.entry_admit: unresolved flow variable"

let rec depth = function
  | Leaf _ -> 0
  | Branch { children; _ } -> 1 + Array.fold_left (fun d c -> max d (depth c)) 0 children
  | Test { yes; no; _ } -> 1 + max (depth yes) (depth no)

(* --- whole-database diagrams ------------------------------------- *)

type snapshot = { s_version : int; s_roots : node array }

type db = {
  hc : store;
  pstore : Policy_store.t;
  n : int;
  seen : Pr_policy.Transit_policy.t array;
  mutable snap : snapshot;
  mutable rebuilds : int;
  mutable rebuilt_ads : int;
}

let db_create ?store pstore =
  let hc = match store with Some s -> s | None -> store_create () in
  let n = Policy_store.n pstore in
  let seen = Array.init n (Policy_store.transit pstore) in
  let roots = Array.init n (fun ad -> compile hc (Policy_store.compiled pstore ad)) in
  {
    hc;
    pstore;
    n;
    seen;
    snap = { s_version = Policy_store.version pstore; s_roots = roots };
    rebuilds = 1;
    rebuilt_ads = n;
  }

let db_store db = db.hc

let refresh db =
  let v = Policy_store.version db.pstore in
  if v = db.snap.s_version then []
  else begin
    let changed = ref [] in
    for ad = db.n - 1 downto 0 do
      if not (Policy_store.transit db.pstore ad == db.seen.(ad)) then
        changed := ad :: !changed
    done;
    match !changed with
    | [] ->
        (* Version moved but every policy object is the one we compiled
           (e.g. set_transit re-installing the same value): nothing to
           rebuild, just track the version. *)
        db.snap <- { db.snap with s_version = v };
        []
    | ads ->
        (* Copy-on-write: outstanding snapshots keep the old array. *)
        let roots = Array.copy db.snap.s_roots in
        List.iter
          (fun ad ->
            db.seen.(ad) <- Policy_store.transit db.pstore ad;
            roots.(ad) <- compile db.hc (Policy_store.compiled db.pstore ad))
          ads;
        db.snap <- { s_version = v; s_roots = roots };
        db.rebuilds <- db.rebuilds + 1;
        db.rebuilt_ads <- db.rebuilt_ads + List.length ads;
        ads
  end

let rebuilds db = db.rebuilds
let rebuilt_ads db = db.rebuilt_ads

let snapshot db = db.snap
let snapshot_version s = s.s_version
let root s ad = s.s_roots.(ad)

let admit s ~ad f ~prev ~next = admit_node s.s_roots.(ad) f ~prev ~next

(* Hash-cons audit: walk everything reachable from the current roots
   and verify structural identity implies physical identity, for both
   nodes and predicates. *)
let check db =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let seen_ids = Hashtbl.create 1024 in
  let by_key = Hashtbl.create 1024 in
  let preds_by_key = Pred_tbl.create 256 in
  let result = ref (Ok ()) in
  let fail_once e = if !result = Ok () then result := e in
  let check_pred (p : Compiled.pred) =
    match Pred_tbl.find_opt preds_by_key p with
    | Some p' when not (p' == p) ->
        fail_once (err "two physically distinct equal predicates reachable")
    | Some _ -> ()
    | None -> Pred_tbl.add preds_by_key p p
  in
  let rec visit n =
    match n with
    | Leaf _ -> ()
    | _ when Hashtbl.mem seen_ids (node_id n) -> ()
    | Branch { id; sel; children } ->
        Hashtbl.add seen_ids id ();
        let k = KBranch (sel, Array.map node_id children) in
        record k n;
        Array.iter visit children
    | Test { id; sel; pred; yes; no } ->
        Hashtbl.add seen_ids id ();
        check_pred pred;
        let k = KTest (sel, (intern_pred db.hc pred).pid, node_id yes, node_id no) in
        record k n;
        visit yes;
        visit no
  and record k n =
    (match Hashtbl.find_opt by_key k with
    | Some n' when not (n' == n) ->
        fail_once (err "two structurally equal live nodes (id %d / %d)" (node_id n') (node_id n))
    | Some _ -> ()
    | None -> Hashtbl.add by_key k n);
    match Hashtbl.find_opt db.hc.nodes k with
    | Some n' when n' == n -> ()
    | Some _ -> fail_once (err "reachable node %d shadowed in the store" (node_id n))
    | None -> fail_once (err "reachable node %d not interned" (node_id n))
  in
  Array.iter visit db.snap.s_roots;
  !result
