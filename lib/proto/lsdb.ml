type adjacency = { nbr : Pr_topology.Ad.id; cost : int; delay : float }

type lsa = {
  origin : Pr_topology.Ad.id;
  seq : int;
  adjacencies : adjacency list;
  terms : Pr_policy.Policy_term.t list;
  bytes : int;
  mutable compiled : Pr_policy.Compiled.t option;
}

let make_lsa ~origin ~seq ~adjacencies ~terms =
  let pt_bytes =
    List.fold_left
      (fun acc t -> acc + Pr_policy.Policy_term.advertisement_bytes t)
      0 terms
  in
  (* 2 extra bytes per adjacency for the delay metric. *)
  let bytes =
    Cost_model.lsa_bytes ~link_count:(List.length adjacencies) ~pt_bytes
    + (2 * List.length adjacencies)
  in
  { origin; seq; adjacencies; terms; bytes; compiled = None }

let lsa_bytes lsa = lsa.bytes

(* The confirmed adjacency as a search view, each slot with its two
   directed adjacencies and, per QOS class asked for, its metric;
   derived on demand and dropped by every accepted insert. *)
type search = {
  view : Pr_topology.Policy_search.view;
  pairs : (adjacency * adjacency) array;
  metrics : int array option array;  (* by Qos.index *)
}

(* The last view built by any database of a family, with the store it
   was built from. One per flood: shared by every sibling, never
   global. *)
type cache = {
  mutable key : lsa array;
  mutable built : search option;
}

(* [store] holds each origin's record bare, or [absent] where there is
   none: no option box per stored LSA. *)
type t = {
  store : lsa array;
  empty_terms : Pr_policy.Compiled.t;
  mutable search : search option;
  cache : cache;
}

(* The one empty-slot sentinel, shared by every database. Its seq -1
   is below every real record's, so [insert] needs no case for an
   empty slot; it is never handed out, and its [compiled] field is
   never written. *)
let absent = make_lsa ~origin:(-1) ~seq:(-1) ~adjacencies:[] ~terms:[]

let create ~n =
  {
    store = Array.make n absent;
    empty_terms = Pr_policy.Compiled.compile ~n [];
    search = None;
    cache = { key = [||]; built = None };
  }

let sibling t = { t with store = Array.make (Array.length t.store) absent; search = None }

let seq_of t origin = t.store.(origin).seq

let insert t lsa =
  if lsa.seq > seq_of t lsa.origin then begin
    t.store.(lsa.origin) <- lsa;
    t.search <- None;
    true
  end
  else false

let get t origin =
  let lsa = t.store.(origin) in
  if lsa == absent then None else Some lsa

let fold t ~init ~f =
  Array.fold_left (fun acc lsa -> if lsa == absent then acc else f acc lsa) init t.store

let adjacencies_of t origin = t.store.(origin).adjacencies

let find_adjacency t u v = List.find_opt (fun a -> a.nbr = v) t.store.(u).adjacencies

let adjacency_cost t u v = Option.map (fun a -> a.cost) (find_adjacency t u v)

let bidirectional t u v =
  match (adjacency_cost t u v, adjacency_cost t v u) with
  | Some a, Some b -> Some (Stdlib.max a b)
  | _ -> None

let terms_of t origin = t.store.(origin).terms

let compiled_of t origin =
  let lsa = t.store.(origin) in
  if lsa == absent then t.empty_terms
  else
    match lsa.compiled with
    | Some c -> c
    | None ->
      let c = Pr_policy.Compiled.compile ~n:(Array.length t.store) lsa.terms in
      lsa.compiled <- Some c;
      c

let entry_count t =
  Array.fold_left (fun acc lsa -> if lsa == absent then acc else acc + 1) 0 t.store

let build_search t =
  let n = Array.length t.store in
  let seen = Array.make n (-1) in
  let confirmed u a =
    let v = a.nbr in
    if v < 0 || v >= n || seen.(v) = u then None
    else
      Option.map
        (fun b ->
          seen.(v) <- u;
          (v, a, b))
        (find_adjacency t v u)
  in
  let rows =
    Array.init n (fun u ->
        Array.of_list (List.filter_map (confirmed u) t.store.(u).adjacencies))
  in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun u row -> off.(u + 1) <- off.(u) + Array.length row) rows;
  let slots = Array.concat (Array.to_list rows) in
  {
    view = Pr_topology.Policy_search.of_csr ~off ~nbr:(Array.map (fun (v, _, _) -> v) slots);
    pairs = Array.map (fun (_, a, b) -> (a, b)) slots;
    metrics = Array.make Pr_policy.Qos.count None;
  }

(* Slot for slot the physically same records ([absent] included). *)
let same_records a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i = n || (a.(i) == b.(i) && go (i + 1)) in
  go 0

let search_view t qos =
  let s =
    match t.search with
    | Some s -> s
    | None ->
      let c = t.cache in
      let s =
        match c.built with
        | Some s when same_records c.key t.store -> s
        | _ ->
          let s = build_search t in
          c.key <- Array.copy t.store;
          c.built <- Some s;
          s
      in
      t.search <- Some s;
      s
  in
  let i = Pr_policy.Qos.index qos in
  match s.metrics.(i) with
  | Some m -> (s.view, m)
  | None ->
    let metric (a, b) =
      Qos_metric.metric qos ~cost:(Stdlib.max a.cost b.cost) ~delay:(Stdlib.max a.delay b.delay)
    in
    let m = Array.map metric s.pairs in
    s.metrics.(i) <- Some m;
    (s.view, m)
