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

(* The confirmed adjacency as the search's full rows, each slot with
   its two directed adjacencies ([out] as the row's AD advertises it,
   [back] as the neighbor does) and, per QOS class, its metric; derived
   on demand and dropped by every accepted insert. *)
type search = {
  rows : Pr_topology.Policy_search.rows;
  out : adjacency array;
  back : adjacency array;
  metrics : int array option array;  (* by Qos.index *)
}

(* The last rows built by any database of a family, with the store it
   was built from. One per flood: shared by every sibling, never
   global. *)
type cache = {
  mutable key : lsa array;
  mutable built : search option;
}

(* [store] holds each origin's record bare, or [absent] where there is
   none: no option box per stored LSA. [count] is the number of origins
   not [absent]. *)
type t = {
  store : lsa array;
  mutable count : int;
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
    count = 0;
    empty_terms = Pr_policy.Compiled.compile ~n [];
    search = None;
    cache = { key = [||]; built = None };
  }

let sibling t = { t with store = Array.make (Array.length t.store) absent; count = 0; search = None }

let seq_of t origin = t.store.(origin).seq

let insert t lsa =
  if lsa.seq > seq_of t lsa.origin then begin
    if t.store.(lsa.origin) == absent then t.count <- t.count + 1;
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

(* The filler of the slot arrays, and [adjacency_to]'s "none". *)
let no_adjacency = { nbr = -1; cost = 0; delay = 0.0 }

let rec adjacency_to v = function
  | [] -> no_adjacency
  | a :: rest -> if a.nbr = v then a else adjacency_to v rest

let adjacency_cost t u v =
  let a = adjacency_to v t.store.(u).adjacencies in
  if a == no_adjacency then None else Some a.cost

let bidirectional t u v =
  match (adjacency_cost t u v, adjacency_cost t v u) with
  | Some a, Some b -> Some (Stdlib.max a b)
  | _ -> None

let iter_confirmed t u ~f =
  let n = Array.length t.store in
  let rec go = function
    | [] -> ()
    | a :: rest ->
      let v = a.nbr in
      if v >= 0 && v < n then begin
        let b = adjacency_to u t.store.(v).adjacencies in
        if b != no_adjacency then f v (Stdlib.max a.cost b.cost)
      end;
      go rest
  in
  go t.store.(u).adjacencies

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

let entry_count t = t.count

(* One walk over the advertisements fills the rows in place: arrays
   sized by the advertised adjacencies, trimmed to the confirmed ones.
   [seen.(v) = u] once row u holds v, so a repeat keeps its first
   position. *)
let build_search t =
  let n = Array.length t.store in
  let cap = Array.fold_left (fun c lsa -> c + List.length lsa.adjacencies) 0 t.store in
  let off = Array.make (n + 1) 0 and nbr = Array.make cap 0 in
  let out = Array.make cap no_adjacency and back = Array.make cap no_adjacency in
  let seen = Array.make n (-1) and m = ref 0 in
  let rec fill u = function
    | [] -> ()
    | a :: rest ->
      let v = a.nbr in
      if v >= 0 && v < n && seen.(v) <> u then begin
        let b = adjacency_to u t.store.(v).adjacencies in
        if b != no_adjacency then begin
          seen.(v) <- u;
          nbr.(!m) <- v;
          out.(!m) <- a;
          back.(!m) <- b;
          incr m
        end
      end;
      fill u rest
  in
  for u = 0 to n - 1 do
    fill u t.store.(u).adjacencies;
    off.(u + 1) <- !m
  done;
  let trim a = if !m = cap then a else Array.sub a 0 !m in
  {
    rows = Pr_topology.Policy_search.of_csr ~off ~nbr:(trim nbr);
    out = trim out;
    back = trim back;
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
  | Some m -> (s.rows, m)
  | None ->
    let metric a b =
      Qos_metric.metric qos ~cost:(Stdlib.max a.cost b.cost) ~delay:(Stdlib.max a.delay b.delay)
    in
    let m = Array.map2 metric s.out s.back in
    s.metrics.(i) <- Some m;
    (s.rows, m)
