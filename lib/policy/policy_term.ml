type ad_pred =
  | Any
  | Only of Pr_topology.Ad.id array
  | Except of Pr_topology.Ad.id array

(* Predicate id arrays are kept sorted (by [make] / [sort_pred]) so
   membership is a binary search, not a linear scan. Duplicates are
   tolerated — they only cost bytes, never correctness. *)
let ids_mem ids ad =
  let lo = ref 0 and hi = ref (Array.length ids) and found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = Array.unsafe_get ids mid in
    if v = ad then found := true else if v < ad then lo := mid + 1 else hi := mid
  done;
  !found

(* Generated predicates arrive already ascending, so one pass that
   finds them in order saves the sort; only the rest pay for it. *)
let sorted_copy ids =
  let ids = Array.copy ids in
  let ascending = ref true and i = ref 1 in
  while !ascending && !i < Array.length ids do
    if Array.unsafe_get ids (!i - 1) > Array.unsafe_get ids !i then ascending := false;
    incr i
  done;
  if not !ascending then Array.sort Int.compare ids;
  ids

let sort_pred = function
  | Any -> Any
  | Only ids -> Only (sorted_copy ids)
  | Except ids -> Except (sorted_copy ids)

let pred_admits pred ad =
  match pred with
  | Any -> true
  | Only ids -> ids_mem ids ad
  | Except ids -> not (ids_mem ids ad)

let pred_size = function
  | Any -> 0
  | Only ids | Except ids -> Array.length ids

type t = {
  owner : Pr_topology.Ad.id;
  sources : ad_pred;
  destinations : ad_pred;
  prev_hops : ad_pred;
  next_hops : ad_pred;
  qos : Qos.t list;
  ucis : Uci.t list;
  hours : (int * int) option;
  auth_required : bool;
}

let open_term owner =
  {
    owner;
    sources = Any;
    destinations = Any;
    prev_hops = Any;
    next_hops = Any;
    qos = Qos.all;
    ucis = Uci.all;
    hours = None;
    auth_required = false;
  }

let make ~owner ?(sources = Any) ?(destinations = Any) ?(prev_hops = Any)
    ?(next_hops = Any) ?(qos = Qos.all) ?(ucis = Uci.all) ?hours
    ?(auth_required = false) () =
  if qos = [] then invalid_arg "Policy_term.make: empty QOS list";
  if ucis = [] then invalid_arg "Policy_term.make: empty UCI list";
  (match hours with
  | Some (h1, h2) when h1 < 0 || h1 >= 24 || h2 < 0 || h2 >= 24 ->
    invalid_arg "Policy_term.make: hour out of range"
  | Some (h1, h2) when h1 = h2 -> invalid_arg "Policy_term.make: empty hour window"
  | _ -> ());
  {
    owner;
    sources = sort_pred sources;
    destinations = sort_pred destinations;
    prev_hops = sort_pred prev_hops;
    next_hops = sort_pred next_hops;
    qos;
    ucis;
    hours;
    auth_required;
  }

type transit_ctx = {
  flow : Flow.t;
  prev : Pr_topology.Ad.id option;
  next : Pr_topology.Ad.id option;
}

let hour_in_window window hour =
  match window with
  | None -> true
  | Some (h1, h2) -> if h1 <= h2 then h1 <= hour && hour < h2 else hour >= h1 || hour < h2

let opt_admits pred = function
  | None -> true
  | Some ad -> pred_admits pred ad

let admits t ctx =
  let f = ctx.flow in
  pred_admits t.sources f.Flow.src
  && pred_admits t.destinations f.Flow.dst
  && opt_admits t.prev_hops ctx.prev
  && opt_admits t.next_hops ctx.next
  && List.exists (Qos.equal f.Flow.qos) t.qos
  && List.exists (Uci.equal f.Flow.uci) t.ucis
  && hour_in_window t.hours f.Flow.hour
  && ((not t.auth_required) || f.Flow.authenticated)

let advertisement_bytes t =
  (* 8-byte fixed part (owner, flags, QOS/UCI bitmaps, hours) plus
     2 bytes per AD id carried in the four predicates. *)
  8
  + (2 * (pred_size t.sources + pred_size t.destinations + pred_size t.prev_hops
         + pred_size t.next_hops))
