module Rng = Pr_util.Rng
module Graph = Pr_topology.Graph
module Ad = Pr_topology.Ad

type granularity = Coarse | Destination | Source_specific | Fine

type params = {
  restrictiveness : float;
  granularity : granularity;
  source_policy_prob : float;
}

let default =
  { restrictiveness = 0.3; granularity = Source_specific; source_policy_prob = 0.3 }

let granularity_to_string = function
  | Coarse -> "coarse"
  | Destination -> "destination"
  | Source_specific -> "source-specific"
  | Fine -> "fine"

let all_granularities = [ Coarse; Destination; Source_specific; Fine ]

(* Random non-empty sublist of the QOS classes keeping roughly [keep]
   of them. *)
let qos_sublist rng keep =
  match List.filter (fun _ -> Rng.chance rng keep) Qos.all with
  | [] -> [ Rng.choose rng Qos.all ]
  | chosen -> chosen

(* The ids one term keeps, filtered into a buffer that a whole
   [generate] call reuses: host and transit id arrays are ascending,
   so every kept slice is too. *)
type buf = { ids : Ad.id array; mutable len : int }

(* Keep each id of [src] but [skip] with probability [keep]: one
   [Rng.chance rng keep] per candidate, in order, and none for [skip]. *)
let filter_into buf rng keep ~skip src =
  let odds = Rng.odds keep in
  buf.len <- 0;
  for i = 0 to Array.length src - 1 do
    let id = Array.unsafe_get src i in
    if id <> skip && Rng.hit rng odds then begin
      Array.unsafe_set buf.ids buf.len id;
      buf.len <- buf.len + 1
    end
  done

let kept buf = Array.sub buf.ids 0 buf.len

(* Random non-empty subset keeping roughly [keep] of [src]; when the
   draws keep nothing, one uniformly chosen id. *)
let subset buf rng keep src =
  filter_into buf rng keep ~skip:(-1) src;
  if buf.len = 0 then [| src.(Rng.int rng (Array.length src)) |] else kept buf

let coarse_terms rng r owner =
  if Rng.chance rng 0.5 then
    (* Drop some QOS classes. *)
    [ Policy_term.make ~owner ~qos:(qos_sublist rng (1.0 -. r)) () ]
  else begin
    (* Off-hours only window whose width shrinks with restrictiveness.
       Clamp to 23 hours: a width of 24 would wrap to the degenerate
       (start, start) window, which Policy_term.make rejects. *)
    let width = Stdlib.min 23 (Stdlib.max 4 (24 - int_of_float (r *. 20.0))) in
    let start = Rng.int rng 24 in
    [ Policy_term.make ~owner ~hours:(start, (start + width) mod 24) () ]
  end

let destination_terms buf rng r owner hosts =
  let keep = Stdlib.max 0.1 (1.0 -. r) in
  let dests = subset buf rng keep hosts in
  [ Policy_term.make ~owner ~destinations:(Policy_term.Only dests) () ]

let source_specific_terms buf rng r owner hosts =
  filter_into buf rng (r *. 0.5) ~skip:owner hosts;
  if buf.len = 0 then [ Policy_term.open_term owner ]
  else [ Policy_term.make ~owner ~sources:(Policy_term.Except (kept buf)) () ]

let fine_terms buf rng r owner hosts =
  (* One PT per UCI, each admitting a different random slice of
     sources and service classes: the state-multiplying shape. *)
  List.map
    (fun uci ->
      let keep = Stdlib.max 0.15 (1.0 -. r) in
      let sources = subset buf rng keep hosts in
      Policy_term.make ~owner
        ~sources:(Policy_term.Only sources)
        ~qos:(qos_sublist rng (1.0 -. (r *. 0.5)))
        ~ucis:[ uci ] ())
    Uci.all

let transit_terms buf rng p g (ad : Ad.t) hosts =
  let owner = ad.Ad.id in
  let restricted = Rng.chance rng p.restrictiveness in
  let base =
    if not restricted then [ Policy_term.open_term owner ]
    else
      match p.granularity with
      | Coarse -> coarse_terms rng p.restrictiveness owner
      | Destination -> destination_terms buf rng p.restrictiveness owner hosts
      | Source_specific -> source_specific_terms buf rng p.restrictiveness owner hosts
      | Fine -> fine_terms buf rng p.restrictiveness owner hosts
  in
  (* A provider always carries traffic from and to its own customer
     cone, whatever other restrictions it imposes: without this, a
     restricted metro would cut its own campuses off the internet. *)
  let cone = Pr_topology.Graph.hierarchy_descendants g owner in
  let customer_terms =
    if Array.length cone <= 1 then []
    else
      [
        Policy_term.make ~owner ~sources:(Policy_term.Only cone) ();
        Policy_term.make ~owner ~destinations:(Policy_term.Only cone) ();
      ]
  in
  match ad.Ad.klass with
  | Ad.Hybrid ->
    (* Hybrids only ever offer limited transit: scope every base term
       to a destination subset; their customers stay fully served. *)
    let scope = subset buf rng 0.4 hosts in
    (* Sorted by hand: the record update below bypasses Policy_term.make. *)
    let dests = Policy_term.sort_pred (Policy_term.Only scope) in
    let scoped =
      List.map
        (fun (t : Policy_term.t) ->
          match t.Policy_term.destinations with
          | Policy_term.Any -> { t with Policy_term.destinations = dests }
          | _ -> t)
        base
    in
    customer_terms @ scoped
  | Ad.Transit -> if restricted then customer_terms @ base else base
  | Ad.Stub | Ad.Multihomed -> []

let generate rng g p =
  let hosts = Array.of_list (Graph.host_ids g) in
  let transit_ids = Array.of_list (Graph.transit_ids g) in
  let capacity = Stdlib.max (Array.length hosts) (Array.length transit_ids) in
  let buf = { ids = Array.make capacity 0; len = 0 } in
  let transit =
    Array.map
      (fun (ad : Ad.t) ->
        if Ad.is_transit_capable ad then
          Transit_policy.make ad.Ad.id (transit_terms buf rng p g ad hosts)
        else Transit_policy.no_transit ad.Ad.id)
      (Graph.ads g)
  in
  let source =
    Array.map
      (fun (ad : Ad.t) ->
        let hosts_here =
          match ad.Ad.klass with
          | Ad.Stub | Ad.Multihomed | Ad.Hybrid -> true
          | Ad.Transit -> false
        in
        if hosts_here && Rng.chance rng p.source_policy_prob && Array.length transit_ids > 0
        then begin
          filter_into buf rng (p.restrictiveness *. 0.4) ~skip:ad.Ad.id transit_ids;
          if buf.len = 0 then None
          else Some (Source_policy.make ~owner:ad.Ad.id ~avoid:(Array.to_list (kept buf)) ())
        end
        else None)
      (Graph.ads g)
  in
  Config.make ~transit ~source ()
