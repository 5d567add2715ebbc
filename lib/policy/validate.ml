module Graph = Pr_topology.Graph
module Path = Pr_topology.Path
module Policy_search = Pr_topology.Policy_search

type verdict =
  | Legal
  | Transit_refused of {
      ad : Pr_topology.Ad.id;
      prev : Pr_topology.Ad.id option;
      next : Pr_topology.Ad.id option;
    }
  | Source_refused
  | Broken of string

(* Check every interior crossing of the path against its AD's PTs,
   through the shared compiled-policy store. *)
let transit_verdict config flow path =
  let store = Policy_store.of_config config in
  let rec scan = function
    | prev :: ad :: next :: rest ->
      let ctx = { Policy_term.flow; prev = Some prev; next = Some next } in
      if Policy_store.allows store ad ctx then scan (ad :: next :: rest)
      else Transit_refused { ad; prev = Some prev; next = Some next }
    | _ -> Legal
  in
  scan path

let check g config flow path =
  if not (Path.is_valid g path) then Broken "not a simple path in the graph"
  else if Path.source path <> flow.Flow.src then Broken "path does not start at the source"
  else if Path.destination path <> flow.Flow.dst then
    Broken "path does not end at the destination"
  else
    match transit_verdict config flow path with
    | Legal ->
      if Source_policy.permits (Config.source config flow.Flow.src) path then Legal
      else Source_refused
    | v -> v

let transit_legal g config flow path =
  Path.is_valid g path
  && Path.source path = flow.Flow.src
  && Path.destination path = flow.Flow.dst
  && transit_verdict config flow path = Legal

let legal g config flow path = check g config flow path = Legal

(* What the oracle keeps for the last (graph, store) this domain
   searched: experiments call it per flow on one internet. Only an AD
   with a term can be crossed, so the rows the search walks keep those,
   and each label is the [slot_cost] distance to its destination
   through them: it bounds every legal route's cost, [avoid] only
   removing edges, so the bounded search returns the unbounded one's
   route. *)
type oracle = {
  graph : Graph.t;
  store : Policy_store.t;
  version : int;
  full : Policy_search.rows;
  cost : int array;  (* per slot: [Graph.slot_cost] *)
  labels : Policy_search.labels;  (* keyed by destination *)
  specs : Compiled.spec array;
      (* per AD, the running search's flow specialization, valid where
         [Policy_search.first_touch] has fired *)
}

(* A label is one word per AD with a term: the cache holds at most
   2^22 words of them (32 MB), and never more than 512 labels. *)
let label_capacity len = max 16 (min 512 ((1 lsl 22) / max 1 len))

let oracles = Domain.DLS.new_key (fun () -> ref None)

let oracle_of g config =
  let store = Policy_store.of_config config in
  let cell = Domain.DLS.get oracles in
  match !cell with
  | Some o when o.graph == g && o.store == store && o.version = Policy_store.version store -> o
  | last ->
    let full =
      match last with
      | Some o when o.graph == g -> o.full
      | _ -> Policy_search.of_graph g
    in
    let n = Graph.n g in
    let has_terms v = Transit_policy.term_count (Policy_store.transit store v) > 0 in
    let rows = Policy_search.restrict full ~keep:has_terms in
    let o =
      {
        graph = g;
        store;
        version = Policy_store.version store;
        full;
        cost = Array.init (Array.length (snd (Graph.unique_csr g))) (Graph.slot_cost g);
        labels = Policy_search.labels rows ~capacity:(label_capacity (Policy_search.size rows));
        specs = Array.make n Compiled.no_spec;
      }
    in
    cell := Some o;
    o

(* Admission through each touched AD's flow specialization, resolved
   once per search: a warm search allocates only its route. An AD whose
   specialization kept no term refuses every crossing. *)
let spec o s flow v =
  if Policy_search.first_touch s v then
    o.specs.(v) <- Compiled.specialize (Policy_store.compiled o.store v) flow;
  o.specs.(v)

let admit o s flow v p w = Compiled.spec_allows (spec o s flow v) ~prev:p ~next:w

let refuses o s flow v = spec o s flow v == Compiled.no_spec

let legal_paths g config flow ~max_hops ?(limit = 10_000) () =
  let o = oracle_of g config and s = Policy_search.shared_scratch () in
  Policy_search.enumerate s o.full ~src:flow.Flow.src ~dst:flow.Flow.dst ~max_hops ~limit
    ~admit:(admit o s flow)

let states = Domain.DLS.new_key (fun () -> ref 0)

let searched_states () = !(Domain.DLS.get states)

(* Minimum-cost state walk for the flow, interior ADs outside [avoid],
   bounded by the destination's label over the carrying rows. *)
let state_search g config flow ~avoid =
  let o = oracle_of g config and s = Policy_search.shared_scratch () in
  let src = flow.Flow.src and dst = flow.Flow.dst and cost = o.cost in
  let lower =
    if src = dst then None else Some (Policy_search.label o.labels ~key:dst ~dst ~metric:cost)
  in
  let outcome =
    Policy_search.search s (Policy_search.carrying o.labels) ~src ~dst ~avoid ?lower
      ~refuses:(refuses o s flow)
      ~metric:(fun _ _ k -> cost.(k))
      ~admit:(admit o s flow) ()
  in
  let count = Domain.DLS.get states in
  count := !count + Policy_search.settled s;
  outcome

type search = No_walk | Found of Path.t option

(* The state search's route, else the bounded DFS's (rare: only when
   the cheapest state walk self-intersects or the source policy refuses
   it for a reason other than [avoid]). [No_walk] skips the DFS: every
   simple legal route is a state walk, and [Source_policy.permits]
   refuses any route whose interior meets [avoid], so when no state
   walk reaches the destination the DFS can find nothing either. *)
let shortest_search g config flow ~apply_source_policy =
  let policy = Config.source config flow.Flow.src in
  let avoid = if apply_source_policy then policy.Source_policy.avoid else [] in
  match state_search g config flow ~avoid with
  | Policy_search.Unreachable -> No_walk
  | Policy_search.Route p when (not apply_source_policy) || Source_policy.permits policy p ->
    Found (Some p)
  | Policy_search.Route _ | Policy_search.Revisits ->
    let paths = legal_paths g config flow ~max_hops:12 ~limit:2000 () in
    if apply_source_policy then Found (Source_policy.best policy g paths)
    else begin
      let scored =
        List.filter_map (fun p -> Option.map (fun c -> (c, p)) (Path.cost g p)) paths
      in
      match List.sort compare scored with
      | [] -> Found None
      | (_, p) :: _ -> Found (Some p)
    end

let shortest_legal g config flow ?(apply_source_policy = false) () =
  match shortest_search g config flow ~apply_source_policy with
  | No_walk -> None
  | Found p -> p

let route_exists g config flow ~max_hops =
  match state_search g config flow ~avoid:[] with
  | Policy_search.Route p when Path.hops p <= max_hops -> true
  | Policy_search.Unreachable -> false
  | Policy_search.Route _ | Policy_search.Revisits ->
    legal_paths g config flow ~max_hops ~limit:1 () <> []

let best_legal g config flow ~max_hops =
  match shortest_search g config flow ~apply_source_policy:true with
  | No_walk -> None
  | Found (Some p) when Path.hops p <= max_hops -> Some p
  | Found _ ->
    let paths = legal_paths g config flow ~max_hops ~limit:2000 () in
    Source_policy.best (Config.source config flow.Flow.src) g paths

let pp_verdict ppf = function
  | Legal -> Format.pp_print_string ppf "legal"
  | Transit_refused { ad; prev; next } ->
    Format.fprintf ppf "transit refused at AD %d (prev=%s next=%s)" ad
      (match prev with
      | None -> "-"
      | Some p -> string_of_int p)
      (match next with
      | None -> "-"
      | Some n -> string_of_int n)
  | Source_refused -> Format.pp_print_string ppf "source policy refused"
  | Broken msg -> Format.fprintf ppf "broken path: %s" msg
