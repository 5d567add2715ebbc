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

(* The search view of the last graph this domain's oracle searched:
   experiments call the oracle per flow on one internet. *)
let views = Domain.DLS.new_key (fun () -> ref None)

let view_of g =
  let cell = Domain.DLS.get views in
  match !cell with
  | Some (g', v) when g' == g -> v
  | _ ->
    let v = Policy_search.of_graph g in
    cell := Some (g, v);
    v

(* Admission straight off the compiled terms: nothing to build per
   flow, so a warm search allocates only the route it returns. *)
let admit config flow =
  let store = Policy_store.of_config config in
  fun v p w -> Compiled.allows_crossing (Policy_store.compiled store v) flow ~prev:p ~next:w

let legal_paths g config flow ~max_hops ?(limit = 10_000) () =
  Policy_search.enumerate (Policy_search.shared_scratch ()) (view_of g) ~src:flow.Flow.src
    ~dst:flow.Flow.dst ~max_hops ~limit ~admit:(admit config flow)

(* Minimum-cost state walk for the flow, interior ADs outside [avoid]. *)
let state_search g config flow ~avoid =
  Policy_search.search (Policy_search.shared_scratch ()) (view_of g) ~src:flow.Flow.src
    ~dst:flow.Flow.dst ~avoid
    ~metric:(fun _ _ k -> Graph.slot_cost g k)
    ~admit:(admit config flow) ()

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
