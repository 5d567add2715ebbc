module Sexp = Pr_util.Sexp
module Ad = Pr_topology.Ad
module Link = Pr_topology.Link
module Graph = Pr_topology.Graph
module Qos = Pr_policy.Qos
module Uci = Pr_policy.Uci
module Policy_term = Pr_policy.Policy_term
module Transit_policy = Pr_policy.Transit_policy
module Source_policy = Pr_policy.Source_policy
module Config = Pr_policy.Config

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = map_result f xs in
    Ok (y :: ys)

(* --- graph ----------------------------------------------------------- *)

let klass_to_atom k = Sexp.atom (Ad.klass_to_string k)

let klass_of_atom = function
  | "stub" -> Ok Ad.Stub
  | "multihomed" -> Ok Ad.Multihomed
  | "transit" -> Ok Ad.Transit
  | "hybrid" -> Ok Ad.Hybrid
  | s -> Error ("unknown AD class " ^ s)

let level_to_atom l = Sexp.atom (Ad.level_to_string l)

let level_of_atom = function
  | "backbone" -> Ok Ad.Backbone
  | "regional" -> Ok Ad.Regional
  | "metro" -> Ok Ad.Metro
  | "campus" -> Ok Ad.Campus
  | s -> Error ("unknown AD level " ^ s)

let kind_to_atom k = Sexp.atom (Link.kind_to_string k)

let kind_of_atom = function
  | "hierarchical" -> Ok Link.Hierarchical
  | "lateral" -> Ok Link.Lateral
  | "bypass" -> Ok Link.Bypass
  | s -> Error ("unknown link kind " ^ s)

let ad_to_sexp (a : Ad.t) =
  Sexp.List
    [
      Sexp.atom "ad";
      Sexp.int a.Ad.id;
      Sexp.atom a.Ad.name;
      klass_to_atom a.Ad.klass;
      level_to_atom a.Ad.level;
    ]

let ad_of_sexp = function
  | Sexp.List [ Sexp.Atom "ad"; id; Sexp.Atom name; Sexp.Atom klass; Sexp.Atom level ] ->
    let* id = Sexp.to_int id in
    let* klass = klass_of_atom klass in
    let* level = level_of_atom level in
    Ok (Ad.make ~id ~name ~klass ~level)
  | s -> Error ("malformed ad: " ^ Sexp.to_string s)

let link_to_sexp (l : Link.t) =
  Sexp.List
    [
      Sexp.atom "link";
      Sexp.int l.Link.id;
      Sexp.int l.Link.a;
      Sexp.int l.Link.b;
      kind_to_atom l.Link.kind;
      Sexp.int l.Link.cost;
      Sexp.atom (Printf.sprintf "%g" l.Link.delay);
    ]

let link_of_sexp = function
  | Sexp.List [ Sexp.Atom "link"; id; a; b; Sexp.Atom kind; cost; Sexp.Atom delay ] ->
    let* id = Sexp.to_int id in
    let* a = Sexp.to_int a in
    let* b = Sexp.to_int b in
    let* kind = kind_of_atom kind in
    let* cost = Sexp.to_int cost in
    (match float_of_string_opt delay with
    | Some d when Float.is_finite d && d > 0.0 -> (
      match Link.make ~id ~a ~b ~cost ~delay:d kind with
      | l -> Ok l
      | exception Invalid_argument msg -> Error msg)
    | _ -> Error ("bad delay " ^ delay))
  | s -> Error ("malformed link: " ^ Sexp.to_string s)

let graph_to_sexp g =
  Sexp.List
    [
      Sexp.atom "graph";
      Sexp.field "ads" (Array.to_list (Array.map ad_to_sexp (Graph.ads g)));
      Sexp.field "links" (Array.to_list (Array.map link_to_sexp (Graph.links g)));
    ]

let graph_of_sexp sexp =
  let* ads = Sexp.assoc "ads" sexp in
  let* links = Sexp.assoc "links" sexp in
  let* ads = map_result ad_of_sexp ads in
  let* links = map_result link_of_sexp links in
  match Graph.create (Array.of_list ads) (Array.of_list links) with
  | g -> Ok g
  | exception Invalid_argument msg -> Error msg

(* --- policies --------------------------------------------------------- *)

let pred_to_sexp = function
  | Policy_term.Any -> Sexp.atom "any"
  | Policy_term.Only ids ->
    Sexp.field "only" (List.map Sexp.int (Array.to_list ids))
  | Policy_term.Except ids ->
    Sexp.field "except" (List.map Sexp.int (Array.to_list ids))

let pred_of_sexp = function
  | Sexp.Atom "any" -> Ok Policy_term.Any
  | Sexp.List (Sexp.Atom "only" :: ids) ->
    let* ids = map_result Sexp.to_int ids in
    Ok (Policy_term.Only (Array.of_list ids))
  | Sexp.List (Sexp.Atom "except" :: ids) ->
    let* ids = map_result Sexp.to_int ids in
    Ok (Policy_term.Except (Array.of_list ids))
  | s -> Error ("malformed predicate: " ^ Sexp.to_string s)

let term_to_sexp (t : Policy_term.t) =
  let base =
    [
      Sexp.atom "term";
      Sexp.field "sources" [ pred_to_sexp t.Policy_term.sources ];
      Sexp.field "destinations" [ pred_to_sexp t.Policy_term.destinations ];
      Sexp.field "prev" [ pred_to_sexp t.Policy_term.prev_hops ];
      Sexp.field "next" [ pred_to_sexp t.Policy_term.next_hops ];
      Sexp.field "qos" (List.map (fun q -> Sexp.int (Qos.index q)) t.Policy_term.qos);
      Sexp.field "ucis" (List.map (fun u -> Sexp.int (Uci.index u)) t.Policy_term.ucis);
    ]
  in
  let hours =
    match t.Policy_term.hours with
    | None -> []
    | Some (a, b) -> [ Sexp.field "hours" [ Sexp.int a; Sexp.int b ] ]
  in
  let auth = if t.Policy_term.auth_required then [ Sexp.field "auth" [] ] else [] in
  Sexp.List (base @ hours @ auth)

let term_of_sexp ~owner sexp =
  let pred name =
    let* values = Sexp.assoc name sexp in
    match values with
    | [ p ] -> pred_of_sexp p
    | _ -> Error ("malformed " ^ name)
  in
  let* sources = pred "sources" in
  let* destinations = pred "destinations" in
  let* prev_hops = pred "prev" in
  let* next_hops = pred "next" in
  let* qos_idx = Sexp.assoc "qos" sexp in
  let* qos_idx = map_result Sexp.to_int qos_idx in
  let* uci_idx = Sexp.assoc "ucis" sexp in
  let* uci_idx = map_result Sexp.to_int uci_idx in
  let* hours =
    match Sexp.assoc_opt "hours" sexp with
    | None -> Ok None
    | Some [ a; b ] ->
      let* a = Sexp.to_int a in
      let* b = Sexp.to_int b in
      Ok (Some (a, b))
    | Some _ -> Error "malformed hours"
  in
  let auth_required = Sexp.assoc_opt "auth" sexp <> None in
  match
    Policy_term.make ~owner ~sources ~destinations ~prev_hops ~next_hops
      ~qos:(List.map Qos.of_index qos_idx)
      ~ucis:(List.map Uci.of_index uci_idx)
      ?hours ~auth_required ()
  with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg

let transit_to_sexp (p : Transit_policy.t) =
  Sexp.List
    (Sexp.atom "policy" :: Sexp.int p.Transit_policy.owner
    :: List.map term_to_sexp p.Transit_policy.terms)

let transit_of_sexp = function
  | Sexp.List (Sexp.Atom "policy" :: owner :: terms) ->
    let* owner = Sexp.to_int owner in
    let* terms = map_result (term_of_sexp ~owner) terms in
    Ok (Transit_policy.make owner terms)
  | s -> Error ("malformed transit policy: " ^ Sexp.to_string s)

let source_to_sexp (p : Source_policy.t) =
  let base =
    [
      Sexp.atom "source-policy";
      Sexp.int p.Source_policy.owner;
      Sexp.field "avoid" (List.map Sexp.int p.Source_policy.avoid);
      Sexp.field "prefer" (List.map Sexp.int p.Source_policy.prefer);
    ]
  in
  let hops =
    match p.Source_policy.max_hops with
    | None -> []
    | Some h -> [ Sexp.field "max-hops" [ Sexp.int h ] ]
  in
  Sexp.List (base @ hops)

let source_of_sexp = function
  | Sexp.List (Sexp.Atom "source-policy" :: owner :: _) as sexp ->
    let* owner = Sexp.to_int owner in
    let* avoid = Sexp.assoc "avoid" sexp in
    let* avoid = map_result Sexp.to_int avoid in
    let* prefer = Sexp.assoc "prefer" sexp in
    let* prefer = map_result Sexp.to_int prefer in
    let* max_hops =
      match Sexp.assoc_opt "max-hops" sexp with
      | None -> Ok None
      | Some [ h ] ->
        let* h = Sexp.to_int h in
        Ok (Some h)
      | Some _ -> Error "malformed max-hops"
    in
    Ok (Source_policy.make ~owner ~avoid ~prefer ?max_hops ())
  | s -> Error ("malformed source policy: " ^ Sexp.to_string s)

let config_to_sexp config =
  let n = Config.n config in
  let transit =
    List.init n (fun ad -> transit_to_sexp (Config.transit config ad))
  in
  let source =
    List.init n (fun ad ->
        if Config.has_source_policy config ad then
          Some (source_to_sexp (Config.source config ad))
        else None)
    |> List.filter_map Fun.id
  in
  Sexp.List
    [ Sexp.atom "config"; Sexp.field "transit" transit; Sexp.field "source" source ]

let config_of_sexp sexp =
  let* transit = Sexp.assoc "transit" sexp in
  let* transit = map_result transit_of_sexp transit in
  let transit = Array.of_list transit in
  let* sources =
    match Sexp.assoc_opt "source" sexp with
    | None -> Ok []
    | Some items -> map_result source_of_sexp items
  in
  let n = Array.length transit in
  let source = Array.make n None in
  let* () =
    List.fold_left
      (fun acc (p : Source_policy.t) ->
        let* () = acc in
        let owner = p.Source_policy.owner in
        if owner < 0 || owner >= n then
          Error (Printf.sprintf "source policy of AD %d outside the %d-AD graph" owner n)
        else Ok (source.(owner) <- Some p))
      (Ok ()) sources
  in
  match Config.make ~transit ~source () with
  | c -> Ok c
  | exception Invalid_argument msg -> Error msg

(* --- scenario ---------------------------------------------------------- *)

let scenario_to_sexp (s : Scenario.t) =
  Sexp.List
    [
      Sexp.atom "scenario";
      Sexp.field "label" [ Sexp.atom s.Scenario.label ];
      Sexp.field "seed" [ Sexp.int s.Scenario.seed ];
      graph_to_sexp s.Scenario.graph;
      config_to_sexp s.Scenario.config;
    ]

let find_child name = function
  | Sexp.List items ->
    List.find_opt
      (function
        | Sexp.List (Sexp.Atom n :: _) -> n = name
        | _ -> false)
      items
    |> Option.to_result ~none:("missing " ^ name)
  | _ -> Error "expected a list"

let scenario_of_sexp sexp =
  let* label = Sexp.assoc "label" sexp in
  let* label =
    match label with
    | [ l ] -> Sexp.to_atom l
    | _ -> Error "malformed label"
  in
  let* seed = Sexp.assoc "seed" sexp in
  let* seed =
    match seed with
    | [ s ] -> Sexp.to_int s
    | _ -> Error "malformed seed"
  in
  let* graph_sexp = find_child "graph" sexp in
  let* graph = graph_of_sexp graph_sexp in
  let* config_sexp = find_child "config" sexp in
  let* config = config_of_sexp config_sexp in
  if Config.n config <> Graph.n graph then Error "config/graph size mismatch"
  else Ok { Scenario.label; graph; config; seed }

let save s = Sexp.to_string_pretty (scenario_to_sexp s)

let load text =
  let* sexp = Sexp.of_string text in
  scenario_of_sexp sexp

let save_file s ~path =
  match Out_channel.with_open_text path (fun oc -> output_string oc (save s)) with
  | () -> Ok ()
  | exception Sys_error e -> Error ("cannot write " ^ e)

let load_file ~path =
  match open_in path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> load (really_input_string ic (in_channel_length ic)))
  | exception Sys_error msg -> Error msg
