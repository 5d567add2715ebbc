module Flow = Pr_policy.Flow
module Compiled = Pr_policy.Compiled
module Policy_search = Pr_topology.Policy_search
module Spf = Pr_topology.Spf

type engine = {
  db : Lsdb.t;
  n : int;
  flow : Flow.t;
  specs : Compiled.spec option array;
      (* per-AD per-flow specializations, built lazily: synthesis
         probes the same transit ADs many times for one flow *)
}

let engine db ~n flow = { db; n; flow; specs = Array.make n None }

let spec_for e ad =
  match e.specs.(ad) with
  | Some s -> s
  | None ->
    let s = Compiled.specialize (Lsdb.compiled_of e.db ad) e.flow in
    e.specs.(ad) <- Some s;
    s

let admits e ad ~prev ~next = Compiled.spec_allows (spec_for e ad) ~prev ~next

let shortest e ?(avoid = []) () =
  let src = e.flow.Flow.src and dst = e.flow.Flow.dst in
  if src = dst then (Some [ src ], 0)
  else begin
    let view, metrics = Lsdb.search_view e.db e.flow.Flow.qos in
    let scratch = Policy_search.shared_scratch () in
    let metric _ _ k = metrics.(k) and admit v p w = admits e v ~prev:p ~next:w in
    (* A best walk that revisits an AD is no route: sources require
       loop-free routes (paper §4.4). *)
    let path =
      match
        Policy_search.search scratch view ~src ~dst ~avoid ~metric ~admit ()
      with
      | Policy_search.Route p -> Some p
      | Policy_search.Revisits | Policy_search.Unreachable -> None
    in
    (path, Policy_search.settled scratch)
  end

(* Optimistic node-level Dijkstra: admission is checked per node,
   ignoring prev/next-hop predicates (an unknown hop satisfies any
   predicate, so this over-approximates legality). The state space is
   n nodes instead of n^2 (node, arrived-from) states. The caller
   validates the result and falls back to the exact search when some
   hop-constrained term rejects it. *)
let shortest_optimistic e ~avoid =
  let src = e.flow.Flow.src and dst = e.flow.Flow.dst in
  let view, metrics = Lsdb.search_view e.db e.flow.Flow.qos in
  let avoid_arr = Array.make e.n false in
  List.iter (fun a -> if a >= 0 && a < e.n then avoid_arr.(a) <- true) avoid;
  let relax v f =
    if v = src || admits e v ~prev:(-1) ~next:(-1) then
      Policy_search.iter_row view v ~f:(fun w k ->
          if w = dst || not avoid_arr.(w) then f w metrics.(k))
  in
  let tree, work = Spf.search ~n:e.n ~src ~dst ~relax () in
  (Spf.path tree dst, work)

(* Is the path exactly legal per the database, including prev/next-hop
   constrained terms? *)
let path_admitted e path =
  let rec scan = function
    | prev :: ad :: next :: rest ->
      admits e ad ~prev ~next && scan (ad :: next :: rest)
    | _ -> true
  in
  scan path

let shortest_pruned e ?(avoid = []) () =
  match shortest_optimistic e ~avoid with
  | Some path, work when path_admitted e path ->
    (* The optimistic route survives exact validation: done, at node
       (not node-pair) search cost. *)
    (Some path, work)
  | _, work ->
    (* Either nothing was found or a hop-constrained term rejected the
       optimistic route: run the exact search. *)
    let path, full_work = shortest e ~avoid () in
    (path, work + full_work)

let enumerate e ~max_hops ?(limit = 2000) () =
  Policy_search.enumerate (Policy_search.shared_scratch ())
    (fst (Lsdb.search_view e.db e.flow.Flow.qos))
    ~src:e.flow.Flow.src ~dst:e.flow.Flow.dst ~max_hops ~limit
    ~admit:(fun v p w -> admits e v ~prev:p ~next:w)

