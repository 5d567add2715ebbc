module Flow = Pr_policy.Flow
module Compiled = Pr_policy.Compiled
module Policy_search = Pr_topology.Policy_search
module Spf = Pr_topology.Spf

(* Per-AD flow specializations, built lazily (synthesis probes the
   same transit ADs many times for one flow) into one table per domain
   that every engine shares: an entry is valid for the engine whose
   [id] stamps it. An engine interleaved with another re-specializes
   the ADs the other overwrote, so no engine allocates a table. *)
type specs = { mutable spec : Compiled.spec array; mutable owner : int array; mutable ids : int }

let tables = Domain.DLS.new_key (fun () -> { spec = [||]; owner = [||]; ids = 0 })

type engine = { db : Lsdb.t; n : int; flow : Flow.t; id : int; specs : specs }

let engine db ~n flow =
  let t = Domain.DLS.get tables in
  if Array.length t.spec < n then begin
    t.spec <- Array.make n Compiled.no_spec;
    t.owner <- Array.make n 0
  end;
  t.ids <- t.ids + 1;
  { db; n; flow; id = t.ids; specs = t }

let spec_for e ad =
  let t = e.specs in
  if t.owner.(ad) = e.id then t.spec.(ad)
  else begin
    let s = Compiled.specialize (Lsdb.compiled_of e.db ad) e.flow in
    t.spec.(ad) <- s;
    t.owner.(ad) <- e.id;
    s
  end

let admits e ad ~prev ~next = Compiled.spec_allows (spec_for e ad) ~prev ~next

let shortest e ?(avoid = []) () =
  let src = e.flow.Flow.src and dst = e.flow.Flow.dst in
  if src = dst then (Some [ src ], 0)
  else begin
    let rows, metrics = Lsdb.search_view e.db e.flow.Flow.qos in
    let scratch = Policy_search.shared_scratch () in
    let metric _ _ k = metrics.(k) and admit v p w = admits e v ~prev:p ~next:w in
    (* A best walk that revisits an AD is no route: sources require
       loop-free routes (paper §4.4). *)
    let path =
      match Policy_search.search scratch rows ~src ~dst ~avoid ~metric ~admit () with
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
  let rows, metrics = Lsdb.search_view e.db e.flow.Flow.qos in
  let avoid_arr = Array.make e.n false in
  List.iter (fun a -> if a >= 0 && a < e.n then avoid_arr.(a) <- true) avoid;
  let relax v f =
    if v = src || admits e v ~prev:(-1) ~next:(-1) then
      Policy_search.iter_row rows v ~f:(fun w k ->
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
  let rows, _ = Lsdb.search_view e.db e.flow.Flow.qos in
  Policy_search.enumerate (Policy_search.shared_scratch ()) rows
    ~src:e.flow.Flow.src ~dst:e.flow.Flow.dst ~max_hops ~limit
    ~admit:(fun v p w -> admits e v ~prev:p ~next:w)

