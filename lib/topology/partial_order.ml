type t = { ranks : int array }

let of_levels g =
  let ranks =
    Array.map (fun (a : Ad.t) -> Ad.level_rank a.Ad.level) (Graph.ads g)
  in
  { ranks }

let rank t i = t.ranks.(i)

type direction = Up | Down | Level

let direction t ~from_ad ~to_ad =
  let ra = t.ranks.(from_ad) and rb = t.ranks.(to_ad) in
  if rb < ra then Up else if rb > ra then Down else Level

let is_valley_free t path =
  (* Scan the steps: once we have gone Down (or Level, which ECMA's
     conservative labelling treats as down), going Up again is a
     violation. *)
  let rec scan gone_down = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> (
      match direction t ~from_ad:a ~to_ad:b with
      | Up -> if gone_down then false else scan false rest
      | Down | Level -> scan true rest)
  in
  scan false path

let valley_free_violation t path =
  let rec scan gone_down = function
    | [] | [ _ ] -> None
    | a :: (b :: _ as rest) -> (
      match direction t ~from_ad:a ~to_ad:b with
      | Up -> if gone_down then Some (a, b) else scan false rest
      | Down | Level -> scan true rest)
  in
  scan false path

type constraint_ = { above : Ad.id; below : Ad.id }

let embeddable ~n cs =
  (* Kahn's algorithm over the constraint digraph (above -> below).
     A topological order exists iff the constraints are acyclic; ranks
     are the topological layer numbers. *)
  let succs = Array.make n [] in
  let indegree = Array.make n 0 in
  List.iter
    (fun { above; below } ->
      if above < 0 || above >= n || below < 0 || below >= n then
        invalid_arg "Partial_order.embeddable: AD id out of range";
      succs.(above) <- below :: succs.(above);
      indegree.(below) <- indegree.(below) + 1)
    cs;
  let ranks = Array.make n 0 in
  let q = Queue.create () in
  for i = 0 to n - 1 do
    if indegree.(i) = 0 then Queue.add i q
  done;
  let processed = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    incr processed;
    List.iter
      (fun v ->
        ranks.(v) <- Stdlib.max ranks.(v) (ranks.(u) + 1);
        indegree.(v) <- indegree.(v) - 1;
        if indegree.(v) = 0 then Queue.add v q)
      succs.(u)
  done;
  if !processed = n then Some ranks else None
