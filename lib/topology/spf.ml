(* Single-source shortest paths: the one node-level Dijkstra in the
   library (pop order and early exit are documented in spf.mli), on the
   calling domain's bucket queue. A node other than [src] that this
   search reached and has not settled ([parent] set, [dist] still -1)
   is queued, its tentative distance its key: an improvement moves it
   to the back of its new key's bucket, where a lazy-deletion heap
   would push a fresh entry. *)

module Dial = Pr_util.Dial

type tree = {
  src : Ad.id;
  dist : int array;  (* cost of the shortest route; -1 = unreachable *)
  parent : int array;  (* predecessor on the tree; -1 at the source *)
  first_hop : int array;  (* first AD after the source; -1 at the source *)
}

let rings = Domain.DLS.new_key Dial.create

let search ~n ~src ?(dst = -1) ~relax () =
  let dist = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let first_hop = Array.make n (-1) in
  let q = Domain.DLS.get rings in
  Dial.reserve q n;
  let settled = ref 0 in
  (* The node being expanded and its distance. [improve] reads them
     from here, so one closure serves every pop. *)
  let u = ref src and du = ref 0 in
  let improve v cost =
    if dist.(v) < 0 then begin
      let d = !du + cost and queued = parent.(v) >= 0 in
      if (not queued) || d < Dial.key q v then begin
        if queued then Dial.remove q v;
        parent.(v) <- !u;
        first_hop.(v) <- (if !u = src then v else first_hop.(!u));
        Dial.push q v d ~lifo:false
      end
    end
  in
  Dial.push q src 0 ~lifo:false;
  while not (Dial.is_empty q) do
    let v = Dial.pop q in
    dist.(v) <- Dial.last_key q;
    incr settled;
    if v = dst then Dial.reserve q 0
    else begin
      u := v;
      du := dist.(v);
      relax v improve
    end
  done;
  ({ src; dist; parent; first_hop }, !settled)

let tree g ~src =
  fst (search ~n:(Graph.n g) ~src ~relax:(fun u f -> Graph.iter_neighbor_costs g u ~f) ())

let tree_state g ~up ~cost ~src =
  let relax u f = Graph.iter_neighbors g u ~f:(fun v lid -> if up.(lid) then f v cost.(lid)) in
  fst (search ~n:(Graph.n g) ~src ~relax ())

let path t dst =
  if t.dist.(dst) < 0 then None
  else begin
    let rec build acc v = if v = t.src then v :: acc else build (v :: acc) t.parent.(v) in
    Some (build [] dst)
  end
