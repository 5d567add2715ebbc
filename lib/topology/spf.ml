(* Single-source shortest paths: the one node-level Dijkstra in the
   library (pop order and early exit are documented in spf.mli).
   Integer costs give many equal distances, which the FIFO run heap
   pushes and pops in O(1) each. *)

module Pqueue = Pr_util.Pqueue

type tree = {
  src : Ad.id;
  dist : int array;  (* cost of the shortest route; -1 = unreachable *)
  parent : int array;  (* predecessor on the tree; -1 at the source *)
  first_hop : int array;  (* first AD after the source; -1 at the source *)
}

let search ~n ~src ?(dst = -1) ~relax () =
  let dist = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let first_hop = Array.make n (-1) in
  let best = Array.make n max_int in
  let q = Pqueue.create () in
  let settled = ref 0 in
  (* The node being expanded and its distance. [improve] reads them
     from here, so one closure serves every pop. *)
  let u = ref src and du = ref 0 in
  let improve v cost =
    if dist.(v) < 0 then begin
      let d = !du + cost in
      if d < best.(v) then begin
        best.(v) <- d;
        parent.(v) <- !u;
        first_hop.(v) <- (if !u = src then v else first_hop.(!u));
        Pqueue.add q ~priority:(float_of_int d) v
      end
    end
  in
  let rec drain () =
    if not (Pqueue.is_empty q) then begin
      let v = Pqueue.pop_value q in
      if dist.(v) >= 0 then drain ()
      else begin
        dist.(v) <- best.(v);
        incr settled;
        if v <> dst then begin
          u := v;
          du := best.(v);
          relax v improve;
          drain ()
        end
      end
    end
  in
  best.(src) <- 0;
  Pqueue.add q ~priority:0.0 src;
  drain ();
  (* An early exit at [dst] leaves entries behind; clearing hands the
     queue's storage on to the next search, as a drain does. *)
  Pqueue.clear q;
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
