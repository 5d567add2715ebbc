(* Incremental shortest-path-tree maintenance (Ramalingam–Reps style
   tree repair) over the CSR adjacency.

   A retained tree keeps, besides the dist/parent/first_hop arrays of
   {!Spf.tree}, its own dynamic link state (up + cost per link id) and
   an explicit child structure (first_child/next_sib/prev_sib). A patch
   — link up/down, cost change, node crash/restart — is repaired in
   O(affected region):

   1. Collect the affected set A: for every patched link that is some
      node's tree edge, the whole old subtree under it (walked through
      the child lists, so the cost is |A|, not O(n)).
   2. Seed a decrease-key heap with the best re-attachment offer for
      each node of A from its non-affected neighbors, plus direct
      relaxations through patched links that now offer a strictly
      better distance to nodes outside A (cost decreases and link-ups
      can improve nodes whose old tree is intact).
   3. Run Dijkstra from those seeds. Nodes outside A enter the heap
      only on strict improvement, so the frontier never grows past the
      region whose distances actually change. Settling rewires the
      child lists and recomputes first hops in place; nodes of A that
      never settle have become unreachable.

   The static cheapest-parallel-link index of {!Graph} is bypassed
   throughout — it bakes in static costs, and a patch can flip which
   parallel link is cheapest — so relaxation streams the full
   adjacency rows. Costs must stay >= 1: that keeps settle order
   strictly increasing along parent chains, which is what lets
   first_hop be computed from the parent at settle time. *)

type t = {
  g : Graph.t;
  src : Ad.id;
  up : bool array;  (* per link id *)
  cost : int array;  (* per link id; >= 1 *)
  dist : int array;  (* -1 = unreachable *)
  parent : int array;
  parent_link : int array;  (* link id realising the parent edge; -1 at src *)
  first_hop : int array;
  first_child : int array;  (* head of each node's child list; -1 = none *)
  next_sib : int array;
  prev_sib : int array;
  (* repair scratch, generation-stamped so repairs never rescan the
     whole graph to reset state *)
  q : Keyed.t;
  affected : int array;
  settled_gen : int array;
  mutable gen : int;
  cand_parent : int array;
  cand_link : int array;
  stack : int array;
  touched : int array;
  mutable touched_len : int;
  mutable events : int;
  mutable nodes_repaired : int;
}

let src t = t.src
let dist t v = t.dist.(v)
let parent t v = t.parent.(v)
let first_hop t v = t.first_hop.(v)
let link_up t lid = t.up.(lid)
let link_cost t lid = t.cost.(lid)
let events t = t.events
let nodes_repaired t = t.nodes_repaired

(* --- child list maintenance ---------------------------------------- *)

(* Remove [v] from its current parent's child list. Must run before
   [t.parent.(v)] is overwritten. *)
let unlink t v =
  let p = t.parent.(v) in
  if p >= 0 then begin
    let prev = t.prev_sib.(v) and next = t.next_sib.(v) in
    if prev >= 0 then t.next_sib.(prev) <- next else t.first_child.(p) <- next;
    if next >= 0 then t.prev_sib.(next) <- prev;
    t.prev_sib.(v) <- -1;
    t.next_sib.(v) <- -1
  end

let link_child t ~parent:p v =
  let head = t.first_child.(p) in
  t.next_sib.(v) <- head;
  if head >= 0 then t.prev_sib.(head) <- v;
  t.prev_sib.(v) <- -1;
  t.first_child.(p) <- v

(* --- construction --------------------------------------------------- *)

let create g ~src =
  let n = Graph.n g in
  let nl = Graph.num_links g in
  let t =
    {
      g;
      src;
      up = Array.make (Stdlib.max nl 1) true;
      cost = Array.init (Stdlib.max nl 1) (fun lid ->
          if lid < nl then (Graph.link g lid).Link.cost else 1);
      dist = Array.make n (-1);
      parent = Array.make n (-1);
      parent_link = Array.make n (-1);
      first_hop = Array.make n (-1);
      first_child = Array.make n (-1);
      next_sib = Array.make n (-1);
      prev_sib = Array.make n (-1);
      q = Keyed.create ~capacity:n;
      affected = Array.make n 0;
      settled_gen = Array.make n 0;
      gen = 0;
      cand_parent = Array.make n (-1);
      cand_link = Array.make n (-1);
      stack = Array.make n 0;
      touched = Array.make n 0;
      touched_len = 0;
      events = 0;
      nodes_repaired = 0;
    }
  in
  (* Initial full Dijkstra, wiring the child lists as nodes settle. *)
  ignore (Keyed.insert_or_decrease t.q src ~priority:0);
  let rec drain () =
    match Keyed.pop t.q with
    | None -> ()
    | Some (d, u) ->
      t.dist.(u) <- d;
      if u <> src then begin
        let p = t.cand_parent.(u) in
        t.parent.(u) <- p;
        t.parent_link.(u) <- t.cand_link.(u);
        link_child t ~parent:p u;
        t.first_hop.(u) <- (if p = src then u else t.first_hop.(p))
      end;
      Graph.iter_neighbors g u ~f:(fun v lid ->
          if t.dist.(v) < 0 then begin
            let c = d + t.cost.(lid) in
            if Keyed.insert_or_decrease t.q v ~priority:c then begin
              t.cand_parent.(v) <- u;
              t.cand_link.(v) <- lid
            end
          end);
      drain ()
  in
  drain ();
  t

(* --- repair ---------------------------------------------------------- *)

(* Mark the whole old subtree under [root] as affected and record it in
   [touched]. Marks happen at push time so shared descendants of nested
   patched edges are walked once. *)
let collect_subtree t root =
  if t.affected.(root) <> t.gen then begin
    t.affected.(root) <- t.gen;
    let sp = ref 1 in
    t.stack.(0) <- root;
    while !sp > 0 do
      decr sp;
      let v = t.stack.(!sp) in
      t.touched.(t.touched_len) <- v;
      t.touched_len <- t.touched_len + 1;
      let c = ref t.first_child.(v) in
      while !c >= 0 do
        if t.affected.(!c) <> t.gen then begin
          t.affected.(!c) <- t.gen;
          t.stack.(!sp) <- !c;
          incr sp
        end;
        c := t.next_sib.(!c)
      done
    done
  end

let offer t y ~cand ~cand_parent ~cand_link =
  if Keyed.insert_or_decrease t.q y ~priority:cand then begin
    t.cand_parent.(y) <- cand_parent;
    t.cand_link.(y) <- cand_link
  end

(* One direction of a patched link: a valid, unaffected [u] may now
   reach [v] more cheaply than v's retained distance. *)
let relax_changed t u v lid =
  if t.affected.(u) <> t.gen && t.settled_gen.(u) <> t.gen && t.dist.(u) >= 0 then begin
    let cand = t.dist.(u) + t.cost.(lid) in
    let improves =
      if t.affected.(v) = t.gen || t.dist.(v) < 0 then true else cand < t.dist.(v)
    in
    if improves then offer t v ~cand ~cand_parent:u ~cand_link:lid
  end

let apply t changed =
  t.gen <- t.gen + 1;
  t.touched_len <- 0;
  t.events <- t.events + 1;
  (* Phase 1: invalidated subtrees. A patched link matters structurally
     only if it is someone's tree edge (cost decrease included: the
     whole subtree's distances shift). *)
  List.iter
    (fun lid ->
      let l = Graph.link t.g lid in
      let child =
        if t.parent_link.(l.Link.a) = lid then l.Link.a
        else if t.parent_link.(l.Link.b) = lid then l.Link.b
        else -1
      in
      if child >= 0 then collect_subtree t child)
    changed;
  (* Phase 2a: best re-attachment offer for each affected node from the
     intact part of the tree. *)
  for i = 0 to t.touched_len - 1 do
    let x = t.touched.(i) in
    Graph.iter_neighbors t.g x ~f:(fun y lid ->
        if t.up.(lid) && t.affected.(y) <> t.gen && t.dist.(y) >= 0 then
          offer t x ~cand:(t.dist.(y) + t.cost.(lid)) ~cand_parent:y ~cand_link:lid)
  done;
  (* Phase 2b: patched links that now improve nodes outside the
     affected set (cost decreases, link up, restored node). *)
  List.iter
    (fun lid ->
      if t.up.(lid) then begin
        let l = Graph.link t.g lid in
        relax_changed t l.Link.a l.Link.b lid;
        relax_changed t l.Link.b l.Link.a lid
      end)
    changed;
  (* Phase 3: Dijkstra restricted to the changing region. *)
  let rec drain () =
    match Keyed.pop t.q with
    | None -> ()
    | Some (d, x) ->
      t.settled_gen.(x) <- t.gen;
      if t.parent.(x) >= 0 then unlink t x;
      t.dist.(x) <- d;
      let p = t.cand_parent.(x) in
      t.parent.(x) <- p;
      t.parent_link.(x) <- t.cand_link.(x);
      link_child t ~parent:p x;
      t.first_hop.(x) <- (if p = t.src then x else t.first_hop.(p));
      t.nodes_repaired <- t.nodes_repaired + 1;
      Graph.iter_neighbors t.g x ~f:(fun y lid ->
          if t.up.(lid) && t.settled_gen.(y) <> t.gen then begin
            let c = d + t.cost.(lid) in
            let improves =
              if t.affected.(y) = t.gen || t.dist.(y) < 0 then true else c < t.dist.(y)
            in
            if improves then offer t y ~cand:c ~cand_parent:x ~cand_link:lid
          end);
      drain ()
  in
  drain ();
  (* Phase 4: affected nodes that never settled are now unreachable. *)
  for i = 0 to t.touched_len - 1 do
    let x = t.touched.(i) in
    if t.settled_gen.(x) <> t.gen then begin
      if t.parent.(x) >= 0 then unlink t x;
      t.parent.(x) <- -1;
      t.parent_link.(x) <- -1;
      t.dist.(x) <- -1;
      t.first_hop.(x) <- -1
    end
  done

(* --- patch entry points --------------------------------------------- *)

let set_link t lid ~up =
  if t.up.(lid) <> up then begin
    t.up.(lid) <- up;
    apply t [ lid ]
  end

let set_cost t lid ~cost =
  if cost < 1 then invalid_arg "Spf_delta.set_cost: cost must be >= 1";
  if t.cost.(lid) <> cost then begin
    t.cost.(lid) <- cost;
    apply t [ lid ]
  end

let node_down t ad =
  let taken = ref [] in
  Graph.iter_neighbors t.g ad ~f:(fun _ lid ->
      if t.up.(lid) then begin
        t.up.(lid) <- false;
        taken := lid :: !taken
      end);
  let taken = List.rev !taken in
  if taken <> [] then apply t taken;
  taken

let node_up t ~links =
  let raised = List.filter (fun lid -> not t.up.(lid)) links in
  List.iter (fun lid -> t.up.(lid) <- true) raised;
  if raised <> [] then apply t raised

(* --- views & checking ------------------------------------------------ *)

let to_tree t =
  {
    Spf.src = t.src;
    dist = Array.copy t.dist;
    parent = Array.copy t.parent;
    first_hop = Array.copy t.first_hop;
  }

let self_check t =
  let n = Graph.n t.g in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let exception Bad of string in
  try
    if t.dist.(t.src) <> 0 then raise (Bad "source distance not 0");
    if t.parent.(t.src) >= 0 then raise (Bad "source has a parent");
    for v = 0 to n - 1 do
      if v <> t.src then
        if t.dist.(v) < 0 then begin
          if t.parent.(v) >= 0 then raise (Bad (Printf.sprintf "unreachable %d has parent" v));
          if t.first_hop.(v) >= 0 then
            raise (Bad (Printf.sprintf "unreachable %d has first hop" v));
          if t.first_child.(v) >= 0 then
            raise (Bad (Printf.sprintf "unreachable %d has children" v))
        end
        else begin
          let p = t.parent.(v) and lid = t.parent_link.(v) in
          if p < 0 || lid < 0 then raise (Bad (Printf.sprintf "reachable %d lacks parent" v));
          if not t.up.(lid) then raise (Bad (Printf.sprintf "%d's tree edge is down" v));
          let l = Graph.link t.g lid in
          if not ((l.Link.a = v && l.Link.b = p) || (l.Link.a = p && l.Link.b = v)) then
            raise (Bad (Printf.sprintf "%d's tree edge does not join it to its parent" v));
          if t.dist.(v) <> t.dist.(p) + t.cost.(lid) then
            raise (Bad (Printf.sprintf "%d's distance is not parent + edge" v));
          let expect = if p = t.src then v else t.first_hop.(p) in
          if t.first_hop.(v) <> expect then
            raise (Bad (Printf.sprintf "%d's first hop disagrees with its parent's" v));
          (* exactly one membership in the parent's child list *)
          let count = ref 0 in
          let c = ref t.first_child.(p) in
          while !c >= 0 do
            if !c = v then incr count;
            c := t.next_sib.(!c)
          done;
          if !count <> 1 then
            raise (Bad (Printf.sprintf "%d appears %d times in its parent's child list" v !count))
        end
    done;
    (* No relaxable edge remains: together with the parent-sum check
       above this proves every recorded distance is exactly the
       shortest one under the current up/cost state. *)
    for lid = 0 to Graph.num_links t.g - 1 do
      if t.up.(lid) then begin
        let l = Graph.link t.g lid in
        let check u v =
          if t.dist.(u) >= 0 then
            if t.dist.(v) < 0 || t.dist.(v) > t.dist.(u) + t.cost.(lid) then
              raise (Bad (Printf.sprintf "link %d still relaxes %d -> %d" lid u v))
        in
        check l.Link.a l.Link.b;
        check l.Link.b l.Link.a
      end
    done;
    Ok ()
  with Bad msg -> fail "%s" msg
