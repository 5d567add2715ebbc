(* The hot-path representation is CSR (compressed sparse row): the
   adjacency of every AD is a contiguous slice of two flat int arrays,
   sorted by (neighbor, link id). A second, parallel CSR over *unique*
   neighbors carries, per (AD, neighbor) pair, the slice of parallel
   links joining them and the precomputed cheapest one, so that
   [find_link]/[link_cost] are a binary search plus an array read and
   neighbor iteration never allocates. Built once in [create]; the
   graph is immutable afterwards (dynamic link status lives in
   [Pr_sim.Network]). *)

type t = {
  ads : Ad.t array;
  links : Link.t array;
  (* Full adjacency: row [i] spans slots [off.(i) .. off.(i+1) - 1] of
     [adj_nbr]/[adj_link], one slot per incident link (parallel links
     appear once each), sorted by (neighbor, link id). *)
  off : int array;
  adj_nbr : int array;
  adj_link : int array;
  (* Unique-neighbor index: row [i] spans [uoff.(i) .. uoff.(i+1) - 1]
     of [uniq_nbr], sorted. Slot [k]'s parallel-link group spans
     [uniq_first.(k) .. uniq_first.(k + 1) - 1] of the full adjacency
     ([uniq_first] has one trailing sentinel), and [uniq_best.(k)] is
     the cheapest link of the group (lowest id among ties). *)
  uoff : int array;
  uniq_nbr : int array;
  uniq_first : int array;
  uniq_best : int array;
}

let create ads links =
  let n = Array.length ads in
  Array.iteri
    (fun i (a : Ad.t) ->
      if a.Ad.id <> i then invalid_arg "Graph.create: AD id must equal its index")
    ads;
  Array.iteri
    (fun i (l : Link.t) ->
      if l.Link.id <> i then invalid_arg "Graph.create: link id must equal its index";
      if l.Link.a < 0 || l.Link.a >= n || l.Link.b < 0 || l.Link.b >= n then
        invalid_arg "Graph.create: link endpoint out of range")
    links;
  let num_links = Array.length links in
  let slots = 2 * num_links in
  let off = Array.make (n + 1) 0 in
  Array.iter
    (fun (l : Link.t) ->
      off.(l.Link.a) <- off.(l.Link.a) + 1;
      off.(l.Link.b) <- off.(l.Link.b) + 1)
    links;
  let total = ref 0 in
  for i = 0 to n do
    let d = off.(i) in
    off.(i) <- !total;
    if i < n then total := !total + d
  done;
  let adj_nbr = Array.make slots 0 in
  let adj_link = Array.make slots 0 in
  (* Place each endpoint, encoding (neighbor, link) as one int so the
     per-row sort is a monomorphic int sort. Link ids stay below
     [num_links], so the encoding never collides. *)
  let enc = Array.make slots 0 in
  let cursor = Array.copy off in
  let place x nbr lid =
    enc.(cursor.(x)) <- (nbr * (num_links + 1)) + lid;
    cursor.(x) <- cursor.(x) + 1
  in
  Array.iter
    (fun (l : Link.t) ->
      place l.Link.a l.Link.b l.Link.id;
      place l.Link.b l.Link.a l.Link.id)
    links;
  let uniq_count = ref 0 in
  for i = 0 to n - 1 do
    let s = off.(i) and e = off.(i + 1) in
    if e - s > 1 then begin
      let row = Array.sub enc s (e - s) in
      Array.sort Int.compare row;
      Array.blit row 0 enc s (e - s)
    end;
    let prev = ref (-1) in
    for k = s to e - 1 do
      let nbr = enc.(k) / (num_links + 1) in
      adj_nbr.(k) <- nbr;
      adj_link.(k) <- enc.(k) mod (num_links + 1);
      if nbr <> !prev then begin
        incr uniq_count;
        prev := nbr
      end
    done
  done;
  let uoff = Array.make (n + 1) 0 in
  let uniq_nbr = Array.make !uniq_count 0 in
  let uniq_first = Array.make (!uniq_count + 1) slots in
  let uniq_best = Array.make !uniq_count 0 in
  let u = ref 0 in
  for i = 0 to n - 1 do
    uoff.(i) <- !u;
    let prev = ref (-1) in
    for k = off.(i) to off.(i + 1) - 1 do
      let nbr = adj_nbr.(k) and lid = adj_link.(k) in
      if nbr <> !prev then begin
        uniq_nbr.(!u) <- nbr;
        uniq_first.(!u) <- k;
        uniq_best.(!u) <- lid;
        incr u;
        prev := nbr
      end
      else if links.(lid).Link.cost < links.(uniq_best.(!u - 1)).Link.cost then
        uniq_best.(!u - 1) <- lid
    done
  done;
  uoff.(n) <- !u;
  { ads; links; off; adj_nbr; adj_link; uoff; uniq_nbr; uniq_first; uniq_best }

let n t = Array.length t.ads

let num_links t = Array.length t.links

let ad t i = t.ads.(i)

let ads t = t.ads

let link t i = t.links.(i)

let links t = t.links

let iter_neighbors t i ~f =
  for k = t.off.(i) to t.off.(i + 1) - 1 do
    f t.adj_nbr.(k) t.adj_link.(k)
  done

let iter_neighbor_costs t i ~f =
  for k = t.off.(i) to t.off.(i + 1) - 1 do
    f t.adj_nbr.(k) t.links.(t.adj_link.(k)).Link.cost
  done

let iter_neighbor_ids t i ~f =
  for k = t.uoff.(i) to t.uoff.(i + 1) - 1 do
    f t.uniq_nbr.(k)
  done

let fold_neighbors t i ~init ~f =
  let acc = ref init in
  for k = t.off.(i) to t.off.(i + 1) - 1 do
    acc := f !acc t.adj_nbr.(k) t.adj_link.(k)
  done;
  !acc

let neighbors t i =
  let acc = ref [] in
  for k = t.off.(i + 1) - 1 downto t.off.(i) do
    acc := (t.adj_nbr.(k), t.adj_link.(k)) :: !acc
  done;
  !acc

let neighbor_ids t i =
  let acc = ref [] in
  for k = t.uoff.(i + 1) - 1 downto t.uoff.(i) do
    acc := t.uniq_nbr.(k) :: !acc
  done;
  !acc

let degree t i = t.off.(i + 1) - t.off.(i)

let uniq_slot t x y =
  let lo = ref t.uoff.(x) and hi = ref (t.uoff.(x + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = t.uniq_nbr.(mid) in
    if v = y then found := mid else if v < y then lo := mid + 1 else hi := mid - 1
  done;
  !found

let unique_csr t = (t.uoff, t.uniq_nbr)

let slot_cost t k = t.links.(t.uniq_best.(k)).Link.cost

(* The precomputed cheapest link answers whenever it is up; only a
   pair whose cheapest link is down scans its parallel group. Both
   pick the lowest id among equally cheap links. *)
let cheapest_up_link t k ~up =
  let best = t.uniq_best.(k) in
  if up.(best) then best
  else begin
    let found = ref (-1) and cost = ref max_int in
    for s = t.uniq_first.(k) to t.uniq_first.(k + 1) - 1 do
      let lid = t.adj_link.(s) in
      if up.(lid) then begin
        let c = t.links.(lid).Link.cost in
        if c < !cost then begin
          found := lid;
          cost := c
        end
      end
    done;
    !found
  end

let fold_slot_links t k ~init ~f =
  let acc = ref init in
  for s = t.uniq_first.(k) to t.uniq_first.(k + 1) - 1 do
    acc := f !acc t.adj_link.(s)
  done;
  !acc

let find_link t x y =
  let k = uniq_slot t x y in
  if k < 0 then None else Some t.uniq_best.(k)

let link_cost t x y =
  let k = uniq_slot t x y in
  if k < 0 then -1 else t.links.(t.uniq_best.(k)).Link.cost

let bfs_hops t src =
  let n = n t in
  let dist = Array.make n (-1) in
  let queue = Array.make (Stdlib.max n 1) 0 in
  let head = ref 0 and tail = ref 0 in
  dist.(src) <- 0;
  queue.(!tail) <- src;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = t.off.(u) to t.off.(u + 1) - 1 do
      let v = t.adj_nbr.(k) in
      if dist.(v) < 0 then begin
        dist.(v) <- dist.(u) + 1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist

let is_connected t =
  if n t = 0 then true
  else begin
    let dist = bfs_hops t 0 in
    Array.for_all (fun d -> d >= 0) dist
  end

let has_cycle t =
  (* Undirected cycle detection via DFS with parent-link tracking:
     seeing a visited vertex through a link other than the one we
     arrived by means a cycle (parallel links count). *)
  let visited = Array.make (n t) false in
  let found = ref false in
  let rec dfs u via_link =
    visited.(u) <- true;
    iter_neighbors t u ~f:(fun v lid ->
        if lid <> via_link then
          if visited.(v) then found := true else dfs v lid)
  in
  for i = 0 to n t - 1 do
    if not visited.(i) then dfs i (-1)
  done;
  !found

let fold_links t ~init ~f = Array.fold_left f init t.links

let count_by pred_list extract =
  List.map
    (fun key -> (key, List.length (List.filter (fun x -> extract x = key) pred_list)))

let count_by_klass t =
  let all = Array.to_list t.ads in
  count_by all (fun (a : Ad.t) -> a.Ad.klass) [ Ad.Stub; Ad.Multihomed; Ad.Transit; Ad.Hybrid ]

let count_links_by_kind t =
  let all = Array.to_list t.links in
  count_by all (fun (l : Link.t) -> l.Link.kind) [ Link.Hierarchical; Link.Lateral; Link.Bypass ]

let ids_where t pred =
  Array.to_list t.ads |> List.filter pred |> List.map (fun (a : Ad.t) -> a.Ad.id)

let stub_ids t =
  ids_where t (fun a ->
      match a.Ad.klass with
      | Ad.Stub | Ad.Multihomed -> true
      | Ad.Transit | Ad.Hybrid -> false)

let host_ids t =
  ids_where t (fun a ->
      match a.Ad.klass with
      | Ad.Stub | Ad.Multihomed | Ad.Hybrid -> true
      | Ad.Transit -> false)

let transit_ids t =
  ids_where t (fun a ->
      match a.Ad.klass with
      | Ad.Transit | Ad.Hybrid -> true
      | Ad.Stub | Ad.Multihomed -> false)

let hierarchy_descendants t root =
  let seen = Array.make (n t) false in
  let rec go u =
    if not seen.(u) then begin
      seen.(u) <- true;
      iter_neighbors t u ~f:(fun v lid ->
          let l = t.links.(lid) in
          if
            l.Link.kind = Link.Hierarchical
            && Ad.level_rank t.ads.(v).Ad.level > Ad.level_rank t.ads.(u).Ad.level
          then go v)
    end
  in
  go root;
  let acc = ref [] in
  for i = n t - 1 downto 0 do
    if seen.(i) then acc := i :: !acc
  done;
  !acc

let pp_summary ppf t =
  Format.fprintf ppf "%d ADs, %d links;" (n t) (num_links t);
  List.iter
    (fun (k, c) -> if c > 0 then Format.fprintf ppf " %d %s" c (Ad.klass_to_string k))
    (count_by_klass t);
  Format.fprintf ppf ";";
  List.iter
    (fun (k, c) -> if c > 0 then Format.fprintf ppf " %d %s" c (Link.kind_to_string k))
    (count_links_by_kind t)
