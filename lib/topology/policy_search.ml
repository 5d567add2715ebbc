(* Policy-constrained route search (see policy_search.mli).

   State (w, v) — at w, arrived from v — lives in the slot of v in w's
   row. [twin] maps the slot of (v -> w) in v's row to the slot of
   (w -> v) in w's row: relaxing slot k from v reaches state
   [twin.(k)], and state slot s is at AD [nbr.(twin.(s))]. The start
   state takes the one slot past the rows. *)

module Keyed = Pr_util.Pqueue.Keyed

type view = {
  off : int array;
  nbr : int array;
  twin : int array;
  seq_bits : int;  (* low heap-key bits, holding the improvement stamp *)
  max_dist : int;  (* largest path metric the other bits hold *)
}

let rec bit_width x = if x = 0 then 0 else 1 + bit_width (x lsr 1)

let of_csr ~off ~nbr =
  let n = Array.length off - 1 and m = Array.length nbr in
  if n < 0 || off.(0) <> 0 || off.(n) <> m then invalid_arg "Policy_search.of_csr: bad offsets";
  let asymmetric () = invalid_arg "Policy_search.of_csr: rows are not symmetric" in
  (* Bucket the slots (v -> w) by w, remembering v; then, with [pos]
     mapping w's neighbors to their slots in row w, the twin of
     bucketed (v -> w) is [pos.(v)]. *)
  let start = Array.make (n + 1) 0 in
  Array.iter
    (fun w ->
      if w < 0 || w >= n then invalid_arg "Policy_search.of_csr: neighbor out of range";
      start.(w + 1) <- start.(w + 1) + 1)
    nbr;
  for w = 0 to n - 1 do
    if start.(w + 1) <> off.(w + 1) - off.(w) then asymmetric ();
    start.(w + 1) <- start.(w + 1) + start.(w)
  done;
  let fill = Array.sub start 0 n and slot = Array.make m 0 and from = Array.make m 0 in
  for v = 0 to n - 1 do
    for k = off.(v) to off.(v + 1) - 1 do
      let i = fill.(nbr.(k)) in
      slot.(i) <- k;
      from.(i) <- v;
      fill.(nbr.(k)) <- i + 1
    done
  done;
  let twin = Array.make m 0 and pos = Array.make n (-1) in
  (* Improvements per search <= relaxations <= sum over ADs of
     (states there) x (row length) <= d (d + 1). *)
  let bound = ref 1 in
  for w = 0 to n - 1 do
    for a = off.(w) to off.(w + 1) - 1 do
      pos.(nbr.(a)) <- a
    done;
    for i = start.(w) to start.(w + 1) - 1 do
      if pos.(from.(i)) < 0 then asymmetric ();
      twin.(slot.(i)) <- pos.(from.(i))
    done;
    for a = off.(w) to off.(w + 1) - 1 do
      pos.(nbr.(a)) <- -1
    done;
    let d = off.(w + 1) - off.(w) in
    bound := !bound + (d * (d + 1))
  done;
  (* A duplicate neighbor leaves some slot unpaired. *)
  Array.iteri (fun k t -> if twin.(t) <> k then asymmetric ()) twin;
  let seq_bits = bit_width !bound in
  { off; nbr; twin; seq_bits; max_dist = max_int lsr seq_bits }

let of_graph g =
  let off, nbr = Graph.unique_csr g in
  of_csr ~off ~nbr

let iter_row v ad ~f =
  for k = v.off.(ad) to v.off.(ad + 1) - 1 do
    f v.nbr.(k) k
  done

(* AD v's restricted row is [slots.(off.(v) + i)] for i < [len.(v)]:
   each row keeps its view span, so a joining AD's slot is inserted in
   place. *)
type rows = { view : view; kept : bool array; len : int array; slots : int array }

let restrict v ~keep =
  let n = Array.length v.off - 1 in
  let kept = Array.init n keep in
  let len = Array.make n 0 and slots = Array.make (Array.length v.nbr) 0 in
  for u = 0 to n - 1 do
    for k = v.off.(u) to v.off.(u + 1) - 1 do
      if kept.(v.nbr.(k)) then begin
        slots.(v.off.(u) + len.(u)) <- k;
        len.(u) <- len.(u) + 1
      end
    done
  done;
  { view = v; kept; len; slots }

let kept r ad = r.kept.(ad)

let keep r ad =
  if not r.kept.(ad) then begin
    r.kept.(ad) <- true;
    let v = r.view and slots = r.slots in
    for k = v.off.(ad) to v.off.(ad + 1) - 1 do
      (* Slot [twin.(k)] of neighbor u reaches [ad]: insertion-sort it
         into u's restricted row. *)
      let u = v.nbr.(k) and s = v.twin.(k) in
      let base = v.off.(u) in
      let i = ref (base + r.len.(u)) in
      while !i > base && slots.(!i - 1) > s do
        slots.(!i) <- slots.(!i - 1);
        decr i
      done;
      slots.(!i) <- s;
      r.len.(u) <- r.len.(u) + 1
    done
  end

let no_rows =
  let view = { off = [| 0 |]; nbr = [||]; twin = [||]; seq_bits = 0; max_dist = 0 } in
  { view; kept = [||]; len = [||]; slots = [||] }

(* Node-level Dijkstra from [dst] over the restricted rows. Relaxing
   w's slot k to v prices the edge v -> w by its own slot, [twin.(k)].
   With decrease-key and metrics >= 0, a settled AD is never improved
   again, so the label doubles as the distance array. *)
let lower_bound ?into r q ~dst ~metric =
  let v = r.view in
  let off = v.off and nbr = v.nbr and twin = v.twin and len = r.len and slots = r.slots in
  let n = Array.length off - 1 in
  let h =
    match into with
    | Some h ->
        Array.fill h 0 n max_int;
        h
    | None -> Array.make n max_int
  in
  Keyed.clear q;
  h.(dst) <- 0;
  ignore (Keyed.insert_or_decrease q dst ~priority:0);
  while not (Keyed.is_empty q) do
    let w = Keyed.pop_min q in
    let d = h.(w) in
    for i = off.(w) to off.(w) + len.(w) - 1 do
      let k = slots.(i) in
      let u = nbr.(k) and d' = d + metric.(twin.(k)) in
      if d' < h.(u) then begin
        h.(u) <- d';
        ignore (Keyed.insert_or_decrease q u ~priority:d')
      end
    done
  done;
  h

module Lru = Pr_util.Lru

type labels = {
  rows : rows;
  heap : Keyed.t;
  cache : (int, int array) Lru.t;
  mutable spare : int array list;  (* arrays of the labels [join] dropped *)
  mutable builds : int;
}

let labels v ~keep ~capacity =
  {
    rows = restrict v ~keep;
    heap = Keyed.create ~capacity:(Array.length v.off - 1);
    cache = Lru.create ~capacity:(Some capacity) ();
    spare = [];
    builds = 0;
  }

let carrying l = l.rows

let join l ad =
  if not (kept l.rows ad) then begin
    keep l.rows ad;
    l.spare <- Lru.fold l.cache ~init:l.spare ~f:(fun acc _ h -> h :: acc);
    Lru.clear l.cache
  end

(* A miss builds into a dropped label's array, else into the array of
   the label its [put] is about to evict. *)
let label l ~key ~dst ~metric =
  match Lru.find l.cache key with
  | Some h -> h
  | None ->
      let into =
        match (l.spare, Lru.capacity l.cache) with
        | h :: rest, _ ->
            l.spare <- rest;
            Some h
        | [], Some c when Lru.length l.cache >= c -> Lru.oldest l.cache
        | [], _ -> None
      in
      let h = lower_bound ?into l.rows l.heap ~dst ~metric in
      l.builds <- l.builds + 1;
      ignore (Lru.put l.cache key h);
      h

let label_builds l = l.builds

let label_evictions l = Lru.evictions l.cache

type scratch = {
  mutable dist : int array;
  mutable parent : int array;
  mutable reached : int array;  (* slot -> generation whose dist is valid *)
  mutable q : Keyed.t;
  mutable touched : int array;  (* AD -> [touch] of its first touch *)
  mutable avoided : int array;
  mutable on_path : int array;
  mutable dst_mark : int array;  (* AD -> [touch] when it neighbors an unkept dst *)
  mutable dst_slot : int array;  (* ... and then its slot to dst *)
  mutable gen : int;  (* bumped per pass: stamps [reached], [avoided], [on_path] *)
  mutable touch : int;  (* [gen] at the search's start: both passes share it *)
  mutable work : int;
  mutable bound_work : int;
}

let scratch () =
  {
    dist = [||];
    parent = [||];
    reached = [||];
    q = Keyed.create ~capacity:0;
    touched = [||];
    avoided = [||];
    on_path = [||];
    dst_mark = [||];
    dst_slot = [||];
    gen = 0;
    touch = 0;
    work = 0;
    bound_work = 0;
  }

(* Grow to fit the view and open a new generation. Fresh stamp arrays
   hold 0, below every live generation. *)
let begin_search s v =
  let size = Array.length v.nbr + 1 and n = Array.length v.off - 1 in
  if Array.length s.dist < size then begin
    s.dist <- Array.make size 0;
    s.parent <- Array.make size 0;
    s.reached <- Array.make size 0;
    s.q <- Keyed.create ~capacity:size
  end;
  if Array.length s.touched < n then begin
    s.touched <- Array.make n 0;
    s.avoided <- Array.make n 0;
    s.on_path <- Array.make n 0;
    s.dst_mark <- Array.make n 0;
    s.dst_slot <- Array.make n 0
  end;
  s.gen <- s.gen + 1;
  s.touch <- s.gen;
  s.work <- 0;
  s.bound_work <- 0

let scratch_for v =
  let s = scratch () in
  begin_search s v;
  s

let shared = Domain.DLS.new_key scratch

let shared_scratch () = Domain.DLS.get shared

let first_touch s ad = s.touched.(ad) <> s.touch && (s.touched.(ad) <- s.touch; true)

let settled s = s.work

let bound_settled s = s.bound_work

type outcome = Route of Path.t | Revisits | Unreachable

let overflow () = invalid_arg "Policy_search.search: path metric overflow"

(* One pass of the relaxation loop; returns the settled destination
   state, or -1. A push whose d' + h(w) exceeds [cut] is skipped before
   admission; an empty [h] bounds nothing. The exact order keys a push
   by (d', seq); the bound pass ([astar]) by (d' + h(w), LIFO seq) and
   lowers [cut] to each destination distance it pushes.

   With restricted rows [r] an AD's slots are its kept ones, with the
   slot to an unkept dst ([dst_slot], or [max_int] when none) merged in
   at its place: the slots left out reach ADs with h = max_int, whose
   pushes are skipped anyway, so the pushes and their seqs are those
   of the full rows. *)
let pass s v r ~src ~dst ~avoid ~metric ~admit ~h ~astar ~cut =
  let bounded = Array.length h > 0 and gen = s.gen and off = v.off and nbr = v.nbr and twin = v.twin in
  let dist = s.dist and parent = s.parent and reached = s.reached in
  let avoided = s.avoided and q = s.q and bits = v.seq_bits in
  let restricted = r != no_rows and len = r.len and slots = r.slots in
  let merge_dst = restricted && not r.kept.(dst) and dst_mark = s.dst_mark and touch = s.touch in
  List.iter (fun a -> if a >= 0 && a < Array.length avoided then avoided.(a) <- gen) avoid;
  let start = Array.length nbr and seq = ref 1 and final = ref (-1) and cut = ref cut in
  let tie = if astar then (1 lsl bits) - 1 else 0 in
  Keyed.clear q;
  dist.(start) <- 0;
  parent.(start) <- -1;
  reached.(start) <- gen;
  ignore (Keyed.insert_or_decrease q start ~priority:0);
  while !final < 0 && not (Keyed.is_empty q) do
    (* Metrics are >= 0, h is consistent and only strict improvements
       enter the heap, so a popped state is settled for good. *)
    let st = Keyed.pop_min q in
    s.work <- s.work + 1;
    let at = if st = start then src else nbr.(twin.(st)) in
    if at = dst then final := st
    else begin
      let d = dist.(st) and from = if st = start then -1 else nbr.(st) in
      let i = ref off.(at) in
      let stop = if restricted then !i + len.(at) else off.(at + 1) in
      let kd = ref (if merge_dst && dst_mark.(at) = touch then s.dst_slot.(at) else max_int) in
      while !i < stop || !kd < max_int do
        let next = if !i >= stop then max_int else if restricted then slots.(!i) else !i in
        let k = if next < !kd then next else !kd in
        if next < !kd then incr i else kd := max_int;
        let w = nbr.(k) in
        if w <> src && (w = dst || avoided.(w) <> gen) then begin
          let c = metric at w k in
          let st' = twin.(k) and d' = d + c in
          if c >= 0 && (reached.(st') <> gen || d' < dist.(st')) then begin
            let hw = if bounded then h.(w) else 0 in
            (* Admission last: it is the dearest check, and pure. *)
            if hw <> max_int && hw <= !cut - d' && (at = src || admit at from w) then begin
              let f = if astar then d' + hw else d' in
              if f > v.max_dist then overflow ();
              if astar && w = dst then cut := d';
              reached.(st') <- gen;
              dist.(st') <- d';
              parent.(st') <- st;
              ignore (Keyed.insert_or_decrease q st' ~priority:((f lsl bits) lor (!seq lxor tie)));
              incr seq
            end
          end
        end
      done
    end
  done;
  !final

let search s v ~src ~dst ?(avoid = []) ?lower ?(rows = no_rows) ~metric ~admit () =
  begin_search s v;
  if rows != no_rows && rows.view != v then invalid_arg "Policy_search.search: rows of another view";
  if src = dst then Route [ src ]
  else begin
    let final =
      match lower with
      | None ->
          if rows != no_rows then invalid_arg "Policy_search.search: rows without a lower bound";
          pass s v rows ~src ~dst ~avoid ~metric ~admit ~h:[||] ~astar:false ~cut:max_int
      | Some h ->
          if Array.length h < Array.length v.off - 1 then
            invalid_arg "Policy_search.search: lower bound shorter than the view";
          if rows != no_rows && not rows.kept.(dst) then
            for j = v.off.(dst) to v.off.(dst + 1) - 1 do
              s.dst_mark.(v.nbr.(j)) <- s.touch;
              s.dst_slot.(v.nbr.(j)) <- v.twin.(j)
            done;
          (* Pass 1 learns the optimum D*; pass 2 replays the exact
             order over the states that can still meet it. *)
          let goal = pass s v rows ~src ~dst ~avoid ~metric ~admit ~h ~astar:true ~cut:max_int in
          s.bound_work <- s.work;
          if goal < 0 then -1
          else begin
            let best = s.dist.(goal) in
            s.gen <- s.gen + 1;
            pass s v rows ~src ~dst ~avoid ~metric ~admit ~h ~astar:false ~cut:best
          end
    in
    if final < 0 then Unreachable
    else begin
      let gen = s.gen and start = Array.length v.nbr and nbr = v.nbr and twin = v.twin in
      let path = ref [] and simple = ref true and st = ref final in
      while !st >= 0 do
        let ad = if !st = start then src else nbr.(twin.(!st)) in
        if s.on_path.(ad) = gen then simple := false;
        s.on_path.(ad) <- gen;
        path := ad :: !path;
        st := s.parent.(!st)
      done;
      if !simple then Route !path else Revisits
    end
  end

let enumerate s v ~src ~dst ~max_hops ~limit ~admit =
  begin_search s v;
  let gen = s.gen and on_path = s.on_path in
  let results = ref [] and count = ref 0 in
  let rec go u prev prefix_rev depth =
    if !count < limit then
      if u = dst then begin
        incr count;
        results := List.rev (dst :: prefix_rev) :: !results
      end
      else if depth < max_hops then
        for k = v.off.(u) to v.off.(u + 1) - 1 do
          let w = v.nbr.(k) in
          if on_path.(w) <> gen && (u = src || admit u prev w) then begin
            on_path.(w) <- gen;
            go w u (u :: prefix_rev) (depth + 1);
            on_path.(w) <- 0
          end
        done
  in
  if src = dst then [ [ src ] ]
  else begin
    on_path.(src) <- gen;
    go src (-1) [] 0;
    List.rev !results
  end
