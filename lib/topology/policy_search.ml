(* Policy-constrained route search (see policy_search.mli).

   Rows number their kept ADs as nodes 0 .. size - 1, and node i's
   slots are off.(i) .. off.(i+1) - 1. Slot j is the four words from
   [edge.(4j)]: the neighbor's node, the twin (the slot of the reverse
   edge in the neighbor's row), the slot's number in the full rows (the
   one metrics are indexed by) and the neighbor's AD, so a relaxation
   reads them from one cache line. State (w, v) — at w, arrived from v
   — lives in the slot of v in w's row: relaxing slot j from v reaches
   state twin j, and state s is at the node of slot twin s. The start
   state takes the one slot past the rows. Full rows number each AD and
   each slot as itself (see [scratch] for the states an unkept src or
   dst adds). *)

module Dial = Pr_util.Dial

type rows = {
  full : rows;  (* the full rows these were cut from: full rows are their own *)
  dense : int array;  (* AD -> node, or -1 where unkept; empty on full rows *)
  off : int array;
  edge : int array;
}

let[@inline] node_at (e : int array) j = e.(4 * j)

let[@inline] twin_at (e : int array) j = e.((4 * j) + 1)

let[@inline] slot_at (e : int array) j = e.((4 * j) + 2)

let[@inline] ad_at (e : int array) j = e.((4 * j) + 3)

let set (e : int array) j ~node ~twin ~slot ~ad =
  e.(4 * j) <- node;
  e.((4 * j) + 1) <- twin;
  e.((4 * j) + 2) <- slot;
  e.((4 * j) + 3) <- ad

let of_csr ~off ~nbr =
  let n = Array.length off - 1 and m = Array.length nbr in
  if n < 0 || off.(0) <> 0 || off.(n) <> m then invalid_arg "Policy_search.of_csr: bad offsets";
  let asymmetric () = invalid_arg "Policy_search.of_csr: rows are not symmetric" in
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
  (* Bucket the slots (v -> w) by w: bucket entry i keeps the slot and
     v in the full-slot and AD words of slot i, which the last loop
     fills. Then, with [pos] mapping w's neighbors to their slots in row
     w, the twin of bucketed (v -> w) is [pos.(v)]. *)
  let edge = Array.make (4 * m) 0 and fill = Array.sub start 0 n in
  for v = 0 to n - 1 do
    for k = off.(v) to off.(v + 1) - 1 do
      let i = fill.(nbr.(k)) in
      set edge i ~node:0 ~twin:0 ~slot:k ~ad:v;
      fill.(nbr.(k)) <- i + 1
    done
  done;
  let pos = Array.make n (-1) in
  for w = 0 to n - 1 do
    for a = off.(w) to off.(w + 1) - 1 do
      pos.(nbr.(a)) <- a
    done;
    for i = start.(w) to start.(w + 1) - 1 do
      let t = pos.(ad_at edge i) in
      if t < 0 then asymmetric ();
      edge.((4 * slot_at edge i) + 1) <- t
    done;
    for a = off.(w) to off.(w + 1) - 1 do
      pos.(nbr.(a)) <- -1
    done
  done;
  for k = 0 to m - 1 do
    (* A duplicate neighbor leaves some slot unpaired. *)
    if twin_at edge (twin_at edge k) <> k then asymmetric ();
    set edge k ~node:nbr.(k) ~twin:(twin_at edge k) ~slot:k ~ad:nbr.(k)
  done;
  let rec r = { full = r; dense = [||]; off; edge } in
  r

let of_graph g =
  let off, nbr = Graph.unique_csr g in
  of_csr ~off ~nbr

let size r = Array.length r.off - 1

(* The AD's node, or -1 when it is not kept. *)
let node r ad = if r.full == r then ad else r.dense.(ad)

let kept r ad = node r ad >= 0

let iter_row r ad ~f =
  let i = node r ad in
  if i >= 0 then
    for j = r.off.(i) to r.off.(i + 1) - 1 do
      f (ad_at r.edge j) (slot_at r.edge j)
    done

let restrict r ~keep =
  let f = r.full in
  let n = size f in
  let dense = Array.make n (-1) and count = ref 0 in
  for u = 0 to n - 1 do
    if keep u then begin
      dense.(u) <- !count;
      incr count
    end
  done;
  (* A full slot is kept when it and its twin both lead to kept ADs. *)
  let m = Array.length f.edge / 4 and slots = ref 0 in
  for k = 0 to m - 1 do
    if dense.(ad_at f.edge k) >= 0 && dense.(ad_at f.edge (twin_at f.edge k)) >= 0 then incr slots
  done;
  let off = Array.make (!count + 1) 0 and edge = Array.make (4 * !slots) 0 in
  (* [at]: kept full slot -> its slot here. *)
  let at = Array.make m 0 and j = ref 0 in
  for u = 0 to n - 1 do
    let i = dense.(u) in
    if i >= 0 then begin
      for k = f.off.(u) to f.off.(u + 1) - 1 do
        let w = ad_at f.edge k in
        if dense.(w) >= 0 then begin
          set edge !j ~node:dense.(w) ~twin:0 ~slot:k ~ad:w;
          at.(k) <- !j;
          incr j
        end
      done;
      off.(i + 1) <- !j
    end
  done;
  for j = 0 to !slots - 1 do
    edge.((4 * j) + 1) <- at.(twin_at f.edge (slot_at edge j))
  done;
  { full = f; dense; off; edge }

(* Node-level Dijkstra toward [dst] over the rows: from [dst]'s node,
   or, when [dst] is not kept, from each kept neighbor at the metric of
   its edge to [dst]. Relaxing w's slot j to u prices the edge u -> w by
   its own full slot, that of the twin. An improved node is queued
   again under its new key; with metrics >= 0 a settled node is never
   improved, so the label doubles as the distance array and a finite
   label not yet settled is queued. *)
let[@inline] improve q h u d =
  if d < h.(u) then begin
    if h.(u) < max_int then Dial.remove q u;
    h.(u) <- d;
    Dial.push q u d ~lifo:false
  end

let lower_bound ?into r q ~dst ~metric =
  let f = r.full and off = r.off and edge = r.edge in
  let size = size r in
  let h =
    match into with
    | Some h ->
        Array.fill h 0 size max_int;
        h
    | None -> Array.make size max_int
  in
  Dial.reserve q size;
  if kept r dst then improve q h (node r dst) 0
  else
    for j = f.off.(dst) to f.off.(dst + 1) - 1 do
      let u = node r (ad_at f.edge j) in
      if u >= 0 then improve q h u metric.(twin_at f.edge j)
    done;
  while not (Dial.is_empty q) do
    let w = Dial.pop q in
    let d = h.(w) in
    for j = off.(w) to off.(w + 1) - 1 do
      improve q h (node_at edge j) (d + metric.(slot_at edge (twin_at edge j)))
    done
  done;
  h

module Lru = Pr_util.Lru

type labels = {
  mutable rows : rows;
  ring : Dial.t;
  cache : (int, int array) Lru.t;
  mutable builds : int;
}

let labels rows ~capacity =
  {
    rows;
    ring = Dial.create ();
    cache = Lru.create ~capacity:(Some capacity) ();
    builds = 0;
  }

let carrying l = l.rows

(* Every cached label is one word short of the new rows: drop them. *)
let join l ad =
  let r = l.rows in
  if not (kept r ad) then begin
    l.rows <- restrict r ~keep:(fun u -> u = ad || kept r u);
    Lru.clear l.cache
  end

(* A miss on a full cache builds into the array of the label its [put]
   is about to evict. *)
let label l ~key ~dst ~metric =
  match Lru.find l.cache key with
  | Some h -> h
  | None ->
      let into =
        match Lru.capacity l.cache with
        | Some c when Lru.length l.cache >= c -> Lru.oldest l.cache
        | _ -> None
      in
      let h = lower_bound ?into l.rows l.ring ~dst ~metric in
      l.builds <- l.builds + 1;
      ignore (Lru.put l.cache key h);
      h

let label_builds l = l.builds

let label_evictions l = Lru.evictions l.cache

(* A search walks the nodes and states of rows [r], and an unkept src
   or dst attaches per search: state [first], past the rows' slots, is
   at src; when src is not kept, its entries x in [0, src_len) list the
   slots of src's row to kept ADs (state [first] + 1 + x) and to dst;
   when dst is not kept, it is node [size r], every state from
   [dst_base] on is at dst, and each kept neighbor's slot to dst is one
   more entry, which a copy of that neighbor's row takes at its place
   in slot order, found through [dst_mark]/[dst_ix]. Entries are laid
   out as slots are, in [xe], the twin word holding the state the entry
   reaches. On full rows nothing attaches. *)
type scratch = {
  mutable dist : int array;
  mutable parent : int array;
  mutable reached : int array;  (* state -> generation whose dist is valid *)
  ring : Dial.t;  (* states, queued by path metric *)
  mutable touched : int array;  (* AD -> [touch] of its first touch *)
  mutable on_path : int array;  (* AD *)
  mutable avoided : int array;  (* AD -> [touch] when avoided *)
  mutable dst_mark : int array;  (* node -> [touch] when it neighbors an unkept dst *)
  mutable dst_ix : int array;  (* ... and then its row's first entry *)
  mutable xe : int array;
  mutable src_node : int;  (* -1 when src is not kept *)
  mutable dst_node : int;
  mutable src_len : int;
  mutable dst_base : int;
  mutable gen : int;  (* bumped per pass: stamps [reached], [on_path] *)
  mutable touch : int;  (* [gen] at the search's start: both passes share it *)
  mutable work : int;
  mutable bound_work : int;
}

(* The queue is Dial's ring of buckets: keys are integer path metrics,
   and every key queued lies within one edge metric (exact pass) or two
   (bound pass, whose bound is consistent) of the last pop. The exact
   pass appends, so a bucket pops in improvement order, and the bound
   pass prepends, so it pops the latest improvement first: the (key,
   seq) orders of a heap with FIFO and with LIFO ties. An improved
   state is removed from its old bucket, as a heap would decrease its
   key. A pass leaves its leftover states queued; the next one clears
   them ([Dial.reserve]). *)
let scratch () =
  {
    dist = [||];
    parent = [||];
    reached = [||];
    ring = Dial.create ();
    touched = [||];
    on_path = [||];
    avoided = [||];
    dst_mark = [||];
    dst_ix = [||];
    xe = [||];
    src_node = 0;
    dst_node = 0;
    src_len = 0;
    dst_base = max_int;
    gen = 0;
    touch = 0;
    work = 0;
    bound_work = 0;
  }

(* Grow to fit and open a new generation. Fresh stamp arrays hold 0,
   below every live generation. *)
let begin_search s ~states ~nodes ~ads ~entries =
  if Array.length s.dist < states then begin
    s.dist <- Array.make states 0;
    s.parent <- Array.make states 0;
    s.reached <- Array.make states 0
  end;
  Dial.reserve s.ring states;
  if Array.length s.dst_mark < nodes then begin
    s.dst_mark <- Array.make nodes 0;
    s.dst_ix <- Array.make nodes 0
  end;
  if Array.length s.touched < ads then begin
    s.touched <- Array.make ads 0;
    s.on_path <- Array.make ads 0;
    s.avoided <- Array.make ads 0
  end;
  if Array.length s.xe < 4 * entries then s.xe <- Array.make (4 * entries) 0;
  s.gen <- s.gen + 1;
  s.touch <- s.gen;
  s.work <- 0;
  s.bound_work <- 0

let shared = Domain.DLS.new_key scratch

let shared_scratch () = Domain.DLS.get shared

let first_touch s ad = s.touched.(ad) <> s.touch && (s.touched.(ad) <- s.touch; true)

let settled s = s.work

let bound_settled s = s.bound_work

type outcome = Route of Path.t | Revisits | Unreachable

let overflow () = invalid_arg "Policy_search.search: path metric overflow"

let never _ = false

(* One pass of the relaxation loop over the rows [r]; returns the
   settled destination state, or -1. A push whose d' + h(w) exceeds
   [cut] is skipped before admission; an empty [h] bounds nothing, and
   h is 0 at dst. The exact pass queues a push under d', ties popping
   in push order; the bound pass ([astar]) under d' + h(w), the latest
   push first, and lowers [cut] to each destination distance it
   pushes. A popped state at an AD [refuses] holds for, other than the
   start, relaxes nothing: admission would refuse every push it could
   make.

   A node's entries are its row's, with an entry to an unkept dst at
   its place in slot order: restricted rows leave out only slots to ADs
   with h = max_int, whose pushes are skipped anyway, so the pushes and
   their seqs are those of the full rows. *)
let pass s (r : rows) ~src ~dst ~metric ~admit ~refuses ~h ~astar ~cut =
  let off = r.off and edge = r.edge in
  let bounded = Array.length h > 0 and gen = s.gen in
  let dist = s.dist and parent = s.parent and reached = s.reached and avoided = s.avoided in
  let src_node = s.src_node and dst_node = s.dst_node in
  let first = Array.length edge / 4 and dst_base = s.dst_base and xe = s.xe in
  let dst_mark = s.dst_mark and touch = s.touch in
  let refusing = refuses != never in
  let final = ref (-1) and cut = ref cut in
  let e = ref edge and i = ref 0 and stop = ref 0 and ring = s.ring in
  Dial.reserve ring 0;
  dist.(first) <- 0;
  parent.(first) <- -1;
  reached.(first) <- gen;
  Dial.push ring first 0 ~lifo:astar;
  while !final < 0 && not (Dial.is_empty ring) do
    (* Metrics are >= 0, h is consistent and only strict improvements
       are queued, so a popped state is settled for good. *)
    let st = Dial.pop ring in
    s.work <- s.work + 1;
    (* The entry whose neighbor is the state's AD. *)
    let ae = if st < first then edge else xe
    and aj = if st < first then twin_at edge st else st - first - 1 in
    let at = if st = first then src_node else if st < dst_base then node_at ae aj else dst_node in
    if at = dst_node then final := st
    else begin
      let at_ad = if st = first then src else ad_at ae aj in
      if (not refusing) || st = first || not (refuses at_ad) then begin
        let d = dist.(st) in
        let from = if st < first then ad_at edge st else if st = first then -1 else src in
        (* The scan: [e] from [i] to [stop]. *)
        if at < 0 then begin
          (* The start at an unkept src: its entries are its row. *)
          e := xe;
          i := 0;
          stop := s.src_len
        end
        else if dst_mark.(at) = touch then begin
          (* A neighbor of an unkept dst: its row with the entry to dst. *)
          e := xe;
          i := s.dst_ix.(at);
          stop := !i + off.(at + 1) - off.(at) + 1
        end
        else begin
          e := edge;
          i := off.(at);
          stop := off.(at + 1)
        end;
        while !i < !stop do
          let e = !e and j = !i in
          incr i;
          let w = ad_at e j in
          if w <> src && (w = dst || avoided.(w) <> touch) then begin
            let c = metric at_ad w (slot_at e j) in
            let st' = twin_at e j and d' = d + c in
            if c >= 0 && (reached.(st') <> gen || d' < dist.(st')) then begin
              let hw = if (not bounded) || w = dst then 0 else h.(node_at e j) in
              (* Admission last: it is the dearest check, and pure. *)
              if hw <> max_int && hw <= !cut - d' && (st = first || admit at_ad from w) then begin
                let f = if astar then d' + hw else d' in
                if d' < d || f < d' then overflow ();
                if astar && w = dst then cut := d';
                if reached.(st') = gen && Dial.key ring st' >= 0 then Dial.remove ring st';
                reached.(st') <- gen;
                dist.(st') <- d';
                parent.(st') <- st;
                Dial.push ring st' f ~lifo:astar
              end
            end
          end
        done
      end
    end
  done;
  !final

let rec mark_avoided s n = function
  | [] -> ()
  | a :: rest ->
      if a >= 0 && a < n then s.avoided.(a) <- s.touch;
      mark_avoided s n rest

(* Attach an unkept src and dst to the rows (see [scratch]) and stamp
   the avoided ADs; it runs on every search, so it makes no closure. *)
let attach s r ~src ~dst ~avoid =
  let f = r.full and first = Array.length r.edge / 4 in
  let src_node = node r src and dst_node = if kept r dst then node r dst else size r in
  let deg_src = f.off.(src + 1) - f.off.(src) and deg_dst = f.off.(dst + 1) - f.off.(dst) in
  let merged = ref 0 in
  if not (kept r dst) then
    for j = f.off.(dst) to f.off.(dst + 1) - 1 do
      let a = node r (ad_at f.edge j) in
      if a >= 0 then merged := !merged + r.off.(a + 1) - r.off.(a) + 1
    done;
  begin_search s ~states:(first + 1 + deg_src + deg_dst) ~nodes:(size r + 1) ~ads:(size f)
    ~entries:(deg_src + !merged);
  let dst_base = if src_node < 0 then first + 1 + deg_src else first + 1 in
  let xe = s.xe and e = ref 0 in
  if src_node < 0 then
    for k = f.off.(src) to f.off.(src + 1) - 1 do
      let w = ad_at f.edge k in
      let a = node r w in
      if a >= 0 || w = dst then begin
        let state = if a >= 0 then first + 1 + !e else dst_base + twin_at f.edge k - f.off.(dst) in
        set xe !e ~node:(if a >= 0 then a else dst_node) ~twin:state ~slot:k ~ad:w;
        incr e
      end
    done;
  s.src_len <- !e;
  if not (kept r dst) then
    for j = f.off.(dst) to f.off.(dst + 1) - 1 do
      let a = node r (ad_at f.edge j) in
      if a >= 0 then begin
        let k = twin_at f.edge j and lo = r.off.(a) and hi = r.off.(a + 1) in
        let split = ref lo in
        while !split < hi && slot_at r.edge !split < k do
          incr split
        done;
        s.dst_mark.(a) <- s.touch;
        s.dst_ix.(a) <- !e;
        Array.blit r.edge (4 * lo) xe (4 * !e) (4 * (!split - lo));
        e := !e + !split - lo;
        set xe !e ~node:dst_node ~twin:(dst_base + j - f.off.(dst)) ~slot:k ~ad:dst;
        Array.blit r.edge (4 * !split) xe (4 * (!e + 1)) (4 * (hi - !split));
        e := !e + 1 + hi - !split
      end
    done;
  mark_avoided s (size f) avoid;
  s.src_node <- src_node;
  s.dst_node <- dst_node;
  s.dst_base <- dst_base

let search s rows ~src ~dst ?(avoid = []) ?lower ?(refuses = never) ~metric ~admit () =
  attach s rows ~src ~dst ~avoid;
  if src = dst then Route [ src ]
  else begin
    let final =
      match lower with
      | None -> pass s rows ~src ~dst ~metric ~admit ~refuses ~h:[||] ~astar:false ~cut:max_int
      | Some h ->
          if Array.length h < size rows then
            invalid_arg "Policy_search.search: lower bound shorter than the rows";
          (* Pass 1 learns the optimum D*; pass 2 replays the exact
             order over the states that can still meet it. *)
          let goal = pass s rows ~src ~dst ~metric ~admit ~refuses ~h ~astar:true ~cut:max_int in
          s.bound_work <- s.work;
          if goal < 0 then -1
          else begin
            let best = s.dist.(goal) in
            s.gen <- s.gen + 1;
            pass s rows ~src ~dst ~metric ~admit ~refuses ~h ~astar:false ~cut:best
          end
    in
    if final < 0 then Unreachable
    else begin
      let gen = s.gen and first = Array.length rows.edge / 4 in
      let path = ref [] and simple = ref true and st = ref final in
      while !st >= 0 do
        let ad =
          if !st < first then ad_at rows.edge (twin_at rows.edge !st)
          else if !st = first then src
          else if !st < s.dst_base then ad_at s.xe (!st - first - 1)
          else dst
        in
        if s.on_path.(ad) = gen then simple := false;
        s.on_path.(ad) <- gen;
        path := ad :: !path;
        st := s.parent.(!st)
      done;
      if !simple then Route !path else Revisits
    end
  end

let enumerate s r ~src ~dst ~max_hops ~limit ~admit =
  begin_search s ~states:0 ~nodes:0 ~ads:(size r.full) ~entries:0;
  let gen = s.gen and on_path = s.on_path and off = r.off and edge = r.edge in
  let results = ref [] and count = ref 0 in
  let rec go i u prev prefix_rev depth =
    if !count < limit then
      if u = dst then begin
        incr count;
        results := List.rev (dst :: prefix_rev) :: !results
      end
      else if depth < max_hops then
        for j = off.(i) to off.(i + 1) - 1 do
          let w = ad_at edge j in
          if on_path.(w) <> gen && (u = src || admit u prev w) then begin
            on_path.(w) <- gen;
            go (node_at edge j) w u (u :: prefix_rev) (depth + 1);
            on_path.(w) <- 0
          end
        done
  in
  if src = dst then [ [ src ] ]
  else if not (kept r src) then []
  else begin
    on_path.(src) <- gen;
    go (node r src) src (-1) [] 0;
    List.rev !results
  end
