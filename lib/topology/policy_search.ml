(* Policy-constrained route search (see policy_search.mli).

   State (w, v) — at w, arrived from v — lives in the slot of v in w's
   row. [twin] maps the slot of (v -> w) in v's row to the slot of
   (w -> v) in w's row: relaxing slot k from v reaches state
   [twin.(k)], and state slot s is at AD [nbr.(twin.(s))]. The start
   state takes the one slot past the rows. Dense rows number their
   nodes and slots the same way (see [scratch] for the states an
   unkept src or dst adds). *)

module Dial = Pr_util.Dial

type view = { off : int array; nbr : int array; twin : int array }

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
    done
  done;
  (* A duplicate neighbor leaves some slot unpaired. *)
  Array.iteri (fun k t -> if twin.(t) <> k then asymmetric ()) twin;
  { off; nbr; twin }

let of_graph g =
  let off, nbr = Graph.unique_csr g in
  of_csr ~off ~nbr

let iter_row v ad ~f =
  for k = v.off.(ad) to v.off.(ad + 1) - 1 do
    f v.nbr.(k) k
  done

(* The dense view of a kept set: kept AD u is node [dense.(u)], nodes
   number the kept ADs in increasing order and [ads] maps them back.
   Node i's row is dense slots off.(i) .. off.(i+1) - 1, one per kept
   neighbor in view slot order: the neighbor's node [nbr], the slot of
   the reverse edge [twin] and the view slot [slot]. *)
type rows = {
  view : view;
  dense : int array;
  ads : int array;
  off : int array;
  nbr : int array;
  twin : int array;
  slot : int array;
}

let restrict (v : view) ~keep =
  let n = Array.length v.off - 1 in
  let dense = Array.make n (-1) and count = ref 0 in
  for u = 0 to n - 1 do
    if keep u then begin
      dense.(u) <- !count;
      incr count
    end
  done;
  let ads = Array.make !count 0 and off = Array.make (!count + 1) 0 in
  for u = 0 to n - 1 do
    let i = dense.(u) in
    if i >= 0 then begin
      ads.(i) <- u;
      let len = ref 0 in
      for k = v.off.(u) to v.off.(u + 1) - 1 do
        if dense.(v.nbr.(k)) >= 0 then incr len
      done;
      off.(i + 1) <- off.(i) + !len
    end
  done;
  let slots = off.(!count) in
  let nbr = Array.make slots 0 and slot = Array.make slots 0 in
  (* [at]: view slot between two kept ADs -> its dense slot. *)
  let at = Array.make (Array.length v.nbr) 0 and j = ref 0 in
  Array.iter
    (fun u ->
      for k = v.off.(u) to v.off.(u + 1) - 1 do
        let w = dense.(v.nbr.(k)) in
        if w >= 0 then begin
          nbr.(!j) <- w;
          slot.(!j) <- k;
          at.(k) <- !j;
          incr j
        end
      done)
    ads;
  let twin = Array.map (fun k -> at.(v.twin.(k))) slot in
  { view = v; dense; ads; off; nbr; twin; slot }

let kept r ad = r.dense.(ad) >= 0

let size r = Array.length r.ads

(* Node-level Dijkstra toward [dst] over the dense rows: from [dst]'s
   node, or, when [dst] is not kept, from each kept neighbor at the
   metric of its edge to [dst]. Relaxing w's dense slot j to u prices
   the edge u -> w by its own view slot, [slot.(twin.(j))]. An improved
   node is queued again under its new key; with metrics >= 0 a settled
   node is never improved, so the label doubles as the distance array
   and a finite label not yet settled is queued. *)
let[@inline] improve q h u d =
  if d < h.(u) then begin
    if h.(u) < max_int then Dial.remove q u;
    h.(u) <- d;
    Dial.push q u d ~lifo:false
  end

let lower_bound ?into (r : rows) q ~dst ~metric =
  let v = r.view and off = r.off and nbr = r.nbr and twin = r.twin and slot = r.slot in
  let size = size r in
  let h =
    match into with
    | Some h ->
        Array.fill h 0 size max_int;
        h
    | None -> Array.make size max_int
  in
  Dial.reserve q size;
  if kept r dst then improve q h r.dense.(dst) 0
  else
    for j = v.off.(dst) to v.off.(dst + 1) - 1 do
      let u = r.dense.(v.nbr.(j)) in
      if u >= 0 then improve q h u metric.(v.twin.(j))
    done;
  while not (Dial.is_empty q) do
    let w = Dial.pop q in
    let d = h.(w) in
    for j = off.(w) to off.(w + 1) - 1 do
      improve q h nbr.(j) (d + metric.(slot.(twin.(j))))
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

(* Every cached label is one word short of the new view: drop them. *)
let join l ad =
  let r = l.rows in
  if not (kept r ad) then begin
    l.rows <- restrict r.view ~keep:(fun u -> u = ad || kept r u);
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

(* A search walks the nodes and states of dense rows [r], and an
   unkept src or dst attaches per search: state [first] is at src;
   when src is not kept, its entries x in [0, src_len) list the slots
   of src's row to kept ADs (state [first] + 1 + x) and to dst; when
   dst is not kept, it is node [size r], every state from [dst_base] on
   is at dst, and each kept neighbor's slot to dst is one more entry,
   found through [dst_mark]/[dst_ix]. An entry holds its view slot
   [xk], node [xw] and state [xst]. On full rows nothing attaches. *)
type scratch = {
  mutable dist : int array;
  mutable parent : int array;
  mutable reached : int array;  (* state -> generation whose dist is valid *)
  ring : Dial.t;  (* states, queued by path metric *)
  mutable touched : int array;  (* AD -> [touch] of its first touch *)
  mutable on_path : int array;  (* AD *)
  mutable avoided : int array;  (* node *)
  mutable dst_mark : int array;  (* node -> [touch] when it neighbors an unkept dst *)
  mutable dst_ix : int array;  (* ... and then its entry *)
  mutable xk : int array;
  mutable xw : int array;
  mutable xst : int array;
  mutable src_node : int;  (* -1 when src is not kept *)
  mutable dst_node : int;
  mutable first : int;
  mutable src_len : int;
  mutable dst_base : int;
  mutable gen : int;  (* bumped per pass: stamps [reached], [avoided], [on_path] *)
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
    xk = [||];
    xw = [||];
    xst = [||];
    src_node = 0;
    dst_node = 0;
    first = 0;
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
  if Array.length s.avoided < nodes then begin
    s.avoided <- Array.make nodes 0;
    s.dst_mark <- Array.make nodes 0;
    s.dst_ix <- Array.make nodes 0
  end;
  if Array.length s.touched < ads then begin
    s.touched <- Array.make ads 0;
    s.on_path <- Array.make ads 0
  end;
  if Array.length s.xk < entries then begin
    s.xk <- Array.make entries 0;
    s.xw <- Array.make entries 0;
    s.xst <- Array.make entries 0
  end;
  s.gen <- s.gen + 1;
  s.touch <- s.gen;
  s.work <- 0;
  s.bound_work <- 0

let begin_view s (v : view) =
  let n = Array.length v.off - 1 in
  begin_search s ~states:(Array.length v.nbr + 1) ~nodes:n ~ads:n ~entries:0

let scratch_for v =
  let s = scratch () in
  begin_view s v;
  s

let shared = Domain.DLS.new_key scratch

let shared_scratch () = Domain.DLS.get shared

let first_touch s ad = s.touched.(ad) <> s.touch && (s.touched.(ad) <- s.touch; true)

let settled s = s.work

let bound_settled s = s.bound_work

type outcome = Route of Path.t | Revisits | Unreachable

let overflow () = invalid_arg "Policy_search.search: path metric overflow"

let never _ = false

(* Stamp the avoided ADs' nodes, those of them that are kept. *)
let rec mark_avoided avoided gen dense = function
  | [] -> ()
  | a :: rest ->
      if a >= 0 && a < Array.length dense && dense.(a) >= 0 then avoided.(dense.(a)) <- gen;
      mark_avoided avoided gen dense rest

(* One pass of the relaxation loop over the rows [r]; returns the
   settled destination state, or -1. A push whose d' + h(w) exceeds
   [cut] is skipped before admission; an empty [h] bounds nothing, and
   h is 0 at dst. The exact pass queues a push under d', ties popping
   in push order; the bound pass ([astar]) under d' + h(w), the latest
   push first, and lowers [cut] to each destination distance it
   pushes. A popped state at an AD [refuses] holds for, other than the
   start, relaxes nothing: admission would refuse every push it could
   make.

   A node's entries are its row's, merged by view slot with its
   attachment entries: restricted rows leave out only slots to ADs
   with h = max_int, whose pushes are skipped anyway, so the pushes and
   their seqs are those of the full rows. *)
let pass s (r : rows) ~src ~dst ~avoid ~metric ~admit ~refuses ~h ~astar ~cut =
  let off = r.off and nbr = r.nbr and twin = r.twin and slot = r.slot and ads = r.ads in
  let bounded = Array.length h > 0 and gen = s.gen in
  let dist = s.dist and parent = s.parent and reached = s.reached and avoided = s.avoided in
  let src_node = s.src_node and dst_node = s.dst_node in
  let first = s.first and dst_base = s.dst_base in
  let xk = s.xk and xw = s.xw and xst = s.xst in
  let merge_dst = not (kept r dst) and dst_mark = s.dst_mark and touch = s.touch in
  let refusing = refuses != never in
  mark_avoided avoided gen r.dense avoid;
  let final = ref (-1) and cut = ref cut in
  let i = ref 0 and stop = ref 0 and x = ref 0 and xstop = ref 0 in
  let ew = ref 0 and ek = ref 0 and est = ref 0 and ring = s.ring in
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
    let at =
      if st < first then nbr.(twin.(st))
      else if st = first then src_node
      else if st < dst_base then xw.(st - first - 1)
      else dst_node
    in
    if at = dst_node then final := st
    else begin
      let at_ad = if at >= 0 then ads.(at) else src in
      if (not refusing) || st = first || not (refuses at_ad) then begin
        let d = dist.(st) in
        let from = if st < first then ads.(nbr.(st)) else if st = first then -1 else src in
        if at >= 0 then begin
          let merge = merge_dst && dst_mark.(at) = touch in
          i := off.(at);
          stop := off.(at + 1);
          x := if merge then s.dst_ix.(at) else 0;
          xstop := if merge then !x + 1 else 0
        end
        else begin
          (* The start at an unkept src: its entries are its row. *)
          i := 0;
          stop := 0;
          x := 0;
          xstop := s.src_len
        end;
        while !i < !stop || !x < !xstop do
          if !x < !xstop && not (!i < !stop && slot.(!i) < xk.(!x)) then begin
            ew := xw.(!x);
            ek := xk.(!x);
            est := xst.(!x);
            incr x
          end
          else begin
            ew := nbr.(!i);
            ek := slot.(!i);
            est := twin.(!i);
            incr i
          end;
          let w = !ew in
          if w <> src_node && (w = dst_node || avoided.(w) <> gen) then begin
            let w_ad = if w = dst_node then dst else ads.(w) in
            let c = metric at_ad w_ad !ek in
            let st' = !est and d' = d + c in
            if c >= 0 && (reached.(st') <> gen || d' < dist.(st')) then begin
              let hw = if (not bounded) || w = dst_node then 0 else h.(w) in
              (* Admission last: it is the dearest check, and pure. *)
              if hw <> max_int && hw <= !cut - d' && (st = first || admit at_ad from w_ad) then begin
                let f = if astar then d' + hw else d' in
                if d' < d || f < d' then overflow ();
                if astar && w = dst_node then cut := d';
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

(* Attach an unkept src and dst to the rows (see [scratch]). *)
let attach s r ~src ~dst =
  let v = r.view and size = size r and first = Array.length r.nbr in
  let src_node = r.dense.(src) and dst_node = if kept r dst then r.dense.(dst) else size in
  let deg u = v.off.(u + 1) - v.off.(u) in
  begin_search s ~states:(first + 1 + deg src + deg dst) ~nodes:(size + 1)
    ~ads:(Array.length v.off - 1) ~entries:(deg src + deg dst);
  let dst_base = if src_node < 0 then first + 1 + deg src else first + 1 in
  let e = ref 0 in
  if src_node < 0 then
    for k = v.off.(src) to v.off.(src + 1) - 1 do
      let w = v.nbr.(k) in
      if kept r w || w = dst then begin
        s.xk.(!e) <- k;
        s.xw.(!e) <- (if kept r w then r.dense.(w) else dst_node);
        s.xst.(!e) <- (if kept r w then first + 1 + !e else dst_base + v.twin.(k) - v.off.(dst));
        incr e
      end
    done;
  s.src_len <- !e;
  if not (kept r dst) then
    for j = v.off.(dst) to v.off.(dst + 1) - 1 do
      let a = r.dense.(v.nbr.(j)) in
      if a >= 0 then begin
        s.xk.(!e) <- v.twin.(j);
        s.xw.(!e) <- dst_node;
        s.xst.(!e) <- dst_base + j - v.off.(dst);
        s.dst_mark.(a) <- s.touch;
        s.dst_ix.(a) <- !e;
        incr e
      end
    done;
  s.src_node <- src_node;
  s.dst_node <- dst_node;
  s.first <- first;
  s.dst_base <- dst_base

let search s rows ~src ~dst ?(avoid = []) ?lower ?(refuses = never) ~metric ~admit () =
  attach s rows ~src ~dst;
  if src = dst then Route [ src ]
  else begin
    let final =
      match lower with
      | None -> pass s rows ~src ~dst ~avoid ~metric ~admit ~refuses ~h:[||] ~astar:false ~cut:max_int
      | Some h ->
          if Array.length h < size rows then
            invalid_arg "Policy_search.search: lower bound shorter than the rows";
          (* Pass 1 learns the optimum D*; pass 2 replays the exact
             order over the states that can still meet it. *)
          let goal = pass s rows ~src ~dst ~avoid ~metric ~admit ~refuses ~h ~astar:true ~cut:max_int in
          s.bound_work <- s.work;
          if goal < 0 then -1
          else begin
            let best = s.dist.(goal) in
            s.gen <- s.gen + 1;
            pass s rows ~src ~dst ~avoid ~metric ~admit ~refuses ~h ~astar:false ~cut:best
          end
    in
    if final < 0 then Unreachable
    else begin
      let gen = s.gen and first = s.first in
      let path = ref [] and simple = ref true and st = ref final in
      while !st >= 0 do
        let ad =
          if !st < first then rows.ads.(rows.nbr.(rows.twin.(!st)))
          else if !st = first then src
          else if !st < s.dst_base then rows.ads.(s.xw.(!st - first - 1))
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

let enumerate s (v : view) ~src ~dst ~max_hops ~limit ~admit =
  begin_view s v;
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
