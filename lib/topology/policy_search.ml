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

type scratch = {
  mutable dist : int array;
  mutable parent : int array;
  mutable reached : int array;  (* slot -> generation whose dist is valid *)
  mutable q : Keyed.t;
  mutable touched : int array;  (* AD -> [touch] of its first touch *)
  mutable avoided : int array;
  mutable on_path : int array;
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
    s.on_path <- Array.make n 0
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
   lowers [cut] to each destination distance it pushes. *)
let pass s v ~src ~dst ~avoid ~metric ~admit ~h ~astar ~cut =
  let bounded = Array.length h > 0 and gen = s.gen and off = v.off and nbr = v.nbr and twin = v.twin in
  let dist = s.dist and parent = s.parent and reached = s.reached in
  let avoided = s.avoided and q = s.q and bits = v.seq_bits in
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
      for k = off.(at) to off.(at + 1) - 1 do
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

let search s v ~src ~dst ?(avoid = []) ?lower ~metric ~admit () =
  begin_search s v;
  if src = dst then Route [ src ]
  else begin
    let final =
      match lower with
      | None ->
          pass s v ~src ~dst ~avoid ~metric ~admit ~h:[||] ~astar:false ~cut:max_int
      | Some h ->
          if Array.length h < Array.length v.off - 1 then
            invalid_arg "Policy_search.search: lower bound shorter than the view";
          (* Pass 1 learns the optimum D*; pass 2 replays the exact
             order over the states that can still meet it. *)
          let goal = pass s v ~src ~dst ~avoid ~metric ~admit ~h ~astar:true ~cut:max_int in
          s.bound_work <- s.work;
          if goal < 0 then -1
          else begin
            let best = s.dist.(goal) in
            s.gen <- s.gen + 1;
            pass s v ~src ~dst ~avoid ~metric ~admit ~h ~astar:false ~cut:best
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
