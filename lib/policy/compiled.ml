module Bitset = Pr_util.Bitset

(* A compiled AD predicate: membership bits over the AD universe plus a
   complement flag. [Any] is the complement of the empty set, [Except]
   the complement of its listed ids — one representation, one probe. *)
type pred = { bits : Bitset.t; compl : bool }

type cterm = {
  src : pred;
  dst : pred;
  prev : pred;
  next : pred;
  qos_mask : int;  (* bit per Qos.index *)
  uci_mask : int;  (* bit per Uci.index *)
  hour_mask : int;  (* bit per hour of day, 24 bits *)
  auth_required : bool;
}

type t = {
  n : int;
  cterms : cterm array;
  terms : Policy_term.t array;  (* source terms, same order as cterms *)
  qos_union : int;  (* union of all qos_masks: which QOS the AD carries at all *)
}

let compile_pred n = function
  | Policy_term.Any -> { bits = Bitset.create n; compl = true }
  | Policy_term.Only ids ->
    let bits = Bitset.create n in
    Array.iter (fun id -> if id >= 0 && id < n then Bitset.add bits id) ids;
    { bits; compl = false }
  | Policy_term.Except ids ->
    let bits = Bitset.create n in
    Array.iter (fun id -> if id >= 0 && id < n then Bitset.add bits id) ids;
    { bits; compl = true }

let qos_mask qos = List.fold_left (fun m q -> m lor (1 lsl Qos.index q)) 0 qos

let uci_mask ucis = List.fold_left (fun m u -> m lor (1 lsl Uci.index u)) 0 ucis

let full_day = (1 lsl 24) - 1

let hour_mask = function
  | None -> full_day
  | Some (h1, h2) ->
    if h1 < h2 then ((1 lsl (h2 - h1)) - 1) lsl h1
    else if h1 = h2 then 0 (* empty window; unreachable via Policy_term.make *)
    else (((1 lsl (24 - h1)) - 1) lsl h1) lor ((1 lsl h2) - 1)

let compile_term n (t : Policy_term.t) =
  {
    src = compile_pred n t.Policy_term.sources;
    dst = compile_pred n t.Policy_term.destinations;
    prev = compile_pred n t.Policy_term.prev_hops;
    next = compile_pred n t.Policy_term.next_hops;
    qos_mask = qos_mask t.Policy_term.qos;
    uci_mask = uci_mask t.Policy_term.ucis;
    hour_mask = hour_mask t.Policy_term.hours;
    auth_required = t.Policy_term.auth_required;
  }

let compile ~n terms =
  let terms = Array.of_list terms in
  let cterms = Array.map (compile_term n) terms in
  let qos_union = Array.fold_left (fun m ct -> m lor ct.qos_mask) 0 cterms in
  { n; cterms; terms; qos_union }

let term_count t = Array.length t.cterms

type term_view = {
  v_src : pred;
  v_dst : pred;
  v_prev : pred;
  v_next : pred;
  v_qos_mask : int;
  v_uci_mask : int;
  v_hour_mask : int;
  v_auth_required : bool;
}

let term_views t =
  Array.map
    (fun ct ->
      {
        v_src = ct.src;
        v_dst = ct.dst;
        v_prev = ct.prev;
        v_next = ct.next;
        v_qos_mask = ct.qos_mask;
        v_uci_mask = ct.uci_mask;
        v_hour_mask = ct.hour_mask;
        v_auth_required = ct.auth_required;
      })
    t.cterms

(* Ids outside [0, n) carry no bit: they are outside every [Only] and
   outside every [Except] list, exactly as the interpreted List.mem. *)
let probe p ad = (ad >= 0 && ad < Bitset.capacity p.bits && Bitset.mem p.bits ad) <> p.compl

(* A negative hop is unknown — the flow enters or leaves the internet
   at this AD — and every hop predicate admits it. *)
let hop_probe p ad = ad < 0 || probe p ad

let hop = function None -> -1 | Some ad -> ad

(* Does the term pass the class conditions (qos, uci, hour, auth) and
   the destination? [qbit]/[ubit]/[hbit] are the flow's mask bits. *)
let class_passes ct ~qbit ~ubit ~hbit ~auth ~dst =
  ct.qos_mask land qbit <> 0
  && ct.uci_mask land ubit <> 0
  && ct.hour_mask land hbit <> 0
  && ((not ct.auth_required) || auth)
  && probe ct.dst dst

(* ... and every other flow-only condition: the source. *)
let flow_passes ct (f : Flow.t) ~qbit ~ubit ~hbit =
  class_passes ct ~qbit ~ubit ~hbit ~auth:f.Flow.authenticated ~dst:f.Flow.dst
  && probe ct.src f.Flow.src

(* Index of the first term admitting the crossing, or the term count. *)
let first_admitting t (f : Flow.t) ~prev ~next =
  let qbit = 1 lsl Qos.index f.Flow.qos
  and ubit = 1 lsl Uci.index f.Flow.uci
  and hbit = 1 lsl f.Flow.hour in
  let k = Array.length t.cterms in
  let i = ref 0 in
  while
    !i < k
    && not
         (let ct = Array.unsafe_get t.cterms !i in
          flow_passes ct f ~qbit ~ubit ~hbit && hop_probe ct.prev prev && hop_probe ct.next next)
  do
    incr i
  done;
  !i

let allows_crossing t f ~prev ~next = first_admitting t f ~prev ~next < Array.length t.cterms

let allows t (ctx : Policy_term.transit_ctx) =
  allows_crossing t ctx.Policy_term.flow ~prev:(hop ctx.Policy_term.prev)
    ~next:(hop ctx.Policy_term.next)

let admitting_term t (ctx : Policy_term.transit_ctx) =
  let i =
    first_admitting t ctx.Policy_term.flow ~prev:(hop ctx.Policy_term.prev)
      ~next:(hop ctx.Policy_term.next)
  in
  if i < Array.length t.terms then Some t.terms.(i) else None

(* Per-flow specialization: resolve every flow-only condition (src,
   dst, qos, uci, hour, auth) once, keeping just the prev/next preds of
   the surviving terms. The inner-loop check is then two bitset probes
   per term with zero allocation. *)
type spec = { s_prev : pred array; s_next : pred array }

let specialize t (f : Flow.t) =
  let qbit = 1 lsl Qos.index f.Flow.qos
  and ubit = 1 lsl Uci.index f.Flow.uci
  and hbit = 1 lsl f.Flow.hour in
  let live = Array.to_list t.cterms |> List.filter (fun ct -> flow_passes ct f ~qbit ~ubit ~hbit) in
  {
    s_prev = Array.of_list (List.map (fun ct -> ct.prev) live);
    s_next = Array.of_list (List.map (fun ct -> ct.next) live);
  }

let spec_allows s ~prev ~next =
  let k = Array.length s.s_prev in
  let i = ref 0 in
  while
    !i < k
    && not
         (hop_probe (Array.unsafe_get s.s_prev !i) prev
         && hop_probe (Array.unsafe_get s.s_next !i) next)
  do
    incr i
  done;
  !i < k

let supports_qos t q = t.qos_union land (1 lsl Qos.index q) <> 0

let dest_allowed t dst q =
  let qbit = 1 lsl Qos.index q in
  let k = Array.length t.cterms in
  let i = ref 0 in
  while
    !i < k
    && not
         (let ct = Array.unsafe_get t.cterms !i in
          ct.qos_mask land qbit <> 0 && probe ct.dst dst)
  do
    incr i
  done;
  !i < k

let admitted_sources_into t acc ~dst ~qos ~uci ~hour ~auth ~prev ~next =
  let qbit = 1 lsl Qos.index qos
  and ubit = 1 lsl Uci.index uci
  and hbit = 1 lsl hour in
  Array.iter
    (fun ct ->
      if
        class_passes ct ~qbit ~ubit ~hbit ~auth ~dst
        && hop_probe ct.prev (hop prev)
        && hop_probe ct.next (hop next)
      then
        if ct.src.compl then Bitset.union_compl_into acc ct.src.bits
        else Bitset.union_into acc ct.src.bits)
    t.cterms
