(* LRU cache: Hashtbl + intrusive doubly-linked recency list.  The
   list head is most-recently-used, the tail least-recently-used; every
   operation is O(1).  Victim choice is deterministic (strict recency
   order), which the simulation relies on for replayable runs. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option; (* towards head / MRU *)
  mutable next : ('k, 'v) node option; (* towards tail / LRU *)
}

type ('k, 'v) t = {
  capacity : int option;
  mutable tbl : ('k, ('k, 'v) node) Hashtbl.t option;  (* made by the first [put] *)
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable evictions : int;
}

let create ?(capacity = None) () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Lru.create: capacity < 1"
  | _ -> ());
  { capacity; tbl = None; head = None; tail = None; evictions = 0 }

(* A cache that was never written has no table: most of the ones a
   simulation makes per AD never are. *)
let table t =
  match t.tbl with
  | Some h -> h
  | None ->
      let h = Hashtbl.create (match t.capacity with Some c -> min c 64 | None -> 16) in
      t.tbl <- Some h;
      h

let find_node t k = match t.tbl with Some h -> Hashtbl.find_opt h k | None -> None

let capacity t = t.capacity
let length t = match t.tbl with Some h -> Hashtbl.length h | None -> 0
let mem t k = match t.tbl with Some h -> Hashtbl.mem h k | None -> false
let evictions t = t.evictions

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let touch t node =
  match node.prev with
  | None -> () (* already MRU *)
  | Some _ ->
      unlink t node;
      push_front t node

let peek t k =
  match find_node t k with Some n -> Some n.value | None -> None

let find t k =
  match find_node t k with
  | Some n ->
      touch t n;
      Some n.value
  | None -> None

let oldest t = match t.tail with Some n -> Some n.value | None -> None

let evict_lru t =
  match t.tail with
  | None -> None
  | Some victim ->
      unlink t victim;
      Hashtbl.remove (table t) victim.key;
      t.evictions <- t.evictions + 1;
      Some victim.key

let put t k v =
  let tbl = table t in
  match Hashtbl.find_opt tbl k with
  | Some n ->
      n.value <- v;
      touch t n;
      None
  | None ->
      let evicted =
        match t.capacity with
        | Some c when Hashtbl.length tbl >= c -> evict_lru t
        | _ -> None
      in
      let node = { key = k; value = v; prev = None; next = None } in
      push_front t node;
      Hashtbl.replace tbl k node;
      evicted

let remove t k =
  match find_node t k with
  | Some n ->
      unlink t n;
      Hashtbl.remove (table t) k
  | None -> ()

let clear t =
  Option.iter Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None

let fold t ~init ~f =
  let rec go acc = function
    | None -> acc
    | Some n -> go (f acc n.key n.value) n.next
  in
  go init t.head

let self_check t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let n = length t in
  let rec walk seen prev cur =
    match cur with
    | None ->
        if (match t.tail, prev with
            | None, None -> true
            | Some a, Some b -> a == b
            | _ -> false)
        then if seen = n then Ok () else err "list holds %d entries, table %d" seen n
        else err "tail pointer does not match last list node"
    | Some node ->
        if seen > n then err "recency list longer than table (cycle?)"
        else if not ((match node.prev, prev with
                      | None, None -> true
                      | Some a, Some b -> a == b
                      | _ -> false)) then err "broken back-link at entry %d" seen
        else if
          match find_node t node.key with
          | Some n' -> n' != node
          | None -> true
        then err "table disagrees with list at entry %d" seen
        else walk (seen + 1) cur node.next
  in
  match t.capacity with
  | Some c when n > c -> err "length %d exceeds capacity %d" n c
  | _ -> walk 0 None t.head
