type t = Ad.id list

let source = function
  | [] -> invalid_arg "Path.source: empty path"
  | x :: _ -> x

let rec destination = function
  | [] -> invalid_arg "Path.destination: empty path"
  | [ x ] -> x
  | _ :: rest -> destination rest

let hops p = Stdlib.max 0 (List.length p - 1)

let is_loop_free p =
  let sorted = List.sort compare p in
  let rec no_dup = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a <> b && no_dup rest
  in
  no_dup sorted

let cost g p =
  let rec sum acc = function
    | [] | [ _ ] -> Some acc
    | a :: (b :: _ as rest) -> (
      match Graph.find_link g a b with
      | None -> None
      | Some lid -> sum (acc + (Graph.link g lid).Link.cost) rest)
  in
  sum 0 p

let is_valid g p =
  match p with
  | [] -> false
  | _ -> is_loop_free p && cost g p <> None

let rec successor_on p at =
  match p with
  | [] | [ _ ] -> None
  | x :: (y :: _ as rest) -> if x = at then Some y else successor_on rest at

let transit_ads = function
  | [] | [ _ ] -> []
  | _ :: rest -> (
    match List.rev rest with
    | [] -> []
    | _ :: interior_rev -> List.rev interior_rev)

let pp ppf p =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "->")
    Format.pp_print_int ppf p

let to_string p = String.concat "->" (List.map string_of_int p)

let equal a b = a = b

let enumerate_simple g ~src ~dst ~max_hops ?(edge_ok = fun _ _ -> true)
    ?(node_ok = fun _ -> true) ?(limit = 10_000) () =
  let results = ref [] in
  let count = ref 0 in
  let on_path = Array.make (Graph.n g) false in
  (* DFS over neighbors in increasing id order for determinism. *)
  let rec go u prefix_rev depth =
    if !count < limit then
      if u = dst then begin
        incr count;
        results := List.rev (dst :: prefix_rev) :: !results
      end
      else if depth < max_hops then
        Graph.iter_neighbor_ids g u ~f:(fun v ->
            if (not on_path.(v)) && edge_ok u v && (v = dst || node_ok v) then begin
              on_path.(v) <- true;
              go v (u :: prefix_rev) (depth + 1);
              on_path.(v) <- false
            end)
  in
  if src = dst then [ [ src ] ]
  else begin
    on_path.(src) <- true;
    go src [] 0;
    List.rev !results
  end
