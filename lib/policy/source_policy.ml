module Path = Pr_topology.Path

type t = {
  owner : Pr_topology.Ad.id;
  avoid : Pr_topology.Ad.id list;
  prefer : Pr_topology.Ad.id list;
  max_hops : int option;
}

let make ~owner ?(avoid = []) ?(prefer = []) ?max_hops () =
  { owner; avoid; prefer; max_hops }

let unrestricted owner = { owner; avoid = []; prefer = []; max_hops = None }

let permits t path =
  let interior = Path.transit_ads path in
  List.for_all (fun ad -> not (List.mem ad interior)) t.avoid
  &&
  match t.max_hops with
  | None -> true
  | Some h -> Path.hops path <= h

let score t g path =
  if not (permits t path) then infinity
  else
    match Path.cost g path with
    | None -> infinity
    | Some c ->
      let bonus =
        List.fold_left
          (fun acc ad -> if List.mem ad path then acc +. 0.5 else acc)
          0.0 t.prefer
      in
      float_of_int c -. bonus

let best t g paths =
  let scored =
    List.filter_map
      (fun p ->
        let s = score t g p in
        if s = infinity then None else Some (s, p))
      paths
  in
  match List.sort compare scored with
  | [] -> None
  | (_, p) :: _ -> Some p
