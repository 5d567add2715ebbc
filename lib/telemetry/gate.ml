module J = Pr_util.Json

type row = {
  layer : string;
  kernel : string;
  config : (string * J.t) list;
  exact : (string * J.t) list;
  band : (string * J.t) list;
  cores : int;
}

let layers = [ "kernel"; "search"; "converge"; "serve" ]

let members = [ "layer"; "kernel"; "config"; "exact"; "band"; "cores" ]

let row_to_json r =
  J.Obj
    [
      ("layer", J.String r.layer);
      ("kernel", J.String r.kernel);
      ("config", J.Obj r.config);
      ("exact", J.Obj r.exact);
      ("band", J.Obj r.band);
      ("cores", J.Int r.cores);
    ]

let document_json ~benchmark ?(context = []) rows =
  J.Obj
    ((("benchmark", J.String benchmark) :: ("results", J.List (List.map row_to_json rows))
     :: context))

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let is_number = function J.Int _ -> true | J.Float f -> Float.is_finite f | _ -> false

let to_float = function J.Int i -> float_of_int i | J.Float f -> f | _ -> Float.nan

let rec first_dup = function
  | [] -> None
  | x :: rest -> if List.mem x rest then Some x else first_dup rest

let no_dup what names =
  match first_dup names with Some k -> err "%s %S appears twice" what k | None -> Ok ()

let numbers section j =
  match J.member section j with
  | Some (J.Obj fields) -> (
      match List.find_opt (fun (_, v) -> not (is_number v)) fields with
      | Some (name, _) -> err "%s %S is not a number" section name
      | None -> Ok fields)
  | _ -> err "%S must be an object of numbers" section

let row_of_json j =
  let str name ok what =
    match J.member name j with
    | Some (J.String v) when ok v -> Ok v
    | _ -> err "%S must be %s" name what
  in
  match j with
  | J.Obj fields -> (
      let* () = no_dup "member" (List.map fst fields) in
      match List.find_opt (fun (k, _) -> not (List.mem k members)) fields with
      | Some (k, _) -> err "unknown member %S" k
      | None ->
          let* layer =
            str "layer" (fun l -> List.mem l layers) ("one of " ^ String.concat ", " layers)
          in
          let* kernel = str "kernel" (( <> ) "") "a non-empty string" in
          let* config =
            match J.member "config" j with
            | Some (J.Obj c) -> Ok c
            | _ -> err "\"config\" must be an object"
          in
          let* () = no_dup "config" (List.map fst config) in
          let* exact = numbers "exact" j in
          let* band = numbers "band" j in
          let* () = no_dup "field" (List.map fst exact @ List.map fst band) in
          let* cores =
            match J.member "cores" j with
            | Some (J.Int c) when c >= 1 -> Ok c
            | _ -> err "\"cores\" must be an integer >= 1"
          in
          Ok { layer; kernel; config; exact; band; cores })
  | _ -> err "not an object"

(* Config values are scalars; numbers compare by value, so 14 and 14.0
   name the same config. *)
let same_value a b = if is_number a && is_number b then to_float a = to_float b else a = b

let same_key a b =
  let sorted l = List.sort (fun (k, _) (k', _) -> String.compare k k') l in
  a.layer = b.layer && a.kernel = b.kernel
  && List.equal
       (fun (k, v) (k', v') -> k = k' && same_value v v')
       (sorted a.config) (sorted b.config)

let describe r = Printf.sprintf "%s/%s %s" r.layer r.kernel (J.to_string (J.Obj r.config))

let document_of_json doc =
  let* benchmark =
    match J.member "benchmark" doc with
    | Some (J.String b) -> Ok b
    | _ -> err "missing \"benchmark\" identity"
  in
  let* results =
    match J.member "results" doc with
    | Some (J.List (_ :: _ as l)) -> Ok l
    | _ -> err "missing or empty \"results\" list"
  in
  let rec rows i acc = function
    | [] -> Ok (benchmark, List.rev acc)
    | j :: rest -> (
        let* r = Result.map_error (Printf.sprintf "results row %d: %s" i) (row_of_json j) in
        match List.find_index (same_key r) (List.rev acc) with
        | Some k -> err "results rows %d and %d share layer, kernel and config" k i
        | None -> rows (i + 1) (r :: acc) rest)
  in
  rows 0 [] results

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Result.bind (J.parse text) document_of_json
  | exception Sys_error e -> Error e

let default_tolerance = 9.0

type outcome = {
  field : string;
  exact : bool;
  baseline : J.t;
  current : J.t option;
  ok : bool;
}

(* One unit of absolute slack so zero-valued timing fields do not trip
   on noise. *)
let within tol a b = b <= (a *. (1.0 +. tol)) +. 1.0 && a <= (b *. (1.0 +. tol)) +. 1.0

let compare_row ~tolerance ~(baseline : row) ~(current : row) =
  let judge exact (field, b) =
    let c =
      match List.assoc_opt field current.exact with None -> List.assoc_opt field current.band | c -> c
    in
    let ok =
      match c with
      | None -> false
      | Some c when exact -> J.to_string b = J.to_string c
      | Some c -> is_number c && within tolerance (to_float b) (to_float c)
    in
    { field; exact; baseline = b; current = c; ok }
  in
  List.map (judge true) baseline.exact @ List.map (judge false) baseline.band

let failures outcomes = List.filter (fun o -> not o.ok) outcomes

let pp_outcome ppf o =
  let text = function Some v -> J.to_string v | None -> "-" in
  Format.fprintf ppf "%-22s %-5s baseline=%-14s current=%-14s %s" o.field
    (if o.exact then "exact" else "band")
    (J.to_string o.baseline) (text o.current)
    (if o.ok then "ok" else if o.current = None then "FAIL (missing)" else "FAIL")
