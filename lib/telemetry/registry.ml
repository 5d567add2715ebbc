module J = Pr_util.Json

type counter = { mutable c_val : int }
type gauge = { mutable g_val : float }

type instrument =
  | I_counter of counter
  | I_gauge of gauge
  | I_hist of Hist.t

type t = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }
let default = create ()

let kind_name = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_hist _ -> "histogram"

let clash name want got =
  invalid_arg
    (Printf.sprintf "Registry: %S already registered as a %s, wanted a %s"
       name (kind_name got) want)

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_counter c) -> c
  | Some other -> clash name "counter" other
  | None ->
      let c = { c_val = 0 } in
      Hashtbl.add t.tbl name (I_counter c);
      c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_gauge g) -> g
  | Some other -> clash name "gauge" other
  | None ->
      let g = { g_val = 0.0 } in
      Hashtbl.add t.tbl name (I_gauge g);
      g

let histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_hist h) -> h
  | Some other -> clash name "histogram" other
  | None ->
      let h = Hist.create () in
      Hashtbl.add t.tbl name (I_hist h);
      h

let inc c = c.c_val <- c.c_val + 1
let add c n = c.c_val <- c.c_val + n
let count c = c.c_val
let set g v = g.g_val <- v
let get g = g.g_val

let clear t =
  Hashtbl.iter
    (fun _ inst ->
      match inst with
      | I_counter c -> c.c_val <- 0
      | I_gauge g -> g.g_val <- 0.0
      | I_hist h -> Hist.clear h)
    t.tbl

type value = Counter of int | Gauge of float | Histogram of Hist.t

type snapshot = (string * value) list

let snapshot t =
  Hashtbl.fold
    (fun name inst acc ->
      let v =
        match inst with
        | I_counter c -> Counter c.c_val
        | I_gauge g -> Gauge g.g_val
        | I_hist h -> Histogram (Hist.copy h)
      in
      (name, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff ~after ~before =
  List.map
    (fun (name, v) ->
      match (v, List.assoc_opt name before) with
      | Counter a, Some (Counter b) -> (name, Counter (a - b))
      | Histogram a, Some (Histogram b) ->
          (name, Histogram (Hist.diff ~after:a ~before:b))
      | Gauge a, _ -> (name, Gauge a)
      | v, _ -> (name, v))
    after

let value_kind = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let merge a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, v) -> Hashtbl.replace tbl name v) a;
  let rec add = function
    | [] ->
      Ok
        (Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
        |> List.sort (fun (x, _) (y, _) -> String.compare x y))
    | (name, v) :: rest -> (
      let merged =
        match (Hashtbl.find_opt tbl name, v) with
        | None, _ -> Ok v
        | Some (Counter x), Counter y -> Ok (Counter (x + y))
        | Some (Gauge x), Gauge y -> Ok (Gauge (Float.max x y))
        | Some (Histogram x), Histogram y ->
          let m = Hist.copy x in
          Hist.merge ~into:m y;
          Ok (Histogram m)
        | Some other, _ ->
          Error
            (Printf.sprintf "kind clash on %S (%s vs %s)" name (value_kind other) (value_kind v))
      in
      match merged with
      | Ok m ->
        Hashtbl.replace tbl name m;
        add rest
      | Error _ as e -> e)
  in
  add b

let snapshot_to_json snap =
  let metric (name, v) =
    match v with
    | Counter c ->
        J.Obj
          [
            ("name", J.String name);
            ("type", J.String "counter");
            ("value", J.Int c);
          ]
    | Gauge g ->
        J.Obj
          [
            ("name", J.String name);
            ("type", J.String "gauge");
            ("value", J.Float g);
          ]
    | Histogram h ->
        J.Obj
          [
            ("name", J.String name);
            ("type", J.String "histogram");
            ("value", Hist.to_json h);
          ]
  in
  J.Obj
    [
      ("document", J.String "telemetry-snapshot");
      ("metrics", J.List (List.map metric snap));
    ]

let snapshot_of_json j =
  let ( let* ) = Result.bind in
  let* () =
    match J.member "document" j with
    | Some (J.String "telemetry-snapshot") -> Ok ()
    | _ -> Error "snapshot: missing \"telemetry-snapshot\" identity"
  in
  let* metrics =
    match J.member "metrics" j with
    | Some (J.List l) -> Ok l
    | _ -> Error "snapshot: missing \"metrics\" list"
  in
  let* entries =
    List.fold_left
      (fun acc m ->
        let* acc = acc in
        let* name =
          match J.member "name" m with
          | Some (J.String s) -> Ok s
          | _ -> Error "snapshot: metric missing \"name\""
        in
        let* v =
          match (J.member "type" m, J.member "value" m) with
          | Some (J.String "counter"), Some (J.Int c) -> Ok (Counter c)
          | Some (J.String "gauge"), Some (J.Float g) -> Ok (Gauge g)
          | Some (J.String "gauge"), Some (J.Int g) ->
              Ok (Gauge (float_of_int g))
          | Some (J.String "histogram"), Some h ->
              let* h = Hist.of_json h in
              Ok (Histogram h)
          | _ ->
              Error
                (Printf.sprintf "snapshot: metric %S: bad type/value" name)
        in
        Ok ((name, v) :: acc))
      (Ok []) metrics
  in
  Ok (List.sort (fun (a, _) (b, _) -> String.compare a b) entries)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

(* Render a float the way Prometheus expects: integral values without
   an exponent, everything else via %g. *)
let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let to_prometheus snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = sanitize name in
      match v with
      | Counter c ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
          Buffer.add_string buf (Printf.sprintf "%s %d\n" n c)
      | Gauge g ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" n);
          Buffer.add_string buf (Printf.sprintf "%s %s\n" n (prom_float g))
      | Histogram h ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
          let cum = ref 0 in
          List.iter
            (fun (i, c) ->
              cum := !cum + c;
              let _, hi = Hist.bucket_bounds i in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
                   (prom_float hi) !cum))
            (Hist.buckets h);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n (Hist.count h));
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" n (prom_float (Hist.sum h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count %d\n" n (Hist.count h)))
    snap;
  Buffer.contents buf
