type t = {
  n : int;
  msgs : int array;
  bytes_sent : int array;
  comps : int array;
  tables : int array;
  lost : int array;
  evicted : int array;
}

let create ~n =
  {
    n;
    msgs = Array.make n 0;
    bytes_sent = Array.make n 0;
    comps = Array.make n 0;
    tables = Array.make n 0;
    lost = Array.make n 0;
    evicted = Array.make n 0;
  }

let reset t =
  Array.fill t.msgs 0 t.n 0;
  Array.fill t.bytes_sent 0 t.n 0;
  Array.fill t.comps 0 t.n 0;
  Array.fill t.tables 0 t.n 0;
  Array.fill t.lost 0 t.n 0;
  Array.fill t.evicted 0 t.n 0

let record_send t ad ~bytes =
  t.msgs.(ad) <- t.msgs.(ad) + 1;
  t.bytes_sent.(ad) <- t.bytes_sent.(ad) + bytes

let record_loss t ad = t.lost.(ad) <- t.lost.(ad) + 1

let record_eviction t ad ?(count = 1) () = t.evicted.(ad) <- t.evicted.(ad) + count

let record_computation t ad ?(work = 1) () = t.comps.(ad) <- t.comps.(ad) + work

let set_table_entries t ad entries = t.tables.(ad) <- entries

let add_table_entries t ad entries = t.tables.(ad) <- t.tables.(ad) + entries

let sum a = Array.fold_left ( + ) 0 a

let messages t = sum t.msgs

let bytes t = sum t.bytes_sent

let computations t = sum t.comps

let table_entries t = sum t.tables

let msgs_lost t = sum t.lost

let evictions t = sum t.evicted

let messages_of t ad = t.msgs.(ad)

let bytes_of t ad = t.bytes_sent.(ad)

let computations_of t ad = t.comps.(ad)

let table_entries_of t ad = t.tables.(ad)

let msgs_lost_of t ad = t.lost.(ad)

let evictions_of t ad = t.evicted.(ad)

let max_table_entries t = Array.fold_left Stdlib.max 0 t.tables

let snapshot t =
  {
    n = t.n;
    msgs = Array.copy t.msgs;
    bytes_sent = Array.copy t.bytes_sent;
    comps = Array.copy t.comps;
    tables = Array.copy t.tables;
    lost = Array.copy t.lost;
    evicted = Array.copy t.evicted;
  }

let merge into from =
  if into.n <> from.n then invalid_arg "Metrics.merge: size mismatch";
  for i = 0 to into.n - 1 do
    into.msgs.(i) <- into.msgs.(i) + from.msgs.(i);
    into.bytes_sent.(i) <- into.bytes_sent.(i) + from.bytes_sent.(i);
    into.comps.(i) <- into.comps.(i) + from.comps.(i);
    into.tables.(i) <- into.tables.(i) + from.tables.(i);
    into.lost.(i) <- into.lost.(i) + from.lost.(i);
    into.evicted.(i) <- into.evicted.(i) + from.evicted.(i)
  done

let diff ~after ~before =
  if after.n <> before.n then invalid_arg "Metrics.diff: size mismatch";
  {
    n = after.n;
    msgs = Array.init after.n (fun i -> after.msgs.(i) - before.msgs.(i));
    bytes_sent = Array.init after.n (fun i -> after.bytes_sent.(i) - before.bytes_sent.(i));
    comps = Array.init after.n (fun i -> after.comps.(i) - before.comps.(i));
    tables = Array.copy after.tables;
    lost = Array.init after.n (fun i -> after.lost.(i) - before.lost.(i));
    evicted = Array.init after.n (fun i -> after.evicted.(i) - before.evicted.(i));
  }

let to_json t =
  let ints a = Pr_util.Json.List (Array.to_list (Array.map (fun i -> Pr_util.Json.Int i) a)) in
  Pr_util.Json.Obj
    [
      ("n", Pr_util.Json.Int t.n);
      ("messages", ints t.msgs);
      ("bytes", ints t.bytes_sent);
      ("computations", ints t.comps);
      ("tables", ints t.tables);
      ("losses", ints t.lost);
      ("evictions", ints t.evicted);
    ]

let ( let* ) = Result.bind

let of_json j =
  let module J = Pr_util.Json in
  let int_array name =
    match J.member name j with
    | None -> Error (Printf.sprintf "missing field %S" name)
    | Some v ->
      let* items = J.to_list v in
      let* ints =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* i = J.to_int item in
            Ok (i :: acc))
          (Ok []) items
      in
      Ok (Array.of_list (List.rev ints))
  in
  let* n = J.int_member "n" j in
  let* msgs = int_array "messages" in
  let* bytes_sent = int_array "bytes" in
  let* comps = int_array "computations" in
  let* tables = int_array "tables" in
  (* Pre-fault-era documents carry no losses array; treat it as zeros. *)
  let* lost =
    match J.member "losses" j with
    | None -> Ok (Array.make n 0)
    | Some _ -> int_array "losses"
  in
  (* Likewise for pre-serving-layer documents without evictions. *)
  let* evicted =
    match J.member "evictions" j with
    | None -> Ok (Array.make n 0)
    | Some _ -> int_array "evictions"
  in
  if
    Array.length msgs <> n || Array.length bytes_sent <> n || Array.length comps <> n
    || Array.length tables <> n || Array.length lost <> n || Array.length evicted <> n
  then Error "per-AD array lengths disagree with n"
  else Ok { n; msgs; bytes_sent; comps; tables; lost; evicted }

let load_series t =
  let floats a = Array.map float_of_int a in
  [
    ("messages", floats t.msgs);
    ("bytes", floats t.bytes_sent);
    ("computations", floats t.comps);
  ]

let pp ppf t =
  Format.fprintf ppf "msgs=%d bytes=%d comp=%d tables=%d lost=%d" (messages t) (bytes t)
    (computations t) (table_entries t) (msgs_lost t)
