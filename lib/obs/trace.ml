module J = Pr_util.Json

type kind = Begin | End | Instant | Counter | Complete

type t = {
  mutable on : bool;
  capacity : int;
  kinds : kind array;
  ts : float array;
  dur : float array;
  tid : int array;
  names : string array;
  values : float array;
  mutable len : int;
  mutable dropped : int;
}

let create ?(capacity = 1 lsl 18) () =
  let capacity = Stdlib.max 1 capacity in
  {
    on = true;
    capacity;
    kinds = Array.make capacity Instant;
    ts = Array.make capacity 0.0;
    dur = Array.make capacity 0.0;
    tid = Array.make capacity 0;
    names = Array.make capacity "";
    values = Array.make capacity 0.0;
    len = 0;
    dropped = 0;
  }

let disabled =
  {
    on = false;
    capacity = 0;
    kinds = [||];
    ts = [||];
    dur = [||];
    tid = [||];
    names = [||];
    values = [||];
    len = 0;
    dropped = 0;
  }

let enabled t = t.on

let set_enabled t on = if t.capacity > 0 then t.on <- on

let length t = t.len

let dropped t = t.dropped

let clear t =
  t.len <- 0;
  t.dropped <- 0

(* The one hot-path entry point: a single branch on [on] when tracing
   is off, one bounds check and six array stores when it is on. Events
   past capacity are counted, not stored (dropping new events keeps
   every recorded End matched to a recorded Begin). *)
let record t kind ~ts ~dur ~tid ~value name =
  if t.on then begin
    if t.len >= t.capacity then t.dropped <- t.dropped + 1
    else begin
      let i = t.len in
      t.kinds.(i) <- kind;
      t.ts.(i) <- ts;
      t.dur.(i) <- dur;
      t.tid.(i) <- tid;
      t.names.(i) <- name;
      t.values.(i) <- value;
      t.len <- i + 1
    end
  end

let span_begin t ~ts ~tid name = record t Begin ~ts ~dur:0.0 ~tid ~value:0.0 name

let span_end t ~ts ~tid name = record t End ~ts ~dur:0.0 ~tid ~value:0.0 name

let instant t ~ts ~tid name = record t Instant ~ts ~dur:0.0 ~tid ~value:0.0 name

let counter t ~ts ~tid ~value name = record t Counter ~ts ~dur:0.0 ~tid ~value name

let complete t ~ts ~dur ~tid name = record t Complete ~ts ~dur ~tid ~value:0.0 name

let event ~name ~ph ~ts ~tid extra =
  J.Obj
    ([
       ("name", J.String name);
       ("ph", J.String ph);
       ("ts", J.Float ts);
       ("pid", J.Int 1);
       ("tid", J.Int tid);
     ]
    @ extra)

(* Export in record order (timestamps are therefore monotonic by
   construction). Spans still open at the end — end events lost to a
   full buffer, or a run cut short — are closed at the last recorded
   timestamp so the document always carries balanced B/E pairs. *)
let to_json t =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let push tid name =
    Hashtbl.replace stacks tid (name :: Option.value (Hashtbl.find_opt stacks tid) ~default:[])
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  let last_ts = ref 0.0 in
  for i = 0 to t.len - 1 do
    let name = t.names.(i) and ts = t.ts.(i) and tid = t.tid.(i) in
    last_ts := ts;
    match t.kinds.(i) with
    | Begin ->
      push tid name;
      emit (event ~name ~ph:"B" ~ts ~tid [])
    | End -> (
      (* A stray End (no matching Begin on this tid) is recorder misuse;
         skip it rather than emit an unbalanced document. *)
      match Hashtbl.find_opt stacks tid with
      | Some (top :: rest) when top = name ->
        Hashtbl.replace stacks tid rest;
        emit (event ~name ~ph:"E" ~ts ~tid [])
      | _ -> ())
    | Instant -> emit (event ~name ~ph:"i" ~ts ~tid [ ("s", J.String "t") ])
    | Counter ->
      emit (event ~name ~ph:"C" ~ts ~tid [ ("args", J.Obj [ (name, J.Float t.values.(i)) ]) ])
    | Complete -> emit (event ~name ~ph:"X" ~ts ~tid [ ("dur", J.Float t.dur.(i)) ])
  done;
  Hashtbl.iter
    (fun tid stack ->
      List.iter (fun name -> emit (event ~name ~ph:"E" ~ts:!last_ts ~tid [])) stack)
    stacks;
  J.Obj
    [
      ("traceEvents", J.List (List.rev !events));
      ("displayTimeUnit", J.String "ms");
      ("otherData", J.Obj [ ("dropped_events", J.Int t.dropped) ]);
    ]

let write ~path t =
  let oc = open_out path in
  output_string oc (J.to_string (to_json t));
  output_char oc '\n';
  close_out oc

(* --- validation ----------------------------------------------------- *)

let ( let* ) = Result.bind

let validate_event i ev =
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "event %d: %s" i m)) fmt in
  match ev with
  | J.Obj _ ->
    let* name =
      Result.map_error (fun e -> Printf.sprintf "event %d: %s" i e) (J.string_member "name" ev)
    in
    let* ph =
      Result.map_error (fun e -> Printf.sprintf "event %d: %s" i e) (J.string_member "ph" ev)
    in
    let* ts =
      Result.map_error (fun e -> Printf.sprintf "event %d: %s" i e) (J.float_member "ts" ev)
    in
    let* tid =
      Result.map_error (fun e -> Printf.sprintf "event %d: %s" i e) (J.int_member "tid" ev)
    in
    let* () =
      match J.int_member "pid" ev with
      | Ok _ -> Ok ()
      | Error e -> fail "%s" e
    in
    let* () =
      match ph with
      | "B" | "E" | "i" | "C" | "X" -> Ok ()
      | other -> fail "unknown phase %S" other
    in
    let* () =
      match ph with
      | "X" -> (
        match J.float_member "dur" ev with
        | Ok d when d >= 0.0 -> Ok ()
        | Ok d -> fail "negative dur %g" d
        | Error e -> fail "%s" e)
      | "C" -> (
        match J.member "args" ev with
        | Some (J.Obj _) -> Ok ()
        | _ -> fail "counter without args object")
      | _ -> Ok ()
    in
    Ok (name, ph, ts, tid)
  | other -> fail "not an object (%s)" (J.to_string other)

(* Checks the properties the runtest checker enforces: a traceEvents
   list whose events are well-formed, timestamps non-decreasing in
   document order, and span Begin/End balanced per tid with stack
   (LIFO) discipline. *)
let validate_json doc =
  let* events =
    match J.member "traceEvents" doc with
    | Some (J.List evs) -> Ok evs
    | Some other -> Error ("traceEvents is not a list: " ^ J.to_string other)
    | None -> Error "missing traceEvents"
  in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let* _count =
    List.fold_left
      (fun acc ev ->
        let* (i, prev_ts) = acc in
        let* (name, ph, ts, tid) = validate_event i ev in
        let* () =
          if ts < prev_ts then
            Error
              (Printf.sprintf "event %d: timestamp %g precedes %g (not monotonic)" i ts
                 prev_ts)
          else Ok ()
        in
        let* () =
          match ph with
          | "B" ->
            Hashtbl.replace stacks tid
              (name :: Option.value (Hashtbl.find_opt stacks tid) ~default:[]);
            Ok ()
          | "E" -> (
            match Hashtbl.find_opt stacks tid with
            | Some (top :: rest) when top = name ->
              Hashtbl.replace stacks tid rest;
              Ok ()
            | Some (top :: _) ->
              Error
                (Printf.sprintf "event %d: span end %S does not match open span %S (tid %d)"
                   i name top tid)
            | _ ->
              Error (Printf.sprintf "event %d: span end %S with no open span (tid %d)" i name tid))
          | _ -> Ok ()
        in
        Ok (i + 1, ts))
      (Ok (0, neg_infinity)) events
  in
  Hashtbl.fold
    (fun tid stack acc ->
      let* () = acc in
      match stack with
      | [] -> Ok ()
      | name :: _ -> Error (Printf.sprintf "unclosed span %S on tid %d" name tid))
    stacks (Ok ())
