module J = Pr_util.Json

type kind = Begin | End | Instant | Counter | Complete

type policy = Drop_newest | Overwrite_oldest

type t = {
  on : bool;
  overwrite : bool;
  capacity : int;
  kinds : kind array;
  ts : float array;
  dur : float array;
  tid : int array;
  names : string array;
  values : float array;
  details : string array;
  mutable total : int; (* events ever offered; see [length] and [dropped] *)
}

let make ~on ~policy capacity =
  {
    on;
    overwrite = policy = Overwrite_oldest;
    capacity;
    kinds = Array.make capacity Instant;
    ts = Array.make capacity 0.0;
    dur = Array.make capacity 0.0;
    tid = Array.make capacity 0;
    names = Array.make capacity "";
    values = Array.make capacity 0.0;
    details = Array.make capacity "";
    total = 0;
  }

let create ?(policy = Drop_newest) ?(capacity = 1 lsl 18) () =
  make ~on:true ~policy (Stdlib.max 1 capacity)

let disabled = make ~on:false ~policy:Drop_newest 0

let flight = create ~policy:Overwrite_oldest ~capacity:1024 ()

let enabled t = t.on

let length t = Stdlib.min t.total t.capacity

let dropped t = t.total - length t

let clear t = t.total <- 0

(* The one hot-path entry point: a single branch on [on] when tracing
   is off, one bounds check and seven array stores when it is on. A
   full drop-newest ring counts the event without storing it (so every
   recorded End keeps its Begin); a full overwrite-oldest ring reuses
   the oldest slot. *)
let record t kind ~ts ~dur ~tid ~value ~detail name =
  if t.on then begin
    let n = t.total in
    let i = if n < t.capacity then n else if t.overwrite then n mod t.capacity else -1 in
    if i >= 0 then begin
      t.kinds.(i) <- kind;
      t.ts.(i) <- ts;
      t.dur.(i) <- dur;
      t.tid.(i) <- tid;
      t.names.(i) <- name;
      t.values.(i) <- value;
      t.details.(i) <- detail
    end;
    t.total <- n + 1
  end

let span_begin t ~ts ~tid name = record t Begin ~ts ~dur:0.0 ~tid ~value:0.0 ~detail:"" name

let span_end t ~ts ~tid name = record t End ~ts ~dur:0.0 ~tid ~value:0.0 ~detail:"" name

let instant t ~ts ~tid name = record t Instant ~ts ~dur:0.0 ~tid ~value:0.0 ~detail:"" name

let counter t ~ts ~tid ~value name = record t Counter ~ts ~dur:0.0 ~tid ~value ~detail:"" name

let complete t ~ts ~dur ~tid name = record t Complete ~ts ~dur ~tid ~value:0.0 ~detail:"" name

(* Notes may arrive from any domain, so writes to the shared [flight]
   ring are serialized. Uncontended lock cost is negligible next to
   the string formatting every caller already does, and notes are off
   the per-event hot path. *)
let flight_mutex = Mutex.create ()

let note t ~ts ~tid ?(value = 0.0) ?(detail = "") name =
  if t != flight then record t Instant ~ts ~dur:0.0 ~tid ~value ~detail name;
  Mutex.lock flight_mutex;
  record flight Instant ~ts ~dur:0.0 ~tid ~value ~detail name;
  Mutex.unlock flight_mutex

(* Slot indices of the held events, oldest first. *)
let iter_held t f =
  let len = length t in
  let first = if t.overwrite then t.total - len else 0 in
  for k = 0 to len - 1 do
    f ((first + k) mod t.capacity)
  done

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

(* The one event encoder, shared by both documents. *)
let event_json t i =
  let name = t.names.(i) and ts = t.ts.(i) and tid = t.tid.(i) and value = t.values.(i) in
  match t.kinds.(i) with
  | Begin -> event ~name ~ph:"B" ~ts ~tid []
  | End -> event ~name ~ph:"E" ~ts ~tid []
  | Instant ->
    let args =
      (if t.details.(i) = "" then [] else [ ("detail", J.String t.details.(i)) ])
      @ if value = 0.0 then [] else [ ("value", J.Float value) ]
    in
    event ~name ~ph:"i" ~ts ~tid
      (("s", J.String "t") :: (if args = [] then [] else [ ("args", J.Obj args) ]))
  | Counter -> event ~name ~ph:"C" ~ts ~tid [ ("args", J.Obj [ (name, J.Float value) ]) ]
  | Complete -> event ~name ~ph:"X" ~ts ~tid [ ("dur", J.Float t.dur.(i)) ]

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
  iter_held t (fun i ->
      let name = t.names.(i) and tid = t.tid.(i) in
      last_ts := t.ts.(i);
      match t.kinds.(i) with
      | Begin ->
        push tid name;
        emit (event_json t i)
      | End -> (
        (* A stray End (no matching Begin on this tid: recorder misuse,
           or its Begin overwritten) is skipped rather than emitted
           into an unbalanced document. *)
        match Hashtbl.find_opt stacks tid with
        | Some (top :: rest) when top = name ->
          Hashtbl.replace stacks tid rest;
          emit (event_json t i)
        | _ -> ())
      | Instant | Counter | Complete -> emit (event_json t i));
  Hashtbl.iter
    (fun tid stack ->
      List.iter (fun name -> emit (event ~name ~ph:"E" ~ts:!last_ts ~tid [])) stack)
    stacks;
  J.Obj
    [
      ("traceEvents", J.List (List.rev !events));
      ("displayTimeUnit", J.String "ms");
      ("otherData", J.Obj [ ("dropped_events", J.Int (dropped t)) ]);
    ]

let post_mortem ?metrics ~reason t =
  let events = ref [] in
  iter_held t (fun i -> events := event_json t i :: !events);
  J.Obj
    ([
       ("document", J.String "post-mortem");
       ("reason", J.String reason);
       ("recorded", J.Int t.total);
       ("capacity", J.Int t.capacity);
       ("events", J.List (List.rev !events));
     ]
    @ match metrics with None -> [] | Some m -> [ ("metrics", m) ])

let write_json ~path doc =
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc

let write ~path t = write_json ~path (to_json t)

let write_post_mortem ?metrics ~reason ~path t =
  write_json ~path (post_mortem ?metrics ~reason t)

(* --- validation ----------------------------------------------------- *)

let ( let* ) = Result.bind

let validate_event i ev =
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "event %d: %s" i m)) fmt in
  let field get name = Result.map_error (fun e -> Printf.sprintf "event %d: %s" i e) (get name ev) in
  match ev with
  | J.Obj _ ->
    let* name = field J.string_member "name" in
    let* ph = field J.string_member "ph" in
    let* ts = field J.float_member "ts" in
    let* tid = field J.int_member "tid" in
    let* _pid = field J.int_member "pid" in
    let* () =
      match ph with
      | "B" | "E" | "i" -> Ok ()
      | "X" -> (
        match J.float_member "dur" ev with
        | Ok d when d >= 0.0 -> Ok ()
        | Ok d -> fail "negative dur %g" d
        | Error e -> fail "%s" e)
      | "C" -> (
        match J.member "args" ev with
        | Some (J.Obj _) -> Ok ()
        | _ -> fail "counter without args object")
      | other -> fail "unknown phase %S" other
    in
    Ok (name, ph, ts, tid)
  | other -> fail "not an object (%s)" (J.to_string other)

(* Every event well-formed and timestamps non-decreasing in document
   order; [f] sees each event's (index, name, phase, track). *)
let check_events ~f events =
  let rec go i prev_ts = function
    | [] -> Ok ()
    | ev :: rest ->
      let* name, ph, ts, tid = validate_event i ev in
      let* () =
        if ts < prev_ts then
          Error (Printf.sprintf "event %d: timestamp %g precedes %g (not monotonic)" i ts prev_ts)
        else Ok ()
      in
      let* () = f i name ph tid in
      go (i + 1) ts rest
  in
  go 0 neg_infinity events

let validate_events events = check_events ~f:(fun _ _ _ _ -> Ok ()) events

(* The chrome document adds a traceEvents list and span Begin/End
   balance per tid with stack (LIFO) discipline. *)
let validate_json doc =
  let* events =
    match J.member "traceEvents" doc with
    | Some (J.List evs) -> Ok evs
    | Some other -> Error ("traceEvents is not a list: " ^ J.to_string other)
    | None -> Error "missing traceEvents"
  in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let balance i name ph tid =
    match ph with
    | "B" ->
      Hashtbl.replace stacks tid (name :: Option.value (Hashtbl.find_opt stacks tid) ~default:[]);
      Ok ()
    | "E" -> (
      match Hashtbl.find_opt stacks tid with
      | Some (top :: rest) when top = name ->
        Hashtbl.replace stacks tid rest;
        Ok ()
      | Some (top :: _) ->
        Error
          (Printf.sprintf "event %d: span end %S does not match open span %S (tid %d)" i name
             top tid)
      | _ -> Error (Printf.sprintf "event %d: span end %S with no open span (tid %d)" i name tid))
    | _ -> Ok ()
  in
  let* () = check_events ~f:balance events in
  Hashtbl.fold
    (fun tid stack acc ->
      let* () = acc in
      match stack with
      | [] -> Ok ()
      | name :: _ -> Error (Printf.sprintf "unclosed span %S on tid %d" name tid))
    stacks (Ok ())
