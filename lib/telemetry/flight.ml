module J = Pr_util.Json

type kind = Instant | Counter

type t = {
  capacity : int;
  kinds : kind array;
  ts : float array;
  tids : int array;
  names : string array;
  values : float array;
  details : string array;
  mutable head : int; (* total events ever noted; next slot = head mod capacity *)
  mutable on : bool;
}

let create ?(capacity = 512) () =
  let capacity = max 1 capacity in
  {
    capacity;
    kinds = Array.make capacity Instant;
    ts = Array.make capacity 0.0;
    tids = Array.make capacity 0;
    names = Array.make capacity "";
    values = Array.make capacity 0.0;
    details = Array.make capacity "";
    head = 0;
    on = true;
  }

let global = create ~capacity:1024 ()

let enabled t = t.on
let set_enabled t on = t.on <- on

(* Notes may arrive from any domain, so slot allocation and the
   writes it guards are serialized. Uncontended lock cost is
   negligible next to the string formatting every caller already does,
   and the recorder is off the per-event hot path. *)
let note_mutex = Mutex.create ()

let note ?(kind = Instant) ?(tid = 0) ?(value = 0.0) ?(detail = "") t ~ts name
    =
  if t.on then begin
    Mutex.lock note_mutex;
    let i = t.head mod t.capacity in
    t.kinds.(i) <- kind;
    t.ts.(i) <- ts;
    t.tids.(i) <- tid;
    t.names.(i) <- name;
    t.values.(i) <- value;
    t.details.(i) <- detail;
    t.head <- t.head + 1;
    Mutex.unlock note_mutex
  end

let total t = t.head
let length t = min t.head t.capacity

let clear t = t.head <- 0

type event = {
  kind : kind;
  ts : float;
  tid : int;
  name : string;
  value : float;
  detail : string;
}

let events t =
  let n = length t in
  let first = t.head - n in
  List.init n (fun k ->
      let i = (first + k) mod t.capacity in
      {
        kind = t.kinds.(i);
        ts = t.ts.(i);
        tid = t.tids.(i);
        name = t.names.(i);
        value = t.values.(i);
        detail = t.details.(i);
      })

(* Same field layout as Pr_obs.Trace's Chrome trace events so the two
   read alike in tooling: name/ph/ts/pid/tid plus an args object. *)
let event_json e =
  let ph = match e.kind with Instant -> "i" | Counter -> "C" in
  let args =
    (if e.detail = "" then [] else [ ("detail", J.String e.detail) ])
    @ match e.kind with
      | Counter -> [ ("value", J.Float e.value) ]
      | Instant -> if e.value = 0.0 then [] else [ ("value", J.Float e.value) ]
  in
  J.Obj
    ([
       ("name", J.String e.name);
       ("ph", J.String ph);
       ("ts", J.Float e.ts);
       ("pid", J.Int 1);
       ("tid", J.Int e.tid);
     ]
    @ if args = [] then [] else [ ("args", J.Obj args) ])

let to_json ?(reason = "") ?metrics t =
  J.Obj
    ([
       ("document", J.String "post-mortem");
       ("reason", J.String reason);
       ("recorded", J.Int (total t));
       ("capacity", J.Int t.capacity);
       ("events", J.List (List.map event_json (events t)));
     ]
    @
    match metrics with
    | None -> []
    | Some snap -> [ ("metrics", Registry.snapshot_to_json snap) ])

let dump ?metrics ~reason ~path t =
  let oc = open_out path in
  output_string oc (J.to_string (to_json ~reason ?metrics t));
  output_char oc '\n';
  close_out oc
