type window = { from_time : float; until_time : float }

type action =
  | Drop of { prob : float; window : window }
  | Duplicate of { prob : float; window : window }
  | Delay of { prob : float; max_extra : float; window : window }
  | Reorder of { prob : float; max_extra : float; window : window }
  | Crash of { ad : Pr_topology.Ad.id option; at_time : float; down_for : float option }
  | Partition of { at_time : float; heal_after : float option }
  | Flap_storm of { at_time : float; flaps : int; spacing : float }
  (* Byzantine actions: a compromised AD emits bad routing information
     rather than merely losing messages. [ad = None] picks a transit AD
     deterministically from the plan seed. *)
  | Corrupt of { prob : float; ad : Pr_topology.Ad.id option; window : window }
  | Replay of { at_time : float; count : int }
  | Forge of { at_time : float; ad : Pr_topology.Ad.id option }
  | Flap_chatter of {
      at_time : float;
      ad : Pr_topology.Ad.id option;
      flaps : int;
      spacing : float;
    }

type t = action list

let storm_hold ~spacing = 1.5 *. spacing

(* Scales: generated link delays are ~1 time unit and campaign churn is
   spaced 4.0 apart, so the default plan plays out over tens of units.
   The default deliberately excludes Drop and Reorder: with no
   retransmission layer in the model, losing or reordering a control
   message can leave a *correct* distance-vector protocol permanently
   inconsistent, which would make the invariant harness flag protocols
   for an artifact of the model rather than a design flaw. Delay is
   FIFO-clamped by the nemesis, and duplicates are idempotent, so both
   are safe for every protocol family. *)
let default =
  let w = { from_time = 0.0; until_time = 40.0 } in
  [
    Delay { prob = 0.25; max_extra = 2.0; window = w };
    Duplicate { prob = 0.1; window = w };
    Flap_storm { at_time = 6.0; flaps = 4; spacing = 1.5 };
    Crash { ad = None; at_time = 14.0; down_for = Some 8.0 };
    Partition { at_time = 30.0; heal_after = Some 10.0 };
  ]

let profiles =
  [
    ("none", []);
    ("default", default);
    ("crash", [ Crash { ad = None; at_time = 6.0; down_for = Some 8.0 } ]);
    ("partition", [ Partition { at_time = 6.0; heal_after = Some 10.0 } ]);
    ("storm", [ Flap_storm { at_time = 4.0; flaps = 6; spacing = 1.5 } ]);
    (* Stress profile, not an invariant gate: unrecovered message loss
       and FIFO-violating reordering can break protocols that the
       paper's model (reliable FIFO channels between up neighbors)
       never required to survive. *)
    ( "lossy",
      let w = { from_time = 0.0; until_time = 40.0 } in
      [
        Drop { prob = 0.1; window = w };
        Reorder { prob = 0.1; max_extra = 3.0; window = w };
        Delay { prob = 0.25; max_extra = 2.0; window = w };
        Duplicate { prob = 0.1; window = w };
      ] );
    (* Adversarial profiles: one deterministically-chosen transit AD
       turns Byzantine. [byzantine] is the full attack battery the
       acceptance invariants gate on; [leak] isolates the route-leak
       (forged announcement violating the origin's own Policy Terms);
       [chatter] isolates the pathological flapping neighbor that flap
       damping must suppress. *)
    ( "byzantine",
      (* Ordered so the first forge puts the attacker in quarantine at
         every guarded neighbor before the replay fires (replayed stale
         state is dropped at the boundary), and the second forge lands
         late enough that without a guard it persists to the final
         audit. *)
      [
        Corrupt
          {
            prob = 0.6;
            ad = None;
            window = { from_time = 2.0; until_time = 24.0 };
          };
        Forge { at_time = 4.0; ad = None };
        Replay { at_time = 10.0; count = 8 };
        Flap_chatter { at_time = 8.0; ad = None; flaps = 18; spacing = 0.25 };
        Forge { at_time = 16.0; ad = None };
      ] );
    ( "leak",
      [ Forge { at_time = 4.0; ad = None }; Forge { at_time = 9.0; ad = None } ]
    );
    ( "chatter",
      [ Flap_chatter { at_time = 4.0; ad = None; flaps = 20; spacing = 0.25 } ]
    );
  ]

let profile name = List.assoc_opt name profiles

let profile_names = List.map fst profiles

(* {2 Compact textual specs}

   [drop:p=0.1,from=0,until=40;crash:at=14,down=8,ad=3;...] — the form
   the CLI and campaign grids carry around. *)

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f)
  else Printf.sprintf "%g" f

let window_str w =
  (if w.from_time = 0.0 then [] else [ Printf.sprintf "from=%s" (float_str w.from_time) ])
  @
  if w.until_time = Float.infinity then []
  else [ Printf.sprintf "until=%s" (float_str w.until_time) ]

let action_to_string = function
  | Drop { prob; window } ->
    String.concat "," (("drop:p=" ^ float_str prob) :: window_str window)
  | Duplicate { prob; window } ->
    String.concat "," (("dup:p=" ^ float_str prob) :: window_str window)
  | Delay { prob; max_extra; window } ->
    String.concat ","
      ((Printf.sprintf "delay:p=%s,max=%s" (float_str prob) (float_str max_extra))
      :: window_str window)
  | Reorder { prob; max_extra; window } ->
    String.concat ","
      ((Printf.sprintf "reorder:p=%s,max=%s" (float_str prob) (float_str max_extra))
      :: window_str window)
  | Crash { ad; at_time; down_for } ->
    String.concat ","
      (("crash:at=" ^ float_str at_time)
      :: ((match down_for with Some d -> [ "down=" ^ float_str d ] | None -> [])
         @ match ad with Some a -> [ Printf.sprintf "ad=%d" a ] | None -> []))
  | Partition { at_time; heal_after } ->
    String.concat ","
      (("partition:at=" ^ float_str at_time)
      :: (match heal_after with Some h -> [ "heal=" ^ float_str h ] | None -> []))
  | Flap_storm { at_time; flaps; spacing } ->
    Printf.sprintf "storm:at=%s,flaps=%d,spacing=%s" (float_str at_time) flaps
      (float_str spacing)
  | Corrupt { prob; ad; window } ->
    String.concat ","
      (("corrupt:p=" ^ float_str prob)
      :: ((match ad with Some a -> [ Printf.sprintf "ad=%d" a ] | None -> [])
         @ window_str window))
  | Replay { at_time; count } ->
    Printf.sprintf "replay:at=%s,count=%d" (float_str at_time) count
  | Forge { at_time; ad } ->
    String.concat ","
      (("forge:at=" ^ float_str at_time)
      :: (match ad with Some a -> [ Printf.sprintf "ad=%d" a ] | None -> []))
  | Flap_chatter { at_time; ad; flaps; spacing } ->
    String.concat ","
      (Printf.sprintf "chatter:at=%s,flaps=%d,spacing=%s" (float_str at_time)
         flaps (float_str spacing)
      :: (match ad with Some a -> [ Printf.sprintf "ad=%d" a ] | None -> []))

let to_string t = String.concat ";" (List.map action_to_string t)

let ( let* ) = Result.bind

let parse_fields s =
  List.fold_left
    (fun acc field ->
      let* acc = acc in
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "malformed field %S (want key=value)" field)
      | Some i ->
        Ok
          ((String.sub field 0 i, String.sub field (i + 1) (String.length field - i - 1))
          :: acc))
    (Ok [])
    (String.split_on_char ',' s)

let get_float fields key =
  match List.assoc_opt key fields with
  | None -> Error (Printf.sprintf "missing %s=" key)
  | Some v -> (
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "%s=%S is not a number" key v))

let get_float_opt fields key =
  match List.assoc_opt key fields with
  | None -> Ok None
  | Some v -> (
    match float_of_string_opt v with
    | Some f -> Ok (Some f)
    | None -> Error (Printf.sprintf "%s=%S is not a number" key v))

let get_prob fields =
  let* p = get_float fields "p" in
  if Float.is_nan p || p < 0.0 || p > 1.0 then
    Error (Printf.sprintf "p=%s out of [0,1]" (float_str p))
  else Ok p

(* Times, durations and latency bounds must be finite and non-negative:
   a time in the past cannot be scheduled, and a NaN or infinite one
   means nothing. *)
let check_time key v =
  if Float.is_finite v && v >= 0.0 then Ok v
  else Error (Printf.sprintf "%s=%s must be a finite number >= 0" key (float_str v))

let get_time fields key =
  let* v = get_float fields key in
  check_time key v

let get_time_opt fields key =
  let* v = get_float_opt fields key in
  match v with
  | None -> Ok None
  | Some v ->
    let* v = check_time key v in
    Ok (Some v)

let get_count fields key =
  let* v = get_float fields key in
  if Float.is_integer v && v >= 0.0 && v <= 1e9 then Ok (int_of_float v)
  else Error (Printf.sprintf "%s=%s must be a whole number >= 0" key (float_str v))

let get_ad fields =
  match List.assoc_opt "ad" fields with
  | None -> Ok None
  | Some v -> (
    match int_of_string_opt v with
    | Some a -> Ok (Some a)
    | None -> Error (Printf.sprintf "ad=%S is not an AD number" v))

(* [until] may be infinite — an explicit unbounded window. *)
let get_window fields =
  let* from_time = get_time_opt fields "from" in
  let* until_time = get_float_opt fields "until" in
  let from_time = Option.value from_time ~default:0.0 in
  let until_time = Option.value until_time ~default:Float.infinity in
  if Float.is_nan until_time || until_time < 0.0 then
    Error (Printf.sprintf "until=%s must be a number >= 0" (float_str until_time))
  else if until_time < from_time then Error "until < from"
  else Ok { from_time; until_time }

let parse_action s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "malformed action %S (want kind:key=value,...)" s)
  | Some i -> (
    let kind = String.sub s 0 i in
    let* fields = parse_fields (String.sub s (i + 1) (String.length s - i - 1)) in
    match kind with
    | "drop" ->
      let* prob = get_prob fields in
      let* window = get_window fields in
      Ok (Drop { prob; window })
    | "dup" ->
      let* prob = get_prob fields in
      let* window = get_window fields in
      Ok (Duplicate { prob; window })
    | "delay" ->
      let* prob = get_prob fields in
      let* max_extra = get_time fields "max" in
      let* window = get_window fields in
      Ok (Delay { prob; max_extra; window })
    | "reorder" ->
      let* prob = get_prob fields in
      let* max_extra = get_time fields "max" in
      let* window = get_window fields in
      Ok (Reorder { prob; max_extra; window })
    | "crash" ->
      let* at_time = get_time fields "at" in
      let* down_for = get_time_opt fields "down" in
      let* ad = get_ad fields in
      Ok (Crash { ad; at_time; down_for })
    | "partition" ->
      let* at_time = get_time fields "at" in
      let* heal_after = get_time_opt fields "heal" in
      Ok (Partition { at_time; heal_after })
    | "storm" ->
      let* at_time = get_time fields "at" in
      let* flaps = get_count fields "flaps" in
      let* spacing = get_time fields "spacing" in
      Ok (Flap_storm { at_time; flaps; spacing })
    | "corrupt" ->
      let* prob = get_prob fields in
      let* window = get_window fields in
      let* ad = get_ad fields in
      Ok (Corrupt { prob; ad; window })
    | "replay" ->
      let* at_time = get_time fields "at" in
      let* count = get_count fields "count" in
      Ok (Replay { at_time; count })
    | "forge" ->
      let* at_time = get_time fields "at" in
      let* ad = get_ad fields in
      Ok (Forge { at_time; ad })
    | "chatter" ->
      let* at_time = get_time fields "at" in
      let* flaps = get_count fields "flaps" in
      let* spacing = get_time fields "spacing" in
      let* ad = get_ad fields in
      Ok (Flap_chatter { at_time; ad; flaps; spacing })
    | other -> Error (Printf.sprintf "unknown fault kind %S" other))

let of_string s =
  if String.trim s = "" then Ok []
  else
    List.fold_left
      (fun acc part ->
        let* acc = acc in
        let* a = parse_action (String.trim part) in
        Ok (a :: acc))
      (Ok [])
      (String.split_on_char ';' s)
    |> Result.map List.rev

let check_ads t ~n =
  let named =
    List.filter_map
      (function
        | Crash { ad; _ } | Corrupt { ad; _ } | Forge { ad; _ } | Flap_chatter { ad; _ } -> ad
        | Drop _ | Duplicate _ | Delay _ | Reorder _ | Partition _ | Flap_storm _
        | Replay _ -> None)
      t
  in
  match List.find_opt (fun a -> a < 0 || a >= n) named with
  | None -> Ok ()
  | Some a ->
    Error (Printf.sprintf "ad=%d is not an AD of this internet (ADs 0..%d)" a (n - 1))

(* Times at which the plan changes the topology (fault onset *and*
   recovery): the harness probes forwarding just after each one. *)
let incident_times t =
  let times =
    List.concat_map
      (function
        | Drop _ | Duplicate _ | Delay _ | Reorder _ -> []
        | Crash { at_time; down_for; _ } ->
          at_time :: (match down_for with Some d -> [ at_time +. d ] | None -> [])
        | Partition { at_time; heal_after } ->
          at_time :: (match heal_after with Some h -> [ at_time +. h ] | None -> [])
        | Flap_storm { at_time; flaps; spacing }
        | Flap_chatter { at_time; flaps; spacing; _ } ->
          List.concat
            (List.init flaps (fun i ->
                 let tf = at_time +. (float_of_int i *. spacing) in
                 [ tf; tf +. storm_hold ~spacing ]))
        | Corrupt _ -> []
        | Replay { at_time; _ } | Forge { at_time; _ } -> [ at_time ])
      t
  in
  List.sort_uniq compare times

(* The moment the plan stops interfering: the last topology incident or
   the close of the last bounded message-fault window, whichever is
   later. Reconvergence time is measured from here. *)
let last_incident_time t =
  let wclose w = if Float.is_finite w.until_time then w.until_time else 0.0 in
  List.fold_left
    (fun acc a ->
      let t' =
        match a with
        | Drop { window; _ } | Duplicate { window; _ } -> wclose window
        | Delay { window; max_extra; _ } | Reorder { window; max_extra; _ } ->
          if Float.is_finite window.until_time then window.until_time +. max_extra else 0.0
        | Crash { at_time; down_for; _ } ->
          at_time +. Option.value down_for ~default:0.0
        | Partition { at_time; heal_after } ->
          at_time +. Option.value heal_after ~default:0.0
        | Flap_storm { at_time; flaps; spacing }
        | Flap_chatter { at_time; flaps; spacing; _ } ->
          if flaps = 0 then at_time
          else at_time +. (float_of_int (flaps - 1) *. spacing) +. storm_hold ~spacing
        | Corrupt { window; _ } -> wclose window
        | Replay { at_time; _ } | Forge { at_time; _ } -> at_time
      in
      Stdlib.max acc t')
    0.0 t

let has_message_faults t =
  List.exists
    (function Drop _ | Duplicate _ | Delay _ | Reorder _ -> true | _ -> false)
    t

let has_byzantine t =
  List.exists
    (function
      | Corrupt _ | Replay _ | Forge _ | Flap_chatter _ -> true | _ -> false)
    t

(* The grammar summary the CLI prints on a malformed plan string. *)
let grammar_help =
  String.concat "\n"
    [
      "plan grammar: ACTION(;ACTION)* where ACTION is one of";
      "  drop:p=P[,from=T][,until=T]        dup:p=P[,from=T][,until=T]";
      "  delay:p=P,max=T[,from=][,until=]   reorder:p=P,max=T[,from=][,until=]";
      "  crash:at=T[,down=T][,ad=N]         partition:at=T[,heal=T]";
      "  storm:at=T,flaps=N,spacing=T";
      "  corrupt:p=P[,ad=N][,from=T][,until=T]";
      "  replay:at=T,count=N                forge:at=T[,ad=N]";
      "  chatter:at=T,flaps=N,spacing=T[,ad=N]";
      "or profile:NAME / a bare profile name, one of: "
      ^ String.concat ", " profile_names;
    ]
