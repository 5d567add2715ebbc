type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------ *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.12g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let rec write ~indent ~level buf v =
  let nl pad =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * pad) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf (if indent then "," else ", ");
        nl (level + 1);
        write ~indent ~level:(level + 1) buf item)
      items;
    nl level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, value) ->
        if i > 0 then Buffer.add_string buf (if indent then "," else ", ");
        nl (level + 1);
        escape_to buf name;
        Buffer.add_string buf ": ";
        write ~indent ~level:(level + 1) buf value)
      fields;
    nl level;
    Buffer.add_char buf '}'

let render ~indent v =
  let buf = Buffer.create 256 in
  write ~indent ~level:0 buf v;
  Buffer.contents buf

let to_string v = render ~indent:false v

let to_string_pretty v = render ~indent:true v

let write_file ?(pretty = false) ~path v =
  let text = (if pretty then to_string_pretty else to_string) v ^ "\n" in
  match Out_channel.with_open_text path (fun oc -> output_string oc text) with
  | () -> Ok ()
  | exception Sys_error e -> Error ("cannot write " ^ e)

(* --- parsing ------------------------------------------------------- *)

exception Parse_error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> error (Printf.sprintf "expected %c, got %c" c got)
    | None -> error (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else error (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then error "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then error "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; advance ()
             | '\\' -> Buffer.add_char buf '\\'; advance ()
             | '/' -> Buffer.add_char buf '/'; advance ()
             | 'n' -> Buffer.add_char buf '\n'; advance ()
             | 'r' -> Buffer.add_char buf '\r'; advance ()
             | 't' -> Buffer.add_char buf '\t'; advance ()
             | 'b' -> Buffer.add_char buf '\b'; advance ()
             | 'f' -> Buffer.add_char buf '\012'; advance ()
             | 'u' ->
               advance ();
               if !pos + 4 > n then error "truncated \\u escape";
               let code =
                 try int_of_string ("0x" ^ String.sub s !pos 4)
                 with _ -> error "invalid \\u escape"
               in
               pos := !pos + 4;
               (* Non-ASCII code points re-encode as UTF-8. *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
               end
               else begin
                 Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                 Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
               end
             | c -> error (Printf.sprintf "invalid escape \\%c" c));
          loop ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error (Printf.sprintf "invalid number %s" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let parse_field () =
          skip_ws ();
          let name = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          (name, value)
        in
        let fields = ref [ parse_field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := parse_field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (Printf.sprintf "at %d: %s" at msg)

(* --- destruction --------------------------------------------------- *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "list"
  | Obj _ -> "object"

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_int = function
  | Int i -> Ok i
  | Float f when Float.is_integer f -> Ok (int_of_float f)
  | v -> Error (Printf.sprintf "expected int, got %s" (type_name v))

let to_float = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | v -> Error (Printf.sprintf "expected number, got %s" (type_name v))

let to_str = function
  | String s -> Ok s
  | v -> Error (Printf.sprintf "expected string, got %s" (type_name v))

let to_list = function
  | List items -> Ok items
  | v -> Error (Printf.sprintf "expected list, got %s" (type_name v))

let with_field name convert v =
  match member name v with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some inner -> (
    match convert inner with
    | Ok _ as ok -> ok
    | Error e -> Error (Printf.sprintf "field %S: %s" name e))

let int_member name v = with_field name to_int v

let float_member name v = with_field name to_float v

let string_member name v = with_field name to_str v
