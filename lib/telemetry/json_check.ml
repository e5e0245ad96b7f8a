type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad of int * string

let fail pos msg = raise (Bad (pos, msg))

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail !pos (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail !pos ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail !pos "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 >= n then fail !pos "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail !pos "bad \\u escape"
              in
              (* Non-BMP handling is irrelevant for our own output; keep
                 the raw code point as UTF-8 for BMP, '?' otherwise. *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end;
              pos := !pos + 4
          | c -> fail !pos (Printf.sprintf "bad escape \\%c" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
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
    let lit = String.sub s start (!pos - start) in
    match float_of_string_opt lit with
    | Some f -> f
    | None -> fail start ("bad number " ^ lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail !pos "expected , or }"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail !pos "expected , or ]"
          in
          List (elements [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail !pos (Printf.sprintf "unexpected %c" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail !pos "trailing garbage";
  v

let parse s =
  try parse s with Bad (pos, msg) -> failwith (Printf.sprintf "json: %s at byte %d" msg pos)

let parse_opt s = try Ok (parse s) with Failure msg -> Error msg

(* --- printing ---------------------------------------------------------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Integral floats print without a fraction (the common case for our
   counters and ids); everything else uses %.17g, enough digits that
   [parse] recovers the same float. JSON has no NaN/Infinity literal, so
   non-finite numbers degrade to null — a parseable document beats a
   syntactically invalid one. *)
let number_literal f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec add_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f -> Buffer.add_string buf (number_literal f)
  | Str s -> escape_string buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add_json buf v)
        l;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          add_json buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  add_json buf j;
  Buffer.contents buf

let pp ppf j = Format.pp_print_string ppf (to_string j)

(* --- Chrome trace-event schema ----------------------------------------- *)

let field obj key = List.assoc_opt key obj

let validate_event i ev =
  let err msg = Error (Printf.sprintf "event %d: %s" i msg) in
  match ev with
  | Obj fields -> (
      let num key =
        match field fields key with
        | Some (Num _) -> Ok ()
        | Some _ -> err (key ^ " is not a number")
        | None -> err ("missing " ^ key)
      in
      match field fields "ph" with
      | Some (Str ph)
        when String.length ph = 1 && String.contains "XiCMBE" ph.[0] -> (
          let ( let* ) = Result.bind in
          let* () =
            match field fields "name" with
            | Some (Str _) -> Ok ()
            | Some _ -> err "name is not a string"
            | None -> err "missing name"
          in
          let* () = num "pid" in
          let* () = if ph = "M" then Ok () else num "ts" in
          let* () =
            match ph with "X" | "i" | "B" | "E" -> num "tid" | _ -> Ok ()
          in
          if ph = "X" then num "dur" else Ok ())
      | Some (Str ph) -> err ("bad ph " ^ ph)
      | Some _ -> err "ph is not a string"
      | None -> err "missing ph")
  | _ -> err "not an object"

let validate_chrome_trace s =
  match parse_opt s with
  | Error msg -> Error msg
  | Ok (Obj fields) -> (
      match field fields "traceEvents" with
      | Some (List events) ->
          let rec go i = function
            | [] -> Ok i
            | ev :: rest -> (
                match validate_event i ev with
                | Ok () -> go (i + 1) rest
                | Error _ as e -> e)
          in
          go 0 events
      | Some _ -> Error "traceEvents is not an array"
      | None -> Error "missing traceEvents")
  | Ok _ -> Error "top level is not an object"
