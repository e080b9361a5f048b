type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------------- printer ---------------- *)

let escape buf s =
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
    s

let add_string buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f when not (Float.is_finite f) -> Buffer.add_string buf "null"
  | Float f -> Buffer.add_string buf (Printf.sprintf "%.6f" f)
  | String s -> add_string buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (name, x) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf name;
          Buffer.add_char buf ':';
          write buf x)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* ---------------- parser ---------------- *)

exception Bad of string

(* RFC 8259's number grammar: -? (0 | [1-9][0-9]* ) (. [0-9]+)?
   ([eE] [+-]? [0-9]+)?. OCaml's own conversions also take a leading
   [+], leading zeros and bare [1.] or [.5], which JSON does not. *)
let rfc_number tok =
  let n = String.length tok in
  let digits i =
    let j = ref i in
    while !j < n && tok.[!j] >= '0' && tok.[!j] <= '9' do
      incr j
    done;
    !j
  in
  let i = if n > 0 && tok.[0] = '-' then 1 else 0 in
  let i =
    if i < n && tok.[i] = '0' then i + 1
    else if i < n && tok.[i] >= '1' && tok.[i] <= '9' then digits i
    else -1
  in
  let i =
    if i >= 0 && i < n && tok.[i] = '.' then
      let j = digits (i + 1) in
      if j > i + 1 then j else -1
    else i
  in
  let i =
    if i >= 0 && i < n && (tok.[i] = 'e' || tok.[i] = 'E') then
      let sign = i + 1 < n && (tok.[i + 1] = '+' || tok.[i + 1] = '-') in
      let i = if sign then i + 2 else i + 1 in
      let j = digits i in
      if j > i then j else -1
    else i
  in
  i = n

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
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
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail ("expected " ^ word)
  in
  (* The four hex digits of a \u escape; [!pos] is on the 'u'. *)
  let hex4 () =
    if !pos + 4 >= n then fail "short unicode escape";
    let code = ref 0 in
    for i = 1 to 4 do
      let d =
        match s.[!pos + i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad unicode escape"
      in
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 5;
    !code
  in
  (* A \u escape decoded to UTF-8; a UTF-16 surrogate pair is one code
     point, and half a pair is an error. *)
  let unicode buf =
    let code = hex4 () in
    let code =
      if code >= 0xDC00 && code <= 0xDFFF then fail "lone low surrogate"
      else if code >= 0xD800 && code <= 0xDBFF then begin
        if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
          advance ();
          let low = hex4 () in
          if low < 0xDC00 || low > 0xDFFF then fail "lone high surrogate";
          0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
        end
        else fail "lone high surrogate"
      end
      else code
    in
    Buffer.add_utf_8_uchar buf (Uchar.of_int code)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
             | 'u' -> unicode buf
             | c ->
                 Buffer.add_char buf
                   (match c with
                    | '"' | '\\' | '/' -> c
                    | 'n' -> '\n'
                    | 'r' -> '\r'
                    | 't' -> '\t'
                    | 'b' -> '\b'
                    | 'f' -> '\012'
                    | c -> fail (Printf.sprintf "bad escape \\%c" c));
                 advance ());
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
    let is_num c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if not (rfc_number tok) then fail ("bad number " ^ tok);
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f when Float.is_finite f -> Float f
        | Some _ -> fail ("number out of range " ^ tok)
        | None -> fail ("bad number " ^ tok))
  in
  (* Comma-separated items up to [close]; the opening bracket is
     consumed. *)
  let items close item =
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else begin
      let acc = ref [ item () ] in
      skip_ws ();
      while peek () = Some ',' do
        advance ();
        acc := item () :: !acc;
        skip_ws ()
      done;
      expect close;
      List.rev !acc
    end
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "empty input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        List (items ']' parse_value)
    | Some '{' ->
        advance ();
        Obj
          (items '}' (fun () ->
               skip_ws ();
               let name = parse_string () in
               skip_ws ();
               expect ':';
               (name, parse_value ())))
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing input at offset %d" !pos)
    else Ok v
  with Bad msg -> Error msg

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let int_member name j =
  match member name j with
  | Some (Int i) -> Some i
  | Some (Null | Bool _ | Float _ | String _ | List _ | Obj _) | None -> None

let string_member name j =
  match member name j with
  | Some (String s) -> Some s
  | Some (Null | Bool _ | Int _ | Float _ | List _ | Obj _) | None -> None
