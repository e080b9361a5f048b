(* Versioned JSONL protocol: hand-rolled JSON reader/writer plus the
   request/frame vocabulary. The writer matches the conventions of
   [Events.to_json] (string escapes, %.6f floats) so daemon telemetry
   frames embed runner events verbatim. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(* ---------------- printer ---------------- *)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (Printf.sprintf "%.6f" f)
  | String s ->
      Buffer.add_char buf '"';
      Simgen_base.Json.escape buf s;
      Buffer.add_char buf '"'
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
          Buffer.add_char buf '"';
          Simgen_base.Json.escape buf name;
          Buffer.add_string buf "\":";
          write buf x)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* ---------------- parser ---------------- *)

exception Bad of string

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
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
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
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'n' -> Buffer.add_char buf '\n'
               | 'r' -> Buffer.add_char buf '\r'
               | 't' -> Buffer.add_char buf '\t'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'u' ->
                   if !pos + 4 >= n then fail "short unicode escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   let code =
                     match int_of_string_opt ("0x" ^ hex) with
                     | Some c -> c
                     | None -> fail "bad unicode escape"
                   in
                   (* The repo only emits control-range escapes; decode
                      the latin subset and pass anything else through as
                      '?' rather than building a UTF-8 encoder. *)
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else Buffer.add_char buf '?'
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            (match s.[!pos] with
             | 'u' -> pos := !pos + 5
             | _ -> advance ());
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
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail ("bad number " ^ tok))
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
          let field () =
            skip_ws ();
            let name = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (name, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
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

(* ---------------- requests and frames ---------------- *)

let version = 1

type request =
  | Ping
  | Stats
  | Shutdown
  | Lint of { target : string }
  | Job of { cmd : string; args : string; deadline_ms : int option }

let job_cmds = [ "sweep"; "cec"; "certify" ]

let request_to_line ~id req =
  let base = [ ("v", Int version); ("id", Int id) ] in
  let fields =
    match req with
    | Ping -> base @ [ ("cmd", String "ping") ]
    | Stats -> base @ [ ("cmd", String "stats") ]
    | Shutdown -> base @ [ ("cmd", String "shutdown") ]
    | Lint { target } ->
        base @ [ ("cmd", String "lint"); ("target", String target) ]
    | Job { cmd; args; deadline_ms } ->
        base
        @ [ ("cmd", String cmd); ("args", String args) ]
        @ (match deadline_ms with
           | Some ms -> [ ("deadline_ms", Int ms) ]
           | None -> [])
  in
  to_string (Obj fields)

let request_of_line line =
  match parse line with
  | Error msg -> Error ("bad json: " ^ msg)
  | Ok j -> (
      match (int_member "v" j, int_member "id" j, string_member "cmd" j) with
      | Some v, _, _ when v <> version ->
          Error (Printf.sprintf "unsupported protocol version %d" v)
      | Some _, Some id, Some cmd -> (
          match cmd with
          | "ping" -> Ok (id, Ping)
          | "stats" -> Ok (id, Stats)
          | "shutdown" -> Ok (id, Shutdown)
          | "lint" -> (
              match string_member "target" j with
              | Some target -> Ok (id, Lint { target })
              | None -> Error "lint: missing target")
          | cmd when List.mem cmd job_cmds -> (
              match string_member "args" j with
              | Some args ->
                  let deadline_ms = int_member "deadline_ms" j in
                  (match deadline_ms with
                   | Some ms when ms <= 0 ->
                       Error (cmd ^ ": deadline_ms must be positive")
                   | _ -> Ok (id, Job { cmd; args; deadline_ms }))
              | None -> Error (cmd ^ ": missing args"))
          | cmd -> Error ("unknown cmd " ^ cmd))
      | _ -> Error "request needs v, id and cmd fields")

type frame =
  | Event of json
  | Result of (string * json) list
  | Failed of string
  | Overloaded of { retry_after : float }

let frame_to_line ~id frame =
  let fields =
    match frame with
    | Event e -> [ ("id", Int id); ("type", String "event"); ("event", e) ]
    | Result fs -> ("id", Int id) :: ("type", String "result") :: fs
    | Failed msg ->
        [ ("id", Int id); ("type", String "error"); ("message", String msg) ]
    | Overloaded { retry_after } ->
        [
          ("id", Int id);
          ("type", String "overloaded");
          ("retry_after", Float retry_after);
        ]
  in
  to_string (Obj fields)

let frame_of_line line =
  match parse line with
  | Error msg -> Error ("bad json: " ^ msg)
  | Ok j -> (
      match (int_member "id" j, string_member "type" j) with
      | Some id, Some "event" -> (
          match member "event" j with
          | Some e -> Ok (id, Event e)
          | None -> Error "event frame without event")
      | Some id, Some "result" -> (
          match j with
          | Obj fields ->
              Ok
                ( id,
                  Result
                    (List.filter
                       (fun (name, _) -> name <> "id" && name <> "type")
                       fields) )
          | Null | Bool _ | Int _ | Float _ | String _ | List _ ->
              Error "malformed result frame")
      | Some id, Some "error" -> (
          match string_member "message" j with
          | Some msg -> Ok (id, Failed msg)
          | None -> Error "error frame without message")
      | Some id, Some "overloaded" ->
          let retry_after =
            match member "retry_after" j with
            | Some (Float f) -> f
            | Some (Int i) -> float_of_int i
            | Some (Null | Bool _ | String _ | List _ | Obj _) | None -> 0.1
          in
          Ok (id, Overloaded { retry_after })
      | _ -> Error "frame needs id and type fields")
