module Srcloc = Simgen_base.Srcloc

type severity = Error | Warning | Info

type location =
  | Node of int
  | Clause of int
  | Named of string
  | Src of Srcloc.t
  | Nowhere

type t = {
  code : string;
  severity : severity;
  loc : location;
  message : string;
}

let make severity ?(loc = Nowhere) code fmt =
  Format.kasprintf (fun message -> { code; severity; loc; message }) fmt

let error ?loc code fmt = make Error ?loc code fmt
let warn ?loc code fmt = make Warning ?loc code fmt
let info ?loc code fmt = make Info ?loc code fmt

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let max_severity = function
  | [] -> None
  | ds ->
      Some
        (List.fold_left
           (fun acc d ->
             if severity_rank d.severity > severity_rank acc then d.severity
             else acc)
           Info ds)

let counts ds =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) ds

let exit_code ds =
  match max_severity ds with
  | Some Error -> 2
  | Some Warning -> 1
  | Some Info | None -> 0

let sort ds =
  List.stable_sort
    (fun a b ->
      let c = compare (severity_rank b.severity) (severity_rank a.severity) in
      if c <> 0 then c else compare a.code b.code)
    ds

let loc_to_string = function
  | Node id -> Printf.sprintf "node %d" id
  | Clause i -> Printf.sprintf "clause %d" i
  | Named n -> n
  | Src l -> Option.value ~default:"" (Srcloc.to_string l)
  | Nowhere -> ""

let to_string d =
  let loc = loc_to_string d.loc in
  if loc = "" then
    Printf.sprintf "%s %s: %s" d.code (severity_name d.severity) d.message
  else
    Printf.sprintf "%s %s %s: %s" d.code (severity_name d.severity) loc
      d.message

let pp fmt d = Format.pp_print_string fmt (to_string d)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  Simgen_base.Json.escape buf s;
  Buffer.contents buf

let loc_to_json = function
  | Node id -> Printf.sprintf {|{"node":%d}|} id
  | Clause i -> Printf.sprintf {|{"clause":%d}|} i
  | Named n -> Printf.sprintf {|{"name":"%s"}|} (json_escape n)
  | Src l -> (
      match (l.Srcloc.file, l.Srcloc.line) with
      | Some f, Some n ->
          Printf.sprintf {|{"file":"%s","line":%d}|} (json_escape f) n
      | Some f, None -> Printf.sprintf {|{"file":"%s"}|} (json_escape f)
      | None, Some n -> Printf.sprintf {|{"line":%d}|} n
      | None, None -> "{}")
  | Nowhere -> "{}"

(* Bumped whenever the JSONL shape changes; downstream telemetry
   consumers key on it. Guarded by the golden-file test in
   test/test_check.ml — update both together. *)
let schema_version = 1

let to_json d =
  Printf.sprintf
    {|{"schema_version":%d,"code":"%s","severity":"%s","loc":%s,"message":"%s"}|}
    schema_version (json_escape d.code) (severity_name d.severity)
    (loc_to_json d.loc) (json_escape d.message)

let render ?(json = false) fmt ds =
  List.iter
    (fun d ->
      if json then Format.fprintf fmt "%s@." (to_json d)
      else Format.fprintf fmt "%a@." pp d)
    (sort ds)
