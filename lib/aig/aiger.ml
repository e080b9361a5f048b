module Srcloc = Simgen_base.Srcloc

exception Parse_error of Srcloc.t * string

let () =
  Printexc.register_printer (function
    | Parse_error (loc, msg) ->
        Some
          (match Srcloc.to_string loc with
           | Some at -> Printf.sprintf "AIGER parse error: %s: %s" at msg
           | None -> Printf.sprintf "AIGER parse error: %s" msg)
    | _ -> None)

let fail_at loc fmt = Printf.ksprintf (fun s -> raise (Parse_error (loc, s))) fmt

let parse_string ?file text =
  let floc = Srcloc.make ?file () in
  let loc line = Srcloc.with_line floc line in
  (* Keep the 1-based physical line of every non-empty line so errors in
     the positional body sections can name their source line. *)
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  match lines with
  | [] -> fail_at floc "empty file"
  | (header_line, header) :: rest ->
      let ints at s =
        String.split_on_char ' ' s
        |> List.filter (fun x -> x <> "")
        |> List.map (fun x ->
               match int_of_string_opt x with
               | Some v -> v
               | None -> fail_at at "bad integer %S" x)
      in
      let m, i, l, o, a =
        match String.split_on_char ' ' header with
        | "aag" :: nums ->
            (match List.map int_of_string_opt nums with
             | [ Some m; Some i; Some l; Some o; Some a ] -> (m, i, l, o, a)
             | _ -> fail_at (loc header_line) "bad header %S" header)
        | _ -> fail_at (loc header_line) "not an aag file"
      in
      if m < 0 || i < 0 || l < 0 || o < 0 || a < 0 then
        fail_at (loc header_line) "negative count in header %S" header;
      if l <> 0 then fail_at (loc header_line) "latches not supported";
      let body = Array.of_list rest in
      let n = Array.length body in
      (* Bound each count before summing, so the sums cannot overflow. *)
      if i > n || o > n || a > n || i + o + a > n then
        fail_at floc "truncated file";
      if m < i + a then
        fail_at (loc header_line) "header M = %d is below I + L + A = %d" m
          (i + a);
      let aig = Aig.create ~name:"aiger" () in
      (* map: the file's variable v -> our literal for v viewed
         uncomplemented (constant folding may complement it). A table, not
         an array of M + 1 slots: M comes from the file and may be huge. *)
      let map = Hashtbl.create (min m (i + a) + 1) in
      Hashtbl.replace map 0 Aig.false_;
      let our_lit at file_lit =
        match Hashtbl.find_opt map (file_lit / 2) with
        | Some lit when file_lit >= 0 && file_lit / 2 <= m ->
            if file_lit land 1 = 1 then Aig.not_ lit else lit
        | _ -> fail_at at "undefined literal %d" file_lit
      in
      (* A literal an input or AND defines: even, not the constant, within
         2M + 1, and not defined before. *)
      let define at what file_lit node =
        if file_lit land 1 = 1 then fail_at at "complemented %s" what;
        if file_lit < 2 || file_lit / 2 > m then
          fail_at at "%s literal %d outside 2..2M = %d" what file_lit (2 * m);
        if Hashtbl.mem map (file_lit / 2) then
          fail_at at "%s literal %d defined twice" what file_lit;
        Hashtbl.replace map (file_lit / 2) (node ())
      in
      for k = 0 to i - 1 do
        let line_no, content = body.(k) in
        let at = loc line_no in
        match ints at content with
        | [ lit ] -> define at "input" lit (fun () -> Aig.add_pi aig)
        | _ -> fail_at at "bad input line"
      done;
      let po_lits =
        Array.init o (fun k ->
            let line_no, content = body.(i + k) in
            let at = loc line_no in
            match ints at content with
            | [ lit ] -> (at, lit)
            | _ -> fail_at at "bad output line")
      in
      for k = 0 to a - 1 do
        let line_no, content = body.(i + o + k) in
        let at = loc line_no in
        match ints at content with
        | [ lhs; rhs0; rhs1 ] ->
            define at "AND lhs" lhs (fun () ->
                Aig.and_ aig (our_lit at rhs0) (our_lit at rhs1))
        | _ -> fail_at at "bad and line"
      done;
      Array.iter (fun (at, lit) -> Aig.add_po aig (our_lit at lit)) po_lits;
      aig

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse_string ~file:path s

let to_string aig =
  let buf = Buffer.create 4096 in
  (* Assign compact aag variable numbers: inputs then ANDs in topo order. *)
  let n = Aig.num_nodes aig in
  let var = Array.make n (-1) in
  var.(Aig.node_of_lit Aig.false_) <- 0;
  let next = ref 1 in
  Array.iter
    (fun id ->
      var.(id) <- !next;
      incr next)
    (Aig.pis aig);
  Aig.iter_ands aig (fun id ->
      var.(id) <- !next;
      incr next);
  let file_lit l =
    (2 * var.(Aig.node_of_lit l)) lor (if Aig.is_complemented l then 1 else 0)
  in
  let num_ands = Aig.num_ands aig in
  Buffer.add_string buf
    (Printf.sprintf "aag %d %d 0 %d %d\n" (!next - 1) (Aig.num_pis aig)
       (Aig.num_pos aig) num_ands);
  Array.iter
    (fun id -> Buffer.add_string buf (Printf.sprintf "%d\n" (2 * var.(id))))
    (Aig.pis aig);
  Array.iter
    (fun l -> Buffer.add_string buf (Printf.sprintf "%d\n" (file_lit l)))
    (Aig.pos aig);
  Aig.iter_ands aig (fun id ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d\n" (2 * var.(id))
           (file_lit (Aig.fanin0 aig id))
           (file_lit (Aig.fanin1 aig id))));
  Buffer.contents buf

let write_file path aig =
  let oc = open_out path in
  output_string oc (to_string aig);
  close_out oc
