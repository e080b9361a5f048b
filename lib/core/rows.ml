module TT = Simgen_network.Truth_table
module Isop = Simgen_network.Isop
module Cube = Simgen_network.Cube

module Table = Hashtbl.Make (struct
  type t = TT.t

  let equal = TT.equal
  let hash = TT.hash
end)

type row = int

type t = row array Table.t

let () = assert (TT.max_vars <= 16 && Sys.int_size > 33)

let field = 0xFFFF
let care r = r land field
let value r = (r lsr 16) land field
let out r = r lsr 32 <> 0

let popcount m =
  let rec go m n = if m = 0 then n else go (m land (m - 1)) (n + 1) in
  go m 0

let dc_size ~nvars r = nvars - popcount (care r)

let matches r ~assigned ~values out =
  care r land assigned land (value r lxor values) = 0
  && (out < 0 || r lsr 32 = out)

type agreement = {
  mutable matched : int;
  mutable fixed : int;
  mutable ones : int;
  mutable out : int;
}

let agreement () = { matched = 0; fixed = 0; ones = 0; out = -1 }

(* Over the matching rows: [and_care] holds the inputs every row cares
   about, [all1] / [any1] the AND / OR of their value masks. An input in
   [and_care] has one common value iff all rows say 1 ([all1]) or none
   does (not [any1]); likewise for the output bits. *)
let agree rows ~assigned ~values out a =
  let matched = ref 0 in
  let and_care = ref (-1) and all1 = ref (-1) and any1 = ref 0 in
  let out_and = ref 1 and out_or = ref 0 in
  for r = 0 to Array.length rows - 1 do
    let row = rows.(r) in
    if matches row ~assigned ~values out then begin
      incr matched;
      and_care := !and_care land care row;
      all1 := !all1 land value row;
      any1 := !any1 lor value row;
      out_and := !out_and land (row lsr 32);
      out_or := !out_or lor (row lsr 32)
    end
  done;
  a.matched <- !matched;
  a.fixed <- !and_care land (!all1 lor lnot !any1);
  a.ones <- a.fixed land !all1;
  a.out <- (if !out_and = !out_or then !out_and else -1)

let of_cube (c : Cube.t) =
  let r = ref (if c.Cube.out then 1 lsl 32 else 0) in
  Array.iteri
    (fun i l ->
      match l with
      | Cube.DC -> ()
      | Cube.F -> r := !r lor (1 lsl i)
      | Cube.T -> r := !r lor (1 lsl i) lor (1 lsl (i + 16)))
    c.Cube.lits;
  !r

let create () = Table.create 64

let get cache f =
  match Table.find_opt cache f with
  | Some rows -> rows
  | None ->
      let rows = Array.of_list (List.map of_cube (Isop.rows f)) in
      Table.replace cache f rows;
      rows
