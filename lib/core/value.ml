type t = Zero | One | Unknown

let of_bool b = if b then One else Zero

let to_bool = function One -> Some true | Zero -> Some false | Unknown -> None

let is_assigned = function Unknown -> false | Zero | One -> true

let equal (a : t) (b : t) = a = b

let to_char = function Zero -> '0' | One -> '1' | Unknown -> '-'

let pp fmt v = Format.pp_print_char fmt (to_char v)
