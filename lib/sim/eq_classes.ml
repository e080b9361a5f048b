module N = Simgen_network.Network

type t = {
  net : N.t;
  mutable groups : int list list;  (* classes of size >= 2, members sorted *)
  (* node id -> its current class, [] for singletons and PIs; the sweeper's
     worklist consults it once per SAT call. Refinement rewrites only the
     entries of classes that split. *)
  by_node : int list array;
}

let index t group = List.iter (fun id -> t.by_node.(id) <- group) group

let create net =
  let gates = ref [] in
  N.iter_gates net (fun id -> gates := id :: !gates);
  let members = List.rev !gates in
  let groups = if List.length members >= 2 then [ members ] else [] in
  let t = { net; groups; by_node = Array.make (N.num_nodes net) [] } in
  List.iter (index t) groups;
  t

let split_group key group =
  (* Partition a class by a per-node key; keep only parts of size >= 2. *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun id ->
      let k = key id in
      Hashtbl.replace tbl k (id :: (Option.value ~default:[] (Hashtbl.find_opt tbl k))))
    group;
  Hashtbl.fold
    (fun _ members acc ->
      match members with
      | [] | [ _ ] -> acc
      | ms -> List.rev ms :: acc)
    tbl []

(* Most classes do not split on a given batch; those keep their list and
   their index entries, so only split classes are hashed and re-indexed. *)
let refine_with_key t equal key =
  let changed = ref false in
  let groups =
    List.concat_map
      (fun group ->
        match group with
        | first :: rest
          when let k = key first in
               not (List.for_all (fun id -> equal (key id) k) rest) ->
            changed := true;
            let parts = split_group key group in
            List.iter (fun id -> t.by_node.(id) <- []) group;
            List.iter (index t) parts;
            parts
        | _ -> [ group ])
      t.groups
  in
  if !changed then
    t.groups <-
      List.sort
        (fun a b ->
          match (a, b) with
          | x :: _, y :: _ -> compare x y
          | _ -> assert false)
        groups

let refine_word t words = refine_with_key t Int64.equal (fun id -> words.(id))

let refine_vector t values = refine_with_key t Bool.equal (fun id -> values.(id))

let classes t = t.groups

let num_classes t = List.length t.groups

let cost t =
  List.fold_left (fun acc g -> acc + List.length g - 1) 0 t.groups

let class_of t id =
  if id >= 0 && id < Array.length t.by_node then t.by_node.(id) else []

let copy t = { t with by_node = Array.copy t.by_node }
