(* A PO tap is an external use: a path from the node to a PO that does not
   pass through the root, even when every gate fanout stays inside the
   cone. *)
let po_mask net =
  let tapped = Array.make (Network.num_nodes net) false in
  Array.iter (fun po -> tapped.(po) <- true) (Network.pos net);
  tapped

let compute_tapped net po_tapped root =
  if Network.is_pi net root then []
  else begin
    let in_mffc = Hashtbl.create 16 in
    Hashtbl.replace in_mffc root ();
    (* Fanin cone in fanins-first order; visiting it in reverse puts every
       node after all of its fanouts that lie in the cone, so the
       "all fanouts already in the MFFC" test is well-defined. *)
    let cone = Cone.fanin_cone net root in
    let rev = List.rev cone in
    List.iter
      (fun id ->
        if id <> root && not (Network.is_pi net id)
           && not po_tapped.(id)
        then
          let fos = Network.fanouts net id in
          if fos <> [] && List.for_all (Hashtbl.mem in_mffc) fos then
            Hashtbl.replace in_mffc id ())
      rev;
    List.filter (Hashtbl.mem in_mffc) cone
  end

let compute net root = compute_tapped net (po_mask net) root

let leaves net members =
  let mask = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace mask id ()) members;
  List.filter
    (fun id ->
      not
        (Array.exists (Hashtbl.mem mask) (Network.fanins net id)))
    members

let depth_tapped net levels po_tapped root =
  match compute_tapped net po_tapped root with
  | [] -> 0.0
  | members ->
      let lvs = leaves net members in
      let root_level = levels.(root) in
      let total =
        List.fold_left
          (fun acc leaf -> acc + (root_level - levels.(leaf)))
          0 lvs
      in
      float_of_int total /. float_of_int (List.length lvs)

let depth net levels root = depth_tapped net levels (po_mask net) root

type cache = {
  net : Network.t;
  levels : int array;
  po_tapped : bool array;  (* built once, not per depth query *)
  depths : float array;  (* nan = not computed yet *)
}

let cache net =
  {
    net;
    levels = Level.compute net;
    po_tapped = po_mask net;
    depths = Array.make (Network.num_nodes net) Float.nan;
  }

let cached_depth c id =
  let d = c.depths.(id) in
  if Float.is_nan d then begin
    let d = depth_tapped c.net c.levels c.po_tapped id in
    c.depths.(id) <- d;
    d
  end
  else d
