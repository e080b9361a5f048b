module Vec = Simgen_base.Vec

(* The MFFC is found by dereferencing fanout counts from the root, as
   ABC's [Abc_NodeDeref] does. Every node holds one reference per fanout
   edge (a gate reading a node twice holds two) plus one per PO tap: a PO
   is an external use, a path to a PO that does not pass through the
   root. Each member drops one reference from every fanin edge; a gate
   left with none has no use outside the cone and joins it. PIs never
   join. The members then give their references back, ready for the next
   query. The work is bounded by the fanin edges of the MFFC itself, not
   by the root's whole fanin cone. *)
type scratch = {
  net : Network.t;
  refs : int array;
      (* fanout edges plus PO taps; during a query, a fanin of a member
         is at zero exactly when it is a member too *)
  members : int Vec.t;  (* the current MFFC, root first *)
}

let scratch net =
  let refs = Array.make (Network.num_nodes net) 0 in
  Network.iter_nodes net (fun id ->
      Array.iter
        (fun fi -> refs.(fi) <- refs.(fi) + 1)
        (Network.fanins net id));
  Array.iter (fun po -> refs.(po) <- refs.(po) + 1) (Network.pos net);
  { net; refs; members = Vec.create ~dummy:0 () }

(* Fill [s.members] with the MFFC of [root]; the members also serve as
   the worklist, each dereferencing its fanins once. *)
let collect s root =
  Vec.clear s.members;
  if not (Network.is_pi s.net root) then begin
    Vec.push s.members root;
    let i = ref 0 in
    while !i < Vec.length s.members do
      Array.iter
        (fun fi ->
          if not (Network.is_pi s.net fi) then begin
            s.refs.(fi) <- s.refs.(fi) - 1;
            if s.refs.(fi) = 0 then Vec.push s.members fi
          end)
        (Network.fanins s.net (Vec.get s.members !i));
      incr i
    done
  end

let release s =
  Vec.iter
    (fun id ->
      Array.iter
        (fun fi ->
          if not (Network.is_pi s.net fi) then s.refs.(fi) <- s.refs.(fi) + 1)
        (Network.fanins s.net id))
    s.members

let compute net root =
  let s = scratch net in
  collect s root;
  List.sort Int.compare (Vec.to_list s.members)

(* Equation (2): a leaf is a member with no member among its fanins. *)
let scratch_depth s levels root =
  collect s root;
  let d =
    if Vec.is_empty s.members then 0.0
    else begin
      let root_level = levels.(root) in
      let total = ref 0 and nleaves = ref 0 in
      let member fi = (not (Network.is_pi s.net fi)) && s.refs.(fi) = 0 in
      Vec.iter
        (fun id ->
          if not (Array.exists member (Network.fanins s.net id)) then begin
            total := !total + (root_level - levels.(id));
            incr nleaves
          end)
        s.members;
      float_of_int !total /. float_of_int !nleaves
    end
  in
  release s;
  d

let depth net levels root = scratch_depth (scratch net) levels root

type cache = {
  s : scratch;  (* built once, not per depth query *)
  levels : int array;
  depths : float array;  (* nan = not computed yet *)
}

let cache net =
  {
    s = scratch net;
    levels = Level.compute net;
    depths = Array.make (Network.num_nodes net) Float.nan;
  }

let cached_depth c id =
  let d = c.depths.(id) in
  if Float.is_nan d then begin
    let d = scratch_depth c.s c.levels id in
    c.depths.(id) <- d;
    d
  end
  else d
