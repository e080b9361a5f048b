module N = Simgen_network.Network

type outcome = Fixpoint | Conflict_at of N.node_id

(* FIFO worklist of gate ids: a ring buffer with an in-queue flag per node,
   so each node is queued at most once and [num_nodes] slots suffice. *)
module Worklist = struct
  type t = {
    ring : int array;
    flags : bool array;
    mutable head : int;
    mutable len : int;
  }

  let create n =
    { ring = Array.make (max n 1) 0; flags = Array.make n false; head = 0; len = 0 }

  let push t id =
    if not t.flags.(id) then begin
      t.flags.(id) <- true;
      let cap = Array.length t.ring in
      let tail = t.head + t.len in
      t.ring.(if tail >= cap then tail - cap else tail) <- id;
      t.len <- t.len + 1
    end

  (* The next id, or -1 when empty. *)
  let pop t =
    if t.len = 0 then -1
    else begin
      let id = t.ring.(t.head) in
      let next = t.head + 1 in
      t.head <- (if next = Array.length t.ring then 0 else next);
      t.len <- t.len - 1;
      t.flags.(id) <- false;
      id
    end

  let clear t =
    while pop t >= 0 do
      ()
    done
end

(* A node set cleared in O(1): members carry the current epoch. *)
module Marks = struct
  type t = { stamp : int array; mutable epoch : int }

  let create n = { stamp = Array.make n 0; epoch = 1 }
  let mem t id = t.stamp.(id) = t.epoch
  let add t id = t.stamp.(id) <- t.epoch
  let clear t = t.epoch <- t.epoch + 1
end

type t = {
  net : N.t;
  cfg : Config.t;
  advanced : bool;
  backward_only : bool;
  rows : Rows.t;
  node_rows : Rows.row array array;  (* per-node view of [rows]; [||] = not yet *)
  assignment : Assignment.t;
  queue : Worklist.t;
  agree : Rows.agreement;  (* scratch for [examine] *)
  mutable scoped : bool;
  scope : Marks.t;
  cone : Marks.t;
  stack : int array;  (* DFS scratch for cone marking *)
  mutable pending_conflict : N.node_id;  (* -1 = none *)
  mutable implications : int;
  mutable examinations : int;
}

let create ?(config = Config.default) net =
  let n = N.num_nodes net in
  {
    net;
    cfg = config;
    advanced = config.Config.implication = Config.Advanced;
    backward_only = config.Config.direction = Config.Backward_only;
    rows = Rows.create ();
    node_rows = Array.make n [||];
    assignment = Assignment.create n;
    queue = Worklist.create n;
    agree = Rows.agreement ();
    scoped = false;
    scope = Marks.create n;
    cone = Marks.create n;
    stack = Array.make n 0;
    pending_conflict = -1;
    implications = 0;
    examinations = 0;
  }

let network t = t.net
let assignment t = t.assignment
let config t = t.cfg

(* Every function has at least one row (a constant has its single all-DC
   cube), so an empty entry means "not cached yet". *)
let rows_of t id =
  match t.node_rows.(id) with
  | [||] ->
      let rows = Rows.get t.rows (N.func t.net id) in
      t.node_rows.(id) <- rows;
      rows
  | rows -> rows

let value t id = Assignment.value t.assignment id

let out_code = function Value.Unknown -> -1 | Value.Zero -> 0 | Value.One -> 1

(* The gate's fanin values as (assigned, values) masks. Packed into one
   int, assigned in the low half, so that the hot path returns without
   allocating. *)
let fanin_masks t fanins =
  let m = ref 0 in
  for i = 0 to Array.length fanins - 1 do
    match value t fanins.(i) with
    | Value.Unknown -> ()
    | Value.Zero -> m := !m lor (1 lsl i)
    | Value.One -> m := !m lor (1 lsl i) lor (1 lsl (i + 16))
  done;
  !m

let matching t g buf =
  let masks = fanin_masks t (N.fanins t.net g) in
  let assigned = masks land 0xFFFF and values = masks lsr 16 in
  let out = out_code (value t g) in
  let rows = rows_of t g in
  let n = ref 0 in
  for r = 0 to Array.length rows - 1 do
    if Rows.matches rows.(r) ~assigned ~values out then begin
      buf.(!n) <- r;
      incr n
    end
  done;
  !n

let in_scope t id = (not t.scoped) || Marks.mem t.scope id

(* Mark the union of the roots' fanin cones in [marks], after clearing it. *)
let mark_cones t marks roots =
  Marks.clear marks;
  let sp = ref 0 in
  let visit id =
    if not (Marks.mem marks id) then begin
      Marks.add marks id;
      t.stack.(!sp) <- id;
      incr sp
    end
  in
  List.iter visit roots;
  while !sp > 0 do
    decr sp;
    let fanins = N.fanins t.net t.stack.(!sp) in
    for i = 0 to Array.length fanins - 1 do
      visit fanins.(i)
    done
  done

let set_scope t roots =
  mark_cones t t.scope roots;
  t.scoped <- true

let clear_scope t = t.scoped <- false
let mark_cone t root = mark_cones t t.cone [ root ]
let in_cone t id = Marks.mem t.cone id

(* Schedule the gates affected by a new value at [id]. Gates outside the
   current scope (the class's fanin-cone union during Algorithm 1) are not
   examined: the paper's propagation is cone-local, and values outside the
   scope can never need justification.

   Fanouts are scheduled in both directions. In [Backward_only] mode the
   examination of a fanout whose own output is still unassigned is a no-op
   (see [examine]), so this adds no forward implication power to reverse
   simulation -- it only re-checks gates whose output was already required,
   exactly the "conflicting assignment at any internal node" detection of
   the reverse-simulation procedure (paper section 1, step 5). *)
let rec push_fanouts t = function
  | [] -> ()
  | fo :: rest ->
      if in_scope t fo then Worklist.push t.queue fo;
      push_fanouts t rest

let touch t id =
  if (not (N.is_pi t.net id)) && in_scope t id then Worklist.push t.queue id;
  push_fanouts t (N.fanouts t.net id)

let set t id b =
  match value t id with
  | Value.Unknown ->
      Assignment.assign t.assignment id b;
      touch t id
  | Value.Zero | Value.One as v ->
      if (v = Value.One) <> b && t.pending_conflict < 0 then
        t.pending_conflict <- id

let set_implied t id b =
  t.implications <- t.implications + 1;
  set t id b

(* Examine one gate: fold its matching rows and apply the configured
   implication strategy. Returns [false] on conflict (no row matches).

   One fold ([Rows.agree]) serves both strategies: what the matching rows
   agree on is Def. 2.2 for a single row and Def. 4.1 for several; simple
   implication acts on a single row only. The output is assigned first,
   then the fanins in index order, re-checking each fanin so that a gate
   with duplicate fanins assigns the shared node once. *)
let examine t g =
  t.examinations <- t.examinations + 1;
  let out_v = value t g in
  (* In backward-only mode implication is triggered by the output value
     alone (reverse simulation never reasons from partial inputs). *)
  if t.backward_only && out_v = Value.Unknown then true
  else begin
    let fanins = N.fanins t.net g in
    let masks = fanin_masks t fanins in
    let assigned = masks land 0xFFFF and values = masks lsr 16 in
    let out = out_code out_v in
    let a = t.agree in
    Rows.agree (rows_of t g) ~assigned ~values out a;
    if a.Rows.matched = 0 then false
    else begin
      if a.Rows.matched = 1 || t.advanced then begin
        if out < 0 && a.Rows.out >= 0 then set_implied t g (a.Rows.out = 1);
        for i = 0 to Array.length fanins - 1 do
          if a.Rows.fixed land (1 lsl i) <> 0
             && not (Assignment.is_assigned t.assignment fanins.(i))
          then set_implied t fanins.(i) (a.Rows.ones land (1 lsl i) <> 0)
        done
      end;
      true
    end
  end

let rec drain t =
  let g = Worklist.pop t.queue in
  if g < 0 then Fixpoint
  else if examine t g then drain t
  else begin
    Worklist.clear t.queue;
    Conflict_at g
  end

let propagate t =
  if t.pending_conflict >= 0 then begin
    let g = t.pending_conflict in
    t.pending_conflict <- -1;
    Worklist.clear t.queue;
    Conflict_at g
  end
  else drain t

let checkpoint t = Assignment.checkpoint t.assignment

let rollback t mark =
  Assignment.rollback t.assignment mark;
  Worklist.clear t.queue;
  t.pending_conflict <- -1

let num_implications t = t.implications
let num_examinations t = t.examinations
