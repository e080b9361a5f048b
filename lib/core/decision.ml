module N = Simgen_network.Network
module Mffc = Simgen_network.Mffc
module Rng = Simgen_base.Rng

type t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable mffc : Mffc.cache option;
  mutable decisions : int;
  (* Scratch: matching row indices and their priorities. *)
  mutable cand : int array;
  mutable prio : float array;
  (* Per gate, the Eq. (3) rank of every row; [||] = not computed yet. *)
  ranks : float array array;
}

let create ?rng engine =
  let rng = match rng with Some r -> r | None -> Rng.create 0x5157 in
  {
    engine;
    rng;
    mffc = None;
    decisions = 0;
    cand = [||];
    prio = [||];
    ranks = Array.make (N.num_nodes (Engine.network engine)) [||];
  }

let mffc_cache t =
  match t.mffc with
  | Some c -> c
  | None ->
      let c = Mffc.cache (Engine.network t.engine) in
      t.mffc <- Some c;
      c

let mffc_rank t gate row =
  let fanins = N.fanins (Engine.network t.engine) gate in
  let cache = mffc_cache t in
  let total = ref 0.0 in
  for i = 0 to Array.length fanins - 1 do
    if Rows.care row land (1 lsl i) <> 0 then
      total := !total +. Mffc.cached_depth cache fanins.(i)
  done;
  !total

let ranks_of t gate =
  match t.ranks.(gate) with
  | [||] ->
      let r = Array.map (mffc_rank t gate) (Engine.rows_of t.engine gate) in
      t.ranks.(gate) <- r;
      r
  | r -> r

let row_priority t ~nvars ~max_rank ~rank row =
  let cfg = Engine.config t.engine in
  let dc = float_of_int (Rows.dc_size ~nvars row) in
  let normalised = if max_rank > 0.0 then rank /. max_rank else 0.0 in
  (cfg.Config.alpha *. dc) +. (cfg.Config.beta *. normalised)

(* Roulette-wheel selection via stochastic acceptance (Lipowski &
   Lipowska) over the first [n] candidates: draw one uniformly and accept
   it with probability priority / max_priority. *)
let roulette t n =
  let max_p = ref 0.0 in
  for j = 0 to n - 1 do
    max_p := max !max_p t.prio.(j)
  done;
  let max_p = !max_p in
  if max_p <= 0.0 then t.cand.(Rng.int t.rng n)
  else
    let rec draw attempts =
      let j = Rng.int t.rng n in
      if attempts > 1000 || Rng.float t.rng 1.0 <= t.prio.(j) /. max_p then
        t.cand.(j)
      else draw (attempts + 1)
    in
    draw 0

(* Index of the chosen row among the gate's [n >= 1] matching rows, which
   sit in [t.cand] in row-array order. *)
let choose t gate rows n =
  if n = 1 then t.cand.(0)
  else
    let cfg = Engine.config t.engine in
    let nvars = Array.length (N.fanins (Engine.network t.engine) gate) in
    match cfg.Config.decision with
    | Config.Random_row -> t.cand.(Rng.int t.rng n)
    | Config.Dc_weighted ->
        (* Laplace smoothing keeps zero-DC rows selectable: they are the
           only rows that can activate narrow difference regions, and a
           hard zero weight would make some classes unsplittable. *)
        for j = 0 to n - 1 do
          t.prio.(j) <- 1.0 +. float_of_int (Rows.dc_size ~nvars rows.(t.cand.(j)))
        done;
        roulette t n
    | Config.Dc_mffc_weighted ->
        let ranks = ranks_of t gate in
        let max_rank = ref 0.0 in
        for j = 0 to n - 1 do
          max_rank := max !max_rank ranks.(t.cand.(j))
        done;
        let max_rank = !max_rank in
        for j = 0 to n - 1 do
          let r = t.cand.(j) in
          t.prio.(j) <-
            1.0 +. row_priority t ~nvars ~max_rank ~rank:ranks.(r) rows.(r)
        done;
        roulette t n

let decide t gate =
  t.decisions <- t.decisions + 1;
  let rows = Engine.rows_of t.engine gate in
  if Array.length t.cand < Array.length rows then begin
    t.cand <- Array.make (Array.length rows) 0;
    t.prio <- Array.make (Array.length rows) 0.0
  end;
  match Engine.matching t.engine gate t.cand with
  | 0 -> Error gate
  | n ->
      let row = rows.(choose t gate rows n) in
      let fanins = N.fanins (Engine.network t.engine) gate in
      (* Assign the row's concrete values; the output is set too when it is
         still open. *)
      if not (Assignment.is_assigned (Engine.assignment t.engine) gate) then
        Engine.set t.engine gate (Rows.out row);
      for i = 0 to Array.length fanins - 1 do
        if Rows.care row land (1 lsl i) <> 0 then
          Engine.set t.engine fanins.(i) (Rows.value row land (1 lsl i) <> 0)
      done;
      Ok ()

let num_decisions t = t.decisions
