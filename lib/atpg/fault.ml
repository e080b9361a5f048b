module N = Simgen_network.Network
module Simulator = Simgen_sim.Simulator

type t = { node : N.node_id; stuck : bool }

let all_gate_faults net =
  let acc = ref [] in
  N.iter_gates net (fun id ->
      acc := { node = id; stuck = true } :: { node = id; stuck = false } :: !acc);
  List.rev !acc

let to_string net fault =
  let name =
    match N.node_name net fault.node with
    | Some n -> n
    | None -> Printf.sprintf "n%d" fault.node
  in
  Printf.sprintf "%s/SA%d" name (if fault.stuck then 1 else 0)

let faulty_eval net fault vec =
  let vals = N.eval ~force:(fault.node, fault.stuck) net vec in
  Array.map (fun id -> vals.(id)) (N.pos net)

let detects net fault vec = N.eval_pos net vec <> faulty_eval net fault vec

let detects_word net fault pi_words =
  let good = Simulator.simulate_word net pi_words in
  let bad =
    Simulator.simulate_word
      ~force:(fault.node, if fault.stuck then -1L else 0L)
      net pi_words
  in
  Array.fold_left
    (fun acc po -> Int64.logor acc (Int64.logxor good.(po) bad.(po)))
    0L (N.pos net)
