module N = Simgen_network.Network
module TT = Simgen_network.Truth_table

(* Word evaluation of one k-input LUT as a mux tree over its minterm bits,
   folded bottom-up: level 0 muxes minterms 2i and 2i+1 on fanin 0
   straight from the table bits, level j muxes the pairs of level j-1 on
   fanin j, in place. 2^k - 1 muxes per word, no allocation: the
   intermediate words live unboxed in [scratch] (8 * 2^(k-1) bytes). *)
let eval_lut scratch f words fanins =
  let k = Array.length fanins in
  if k = 0 then if TT.get_bit f 0 then -1L else 0L
  else begin
    let w0 = words.(fanins.(0)) in
    for i = 0 to (1 lsl (k - 1)) - 1 do
      let block = TT.word f (i lsr 5) in
      let pair =
        Int64.to_int (Int64.shift_right_logical block ((i land 31) lsl 1))
        land 3
      in
      Bytes.set_int64_ne scratch (i lsl 3)
        (match pair with
         | 0 -> 0L
         | 1 -> Int64.lognot w0
         | 2 -> w0
         | _ -> -1L)
    done;
    for j = 1 to k - 1 do
      let w = words.(fanins.(j)) in
      for i = 0 to (1 lsl (k - 1 - j)) - 1 do
        let lo = Bytes.get_int64_ne scratch (i lsl 4)
        and hi = Bytes.get_int64_ne scratch ((i lsl 4) + 8) in
        Bytes.set_int64_ne scratch (i lsl 3)
          (Int64.logxor lo (Int64.logand (Int64.logxor lo hi) w))
      done
    done;
    Bytes.get_int64_ne scratch 0
  end

let simulate_word ?force net pi_words =
  if Array.length pi_words <> N.num_pis net then
    invalid_arg "Simulator.simulate_word";
  let forced, forced_word =
    match force with Some (id, w) -> (id, w) | None -> (-1, 0L)
  in
  let words = Array.make (N.num_nodes net) 0L in
  let scratch = ref (Bytes.create 256) in
  N.iter_nodes net (fun id ->
      words.(id) <-
        (if id = forced then forced_word
         else
           match N.kind net id with
           | N.Pi idx -> pi_words.(idx)
           | N.Gate f ->
               let fanins = N.fanins net id in
               let need = 8 lsl max 0 (Array.length fanins - 1) in
               if Bytes.length !scratch < need then
                 scratch := Bytes.create need;
               eval_lut !scratch f words fanins));
  words

let random_word rng net =
  Array.init (N.num_pis net) (fun _ -> Simgen_base.Rng.int64 rng)

let vector_word vec k words =
  if Array.length vec <> Array.length words then
    invalid_arg "Simulator.vector_word";
  let mask = Int64.shift_left 1L k in
  Array.iteri
    (fun i value ->
      words.(i) <-
        (if value then Int64.logor words.(i) mask
         else Int64.logand words.(i) (Int64.lognot mask)))
    vec

let word_of_vector net vec =
  if Array.length vec <> N.num_pis net then
    invalid_arg "Simulator.word_of_vector";
  Array.map (fun v -> if v then -1L else 0L) vec

let node_values_bit words k =
  Array.map
    (fun w -> Int64.logand (Int64.shift_right_logical w k) 1L = 1L)
    words
