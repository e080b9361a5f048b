(** Word-parallel circuit simulation (paper §2.3).

    Simulates 64 input vectors at a time: each node's value is an [int64]
    word whose bit [k] is the node's output under the [k]-th vector of the
    batch. A k-input LUT is a mux tree over its 2^k minterm bits, folded
    bottom-up one fanin word per level: 2^k - 1 word muxes in an unboxed
    scratch buffer, with no allocation besides the result word. *)

val simulate_word :
  ?force:Simgen_network.Network.node_id * int64 ->
  Simgen_network.Network.t ->
  int64 array ->
  int64 array
(** [simulate_word net pi_words] takes one word per PI (by PI index) and
    returns one word per node (by node id). [~force:(id, w)] pins node
    [id] to the word [w] before its fanouts read it (a stuck-at fault is
    [w = 0L] or [-1L]). *)

val random_word :
  Simgen_base.Rng.t -> Simgen_network.Network.t -> int64 array
(** Fresh batch of 64 uniformly random input vectors. *)

val vector_word : bool array -> int -> int64 array -> unit
(** [vector_word vec k words] sets bit [k] of each PI word from the single
    input vector [vec] (by PI index). *)

val word_of_vector : Simgen_network.Network.t -> bool array -> int64 array
(** One-vector batch: bit 0 carries the vector, the remaining 63 bits are
    copies (so any bit position can be used). *)

val node_values_bit : int64 array -> int -> bool array
(** Extract the single-vector values at bit [k] from a node-word array. *)
