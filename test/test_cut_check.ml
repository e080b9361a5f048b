(* The stateless cut check (Cut_check): the first rung of
   Sweeper.verify_pair. Its trust boundary is that Equal comes only from
   pointwise truth-table agreement over one shared cut (and never under
   certification), and Counterexample only from an exact, all-PI cut.

   The collision cases pair functions that an NPN-canonical key cannot
   tell apart — negated, permuted or both — and so would have collided
   in a signature-keyed store. Each must come back as a distinguishing
   counterexample or Unknown, never Equal. The differential property
   checks every answer on random networks against the fresh-solver
   miter. *)

module N = Simgen_network.Network
module TT = Simgen_network.Truth_table
module Rng = Simgen_base.Rng
module Cut_check = Simgen_sweep.Cut_check
module Miter = Simgen_sweep.Miter

let rng = Rng.create 77

let identity_subst net = Array.init (N.num_nodes net) Fun.id

let differs net vec a b =
  let v = N.eval net vec in
  v.(a) <> v.(b)

(* A random NPN variant of [f]: some inputs negated (their cofactors
   swapped), the inputs permuted, the output maybe negated. *)
let npn_variant rng f =
  let n = TT.nvars f in
  let negated = ref f in
  for i = 0 to n - 1 do
    if Rng.bool rng then begin
      let f0 = TT.cofactor !negated i false
      and f1 = TT.cofactor !negated i true in
      let xi = TT.var i n in
      negated := TT.or_ (TT.and_ xi f0) (TT.and_ (TT.not_ xi) f1)
    end
  done;
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let g = TT.permute !negated perm in
  if Rng.bool rng then TT.not_ g else g

(* A two-gate network computing [f] and [g] over [n] shared PIs. *)
let pair_over f g n =
  let net = N.create () in
  let pis = Array.init n (fun _ -> N.add_pi net) in
  let a = N.add_gate net f pis in
  let b = N.add_gate net g pis in
  N.add_po net a;
  N.add_po net b;
  (net, a, b)

let check net a b =
  Cut_check.check ~certify:false ~rng:(Rng.create 3)
    ~subst:(identity_subst net) net a b

let check_never_equal ~what f g n =
  let net, a, b = pair_over f g n in
  match check net a b with
  | Cut_check.Equal -> Alcotest.failf "%s: Equal on inequivalent cones" what
  | Cut_check.Counterexample vec ->
      Alcotest.(check bool) (what ^ ": cex distinguishes") true
        (differs net vec a b)
  | Cut_check.Unknown -> ()

(* ------------------------------------------------------------------ *)
(* Serving rules                                                       *)
(* ------------------------------------------------------------------ *)

let tt_and2 = TT.and_ (TT.var 0 2) (TT.var 1 2)
let tt_or2 = TT.or_ (TT.var 0 2) (TT.var 1 2)

(* x1 = and(a,b), x2 = and(b,a) (equal), y1 = or(a,b) (distinct). *)
let pair_net () =
  let net = N.create () in
  let a = N.add_pi net in
  let b = N.add_pi net in
  let x1 = N.add_gate net tt_and2 [| a; b |] in
  let x2 = N.add_gate net tt_and2 [| b; a |] in
  let y1 = N.add_gate net tt_or2 [| a; b |] in
  List.iter (N.add_po net) [ x1; x2; y1 ];
  (net, x1, x2, y1)

let test_local_proof () =
  let net, x1, x2, _ = pair_net () in
  match check net x1 x2 with
  | Cut_check.Equal -> ()
  | _ -> Alcotest.fail "equal cones must be decided locally"

let test_exact_cut_cex () =
  let net, x1, _, y1 = pair_net () in
  match check net x1 y1 with
  | Cut_check.Counterexample vec ->
      Alcotest.(check int) "full PI vector" (N.num_pis net) (Array.length vec);
      Alcotest.(check bool) "distinguishes" true (differs net vec x1 y1)
  | _ -> Alcotest.fail "exact-cut difference must yield a counterexample"

let test_certify_never_serves_equal () =
  let net, x1, x2, y1 = pair_net () in
  let under_certify a b =
    Cut_check.check ~certify:true ~rng:(Rng.create 1)
      ~subst:(identity_subst net) net a b
  in
  (match under_certify x1 x2 with
   | Cut_check.Unknown -> ()
   | _ -> Alcotest.fail "under certification Equal must come back as Unknown");
  (* a disproof carries no certificate obligation *)
  match under_certify x1 y1 with
  | Cut_check.Counterexample vec ->
      Alcotest.(check bool) "distinguishes" true (differs net vec x1 y1)
  | _ -> Alcotest.fail "counterexamples are still served under certification"

let test_inexact_difference_unknown () =
  (* a = and(g, p), b = or(g, p) over a shared g, the AND of more than
     max_support PIs: the cut stops at g, so the tables differ over an
     inexact cut and only SAT may decide. *)
  let net = N.create () in
  let wide = Cut_check.max_support + 1 in
  let pis = Array.init wide (fun _ -> N.add_pi net) in
  let all_of =
    Array.fold_left TT.and_ (TT.create_const wide true)
      (Array.init wide (fun i -> TT.var i wide))
  in
  let g = N.add_gate net all_of pis in
  let p = N.add_pi net in
  let a = N.add_gate net tt_and2 [| g; p |] in
  let b = N.add_gate net tt_or2 [| g; p |] in
  N.add_po net a;
  N.add_po net b;
  match check net a b with
  | Cut_check.Unknown -> ()
  | _ -> Alcotest.fail "a difference over an inexact cut must be Unknown"

(* ------------------------------------------------------------------ *)
(* NPN collisions                                                      *)
(* ------------------------------------------------------------------ *)

let test_collision_buf_vs_not () =
  let x = TT.var 0 1 in
  let net, a, b = pair_over x x 1 in
  (match check net a b with
   | Cut_check.Equal -> ()
   | _ -> Alcotest.fail "identical cones must be Equal");
  check_never_equal ~what:"buf vs not" x (TT.not_ x) 1

let test_collision_xor_vs_xnor () =
  let xor2 = TT.xor (TT.var 0 2) (TT.var 1 2) in
  let xnor2 = TT.not_ xor2 in
  check_never_equal ~what:"xor vs xnor" xor2 xnor2 2;
  check_never_equal ~what:"xnor vs xor" xnor2 xor2 2

let test_collision_negated_permuted () =
  let exercised = ref 0 in
  for _ = 1 to 80 do
    let n = 1 + Rng.int rng 4 in
    let f = TT.random rng n in
    let g = npn_variant rng f in
    if not (TT.equal f g) then begin
      incr exercised;
      check_never_equal ~what:"negated/permuted" f g n
    end
  done;
  Alcotest.(check bool) "exercised collisions" true (!exercised >= 20)

let test_collision_wide_cones () =
  (* 6-input cones: the shared cut still reaches every PI, so each
     pointwise-different variant must be separated by a counterexample *)
  let separated = ref 0 in
  for _ = 1 to 120 do
    let f = TT.random rng 6 in
    let g = npn_variant rng f in
    if not (TT.equal f g) then begin
      check_never_equal ~what:"wide cone" f g 6;
      let net, a, b = pair_over f g 6 in
      match check net a b with
      | Cut_check.Counterexample _ -> incr separated
      | Cut_check.Equal | Cut_check.Unknown -> ()
    end
  done;
  Alcotest.(check bool) "wide variants separated" true (!separated >= 100)

(* ------------------------------------------------------------------ *)
(* Differential: Cut_check against the fresh-solver miter              *)
(* ------------------------------------------------------------------ *)

(* A random LUT network over 4..16 PIs, with fanins drawn from the
   newest nodes or the PIs so cones are deep and often wider than the
   cut. Some
   gates are buffers or fanin-reversed copies of earlier gates; those
   known equivalences are returned as a sound random substitution,
   redirecting a node to its smaller twin as a sweep's merges would. *)
let random_network rng =
  let net = N.create () in
  let npis = 4 + Rng.int rng 13 in
  for _ = 1 to npis do
    ignore (N.add_pi net)
  done;
  let twins = ref [] in
  for _ = 1 to 4 + Rng.int rng 28 do
    let nodes = N.num_nodes net in
    let pick () =
      if Rng.bool rng then nodes - 1 - Rng.int rng (min nodes 4)
      else Rng.int rng npis
    in
    match Rng.int rng 4 with
    | 0 ->
        let x = pick () in
        twins := (N.add_gate net (TT.var 0 1) [| x |], x) :: !twins
    | 1 when nodes > npis ->
        let g = npis + Rng.int rng (nodes - npis) in
        let fanins = N.fanins net g in
        let k = Array.length fanins in
        let rev = Array.init k (fun i -> fanins.(k - 1 - i)) in
        let f = TT.permute (N.func net g) (Array.init k (fun i -> k - 1 - i)) in
        twins := (N.add_gate net f rev, g) :: !twins
    | _ ->
        let k = 1 + Rng.int rng 4 in
        ignore (N.add_gate net (TT.random rng k) (Array.init k (fun _ -> pick ())))
  done;
  let subst = identity_subst net in
  List.iter (fun (g, twin) -> if Rng.bool rng then subst.(g) <- twin) !twins;
  (net, subst)

let prop_matches_miter seed =
  let rng = Rng.create seed in
  let net, subst = random_network rng in
  (* mostly deep nodes, whose cones are the ones wider than the cut *)
  let node () =
    let n = N.num_nodes net in
    if Rng.int rng 4 > 0 then n - 1 - Rng.int rng (min n 8) else Rng.int rng n
  in
  let a = node () and b = node () in
  let sat, _ = Miter.check_pair_fresh ~subst ~rng:(Rng.create 1) net a b in
  let cut certify = Cut_check.check ~certify ~rng ~subst net a b in
  (match cut false with
   | Cut_check.Equal -> sat = Miter.Equal
   | Cut_check.Counterexample vec -> differs net vec a b && sat <> Miter.Equal
   | Cut_check.Unknown -> true)
  && cut true <> Cut_check.Equal

let test_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"cut check agrees with the miter" ~count:500
       QCheck2.Gen.(int_range 0 1_000_000)
       prop_matches_miter)

let () =
  Alcotest.run "cut-check"
    [
      ( "cut-check",
        [
          Alcotest.test_case "local proof" `Quick test_local_proof;
          Alcotest.test_case "exact-cut cex" `Quick test_exact_cut_cex;
          Alcotest.test_case "certify never serves equal" `Quick
            test_certify_never_serves_equal;
          Alcotest.test_case "inexact difference unknown" `Quick
            test_inexact_difference_unknown;
        ] );
      ( "collisions",
        [
          Alcotest.test_case "buf vs not" `Quick test_collision_buf_vs_not;
          Alcotest.test_case "xor vs xnor" `Quick test_collision_xor_vs_xnor;
          Alcotest.test_case "negated/permuted" `Quick
            test_collision_negated_permuted;
          Alcotest.test_case "wide cones" `Quick test_collision_wide_cones;
        ] );
      ("differential", [ test_differential ]);
    ]
