(* Shared experiment machinery for the benchmark harness: the one sweep
   flow every experiment runs, the min-of-reps timing series, and the
   BENCH file writer that applies an experiment's gates.

   [flow] executes the paper's §6.1 protocol on one LUT network: one
   round (64 vectors) of random simulation, the guided iterations, then
   SAT sweeping; every metric of Tables 1-2 and Figures 5-7 is read off
   the result. *)

module Suite = Simgen_benchgen.Suite
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Strategy = Simgen_core.Strategy
module Certificate = Simgen_check.Certificate
module Json = Simgen_base.Json
module N = Simgen_network.Network

let seed = 7

(* The one options record every flow takes: most experiments only vary
   the strategy, iteration count or a single flag off the defaults. *)
let opts ?(seed = seed) ?(strategy = Strategy.AI_DC_MFFC) ?(iterations = 20)
    ?(one_distance = false)
    ?(outgold = Sweep_options.default.Sweep_options.outgold) () =
  {
    Sweep_options.default with
    Sweep_options.seed;
    strategy;
    guided_iterations = iterations;
    one_distance;
    outgold;
  }

type flow = {
  cost : int;  (* after guided simulation *)
  guided : Sweeper.guided_stats;
  sat : Sweeper.sat_stats;
  cert : Certificate.report option;  (* when [opts.certify] *)
  wall : float;  (* create through SAT sweep and certificate check *)
  partition : int list;  (* each gate's final representative *)
}

(* One sweep flow. A certifying flow also re-checks its certificate
   inside the timed region: the honest end-to-end price of not trusting
   the solver. The final partition is path-independent (refinement only
   separates inequivalent nodes), so every route must reach the same
   one. *)
let flow ?(with_sat = true) opts net =
  let t0 = Unix.gettimeofday () in
  let sw = Sweeper.create opts net in
  Sweeper.random_round sw;
  let guided = Sweeper.run_guided opts sw in
  let cost = Sweeper.cost sw in
  let sat =
    if with_sat then Sweeper.sat_sweep opts sw else Sweeper.empty_sat
  in
  let cert =
    if opts.Sweep_options.certify then
      Some (Certificate.check (Sweeper.certificate sw))
    else None
  in
  let wall = Unix.gettimeofday () -. t0 in
  let partition = ref [] in
  N.iter_gates net (fun id ->
      partition := Sweeper.representative sw id :: !partition);
  { cost; guided; sat; cert; wall; partition = List.rev !partition }

(* [reps] runs of [run], which returns its wall time and a result. Prints
   the minimum and every rep on one line; returns the minimum (one noisy
   rep cannot trip a gate) and the results in rep order. *)
let series ~reps name run =
  let runs = List.init reps (fun _ -> run ()) in
  let best = List.fold_left (fun acc (t, _) -> min acc t) infinity runs in
  Printf.printf "%-10s min %7.3fs  (reps:%s)\n%!" name best
    (String.concat ""
       (List.map (fun (t, _) -> Printf.sprintf " %.3fs" t) runs));
  (best, List.map snd runs)

(* Write an experiment's BENCH file, then apply its gates: [failures]
   pairs each gate's breach with its message. Any breach is reported on
   stderr and exits 1. *)
let report ~out_file json ~failures =
  Out_channel.with_open_text out_file (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" out_file;
  let breached = List.filter fst failures in
  List.iter (fun (_, msg) -> prerr_endline msg) breached;
  if breached <> [] then exit 1

let sat_json (s : Sweeper.sat_stats) =
  Json.Obj
    [
      ("calls", Int s.calls);
      ("proved", Int s.proved);
      ("disproved", Int s.disproved);
      ("conflicts", Int s.conflicts);
      ("propagations", Int s.propagations);
      ("restarts", Int s.restarts);
      ("deleted", Int s.deleted);
      ("sat_time", Float s.sat_time);
    ]

(* Normalisation against the RevS baseline, guarding tiny denominators. *)
let ratio value baseline =
  if baseline <= 0.0 then 1.0 else value /. baseline

let geo_mean = function
  | [] -> 1.0
  | xs ->
      let n = float_of_int (List.length xs) in
      exp (List.fold_left (fun acc x -> acc +. log (max x 1e-9)) 0.0 xs /. n)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let benchmarks () = Suite.names

let stacked_benchmarks () =
  List.filter_map
    (fun e ->
      match e.Suite.stack_copies with
      | Some copies -> Some (e.Suite.name, copies)
      | None -> None)
    Suite.entries
