(* The repository benchmark: named workloads timed from outside, around
   the public calls a user's command makes, with every output checked
   against committed goldens.

   Workloads (closed loop, one command or connection at a time, one
   client):
   - flat42:  the [simgen sweep FILE] flow (load, create, one random
              round, guided rounds, SAT sweep) on the 42 flat suite
              circuits, written to BLIF at set-up and loaded from file;
   - stacked: the same flow on putontop-stacked apex2 (x2) and square (x7),
              where guided generation is most of the wall. Not gated in
              BENCHMARK.json: the seed alone moves its wall up to 2x;
   - serve:   a [simgen serve] daemon with its default caches and one
              worker on a Unix socket, sent cec/certify/sweep for eight
              circuits, the whole list twice.

   Usage (normally through run.py, which builds this and the CLI first):
     main.exe --workload W --seed N --seconds S --trace 0|1 \
              --work DIR --goldens FILE [--cli EXE] [--smoke]
     main.exe --make-goldens --work DIR --goldens FILE

   With --trace 0 the last stdout line reports the end-to-end metrics over
   whole rounds run for --seconds; with --trace 1 the same work runs
   untraced and traced, and it reports the per-layer metrics. Earlier
   lines give sample counts and ratio bases. Times come from the monotonic
   clock. *)

module N = Simgen_network.Network
module Blif = Simgen_network.Blif
module Suite = Simgen_benchgen.Suite
module Rewrite = Simgen_aig.Rewrite
module Lut_mapper = Simgen_mapping.Lut_mapper
module Sweeper = Simgen_sweep.Sweeper
module Sweep_options = Simgen_sweep.Sweep_options
module Certificate = Simgen_check.Certificate
module Retry_policy = Simgen_runner.Retry_policy
module Client = Simgen_serve.Client
module Protocol = Simgen_serve.Protocol

(* ------------------------------------------------------------------ *)
(* Clock, memory, statistics                                           *)
(* ------------------------------------------------------------------ *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* VmHWM of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith (path ^ ": no VmHWM line")
        | Some l -> (
            match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> scan ())
      in
      scan ())

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

(* ln Gamma, Lanczos approximation (g = 7, 9 terms), for x > 0. *)
let log_gamma x =
  let c =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
       771.32342877765313; -176.61502916214059; 12.507343278686905;
       -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  let x = x -. 1. in
  let s = ref c.(0) in
  for i = 1 to 8 do
    s := !s +. (c.(i) /. (x +. float_of_int i))
  done;
  let t = x +. 7.5 in
  (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !s

(* Regularized incomplete beta I_x(a, b) by its continued fraction
   (modified Lentz). *)
let incomplete_beta a b x =
  let cf a b x =
    let tiny v = if Float.abs v < 1e-300 then 1e-300 else v in
    let c = ref 1. and d = ref (1. /. tiny (1. -. ((a +. b) *. x /. (a +. 1.)))) in
    let h = ref !d and m = ref 1 and fin = ref false in
    while (not !fin) && !m <= 300 do
      let fm = float_of_int !m in
      let step aa =
        d := 1. /. tiny (1. +. (aa *. !d));
        c := tiny (1. +. (aa /. !c));
        h := !h *. !d *. !c;
        !d *. !c
      in
      ignore
        (step (fm *. (b -. fm) *. x /. ((a +. (2. *. fm) -. 1.) *. (a +. (2. *. fm)))));
      let del =
        step
          (-.(a +. fm) *. (a +. b +. fm) *. x
          /. ((a +. (2. *. fm)) *. (a +. (2. *. fm) +. 1.)))
      in
      fin := Float.abs (del -. 1.) < 1e-14;
      incr m
    done;
    !h
  in
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else
    let front =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x)
        +. (b *. log (1. -. x)))
    in
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. cf a b x /. a
    else 1. -. (front *. cf b a (1. -. x) /. b)

(* Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
   order statistics. Per-command latencies come from circuits of very
   different sizes, so one interpolated order statistic jumps whenever a
   circuit crosses the rank; the weighted mean does not. *)
let quantile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = float_of_int (Array.length a) in
  let cdf i = incomplete_beta (p *. (n +. 1.)) ((1. -. p) *. (n +. 1.)) (i /. n) in
  let est = ref 0. in
  Array.iteri
    (fun i v ->
      let i = float_of_int i in
      est := !est +. ((cdf (i +. 1.) -. cdf i) *. v))
    a;
  !est
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("wall_s", "s");
    ("cmd_p50_s", "s");
    ("cmd_p75_s", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("success_rate", "ratio");
  ]

(* Every workload reports every per-layer metric; a layer the workload
   does not exercise reads 0. *)
let per_layer =
  [
    ("network.load_s", "s");
    ("network.gates", "count");
    ("network.po_buffers", "count");
    ("sim.random_s", "s");
    ("sim.cost_random", "count");
    ("core.guided_s", "s");
    ("core.implications", "count");
    ("core.decisions", "count");
    ("core.gen_conflicts", "count");
    ("core.vectors", "count");
    ("core.skipped", "count");
    ("core.yield", "ratio");
    ("core.cost_guided", "count");
    ("core.cost_drop_per_s", "1/s");
    ("core.alloc_mwords", "Mwords");
    ("sweep.create_s", "s");
    ("sweep.sweep_s", "s");
    ("sweep.calls", "count");
    ("sweep.proved", "count");
    ("sweep.disproved", "count");
    ("sweep.disproved_share", "ratio");
    ("sweep.cost_final", "count");
    ("sweep.alloc_mwords", "Mwords");
    ("sat.conflicts", "count");
    ("sat.propagations", "count");
    ("sat.restarts", "count");
    ("sat.deleted", "count");
    ("serve.job_s", "s");
    ("serve.overhead_s", "s");
    ("serve.cec_s", "s");
    ("serve.certify_s", "s");
    ("serve.sweep_s", "s");
    ("serve.sat_calls", "count");
    ("serve.pattern_hits", "count");
    ("serve.fun_cache_consults", "count");
    ("serve.fun_cache_hits", "count");
    ("serve.fun_cache_local_proofs", "count");
    ("serve.fun_cache_collisions", "count");
    ("serve.pass1_s", "s");
    ("serve.pass2_s", "s");
    ("serve.pass2_speedup", "ratio");
    ("bench.untraced_wall_s", "s");
    ("bench.traced_wall_s", "s");
    ("bench.trace_overhead", "ratio");
    ("bench.layer_coverage", "ratio");
  ]

(* Per-layer accumulator: sums over the traced round's commands. *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 64
let get k = Option.value (Hashtbl.find_opt acc k) ~default:0.
let add k v = Hashtbl.replace acc k (get k +. v)
let addi k v = add k (float_of_int v)
let set k v = Hashtbl.replace acc k v

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "metric is not a finite number"

let print_result ~correct ~attempted ~failed metrics =
  let field (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
      unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

(* Failures are counted per command and explained on stderr. *)
let failures = ref 0
let attempted = ref 0
let inputs_ok = ref true

let fail_cmd what msg =
  incr failures;
  Printf.eprintf "perfbench: FAIL %s: %s\n%!" what msg

(* ------------------------------------------------------------------ *)
(* Inputs and goldens                                                  *)
(* ------------------------------------------------------------------ *)

type golden = { digest : string; final_cost : int; partition : string }

(* goldens.tsv: key, input digest, final cost, merge-partition digest. *)
let read_goldens path =
  let tbl = Hashtbl.create 64 in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | [ key; digest; cost; partition ] when line.[0] <> '#' ->
             Hashtbl.replace tbl key
               { digest; final_cost = int_of_string cost; partition }
         | _ :: _ -> ()
         | [] -> ());
  tbl

let goldens : (string, golden) Hashtbl.t ref = ref (Hashtbl.create 0)

let golden key =
  match Hashtbl.find_opt !goldens key with
  | Some g -> g
  | None -> failwith ("no golden for " ^ key)

let stacked_names = [ "apex2"; "square" ]

let serve_names =
  [ "apex2"; "cps"; "alu4"; "dec"; "misex3c"; "cordic"; "square"; "voter" ]

(* An input file: [key] names its golden, [emitted] is the gate count of
   the network the generator handed to the BLIF writer. *)
type input = { key : string; path : string; emitted : int }

let generate key =
  match String.split_on_char '/' key with
  | [ "flat"; name ] -> Suite.lut_network name
  | [ "stacked"; name ] -> Suite.stacked_lut_network name
  | [ "alt"; name ] -> Lut_mapper.map (Rewrite.balance (Suite.aig name))
  | _ -> invalid_arg key

let file_of_key key =
  match String.split_on_char '/' key with
  | [ "flat"; name ] -> name ^ ".blif"
  | [ "stacked"; name ] -> name ^ "_stacked.blif"
  | [ "alt"; name ] -> name ^ "_alt.blif"
  | _ -> invalid_arg key

(* Written to the working directory, where the daemon finds it too. *)
let write_input key =
  let net = generate key in
  let path = file_of_key key in
  Blif.write_file path net;
  { key; path; emitted = N.num_gates net }

(* A changed input digest means the generator or writer changed: the run
   is then not comparable and is marked incorrect. *)
let check_input i =
  let d = Digest.to_hex (Digest.file i.path) in
  if d <> (golden i.key).digest then begin
    inputs_ok := false;
    Printf.eprintf "perfbench: inputs changed: %s (%s)\n%!" i.key d
  end

let partition_digest sw =
  let b = Buffer.create 65536 in
  N.iter_gates (Sweeper.network sw) (fun g ->
      Buffer.add_string b (string_of_int (Sweeper.representative sw g));
      Buffer.add_char b ' ');
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* One-shot workloads: the sweep flow in this process                  *)
(* ------------------------------------------------------------------ *)

(* One [simgen sweep FILE] command. Untraced, only the command is timed;
   traced, each layer call is wrapped in a span that also takes the GC
   allocation delta. Returns the command's wall time. *)
let sweep_command ~trace opts (i : input) =
  let layers = ref 0. in
  let span name f =
    if not trace then f ()
    else begin
      let a0 = alloc_words () in
      let r, dt = timed f in
      layers := !layers +. dt;
      add name dt;
      add (name ^ "_words") (alloc_words () -. a0);
      r
    end
  in
  let t0 = now () in
  let net = span "network.load_s" (fun () -> Blif.parse_file i.path) in
  let sw = span "sweep.create_s" (fun () -> Sweeper.create opts net) in
  span "sim.random_s" (fun () -> Sweeper.random_round sw);
  let cost_random = if trace then Sweeper.cost sw else 0 in
  let g = span "core.guided_s" (fun () -> Sweeper.run_guided opts sw) in
  let cost_guided = if trace then Sweeper.cost sw else 0 in
  let s = span "sweep.sweep_s" (fun () -> Sweeper.sat_sweep opts sw) in
  let wall = now () -. t0 in
  let cost = Sweeper.cost sw in
  if trace then begin
    let coverage = !layers /. wall in
    set "bench.layer_coverage"
      (match Hashtbl.find_opt acc "bench.layer_coverage" with
       | Some c -> Float.min c coverage
       | None -> coverage);
    addi "network.gates" (N.num_gates net);
    addi "network.po_buffers" (N.num_gates net - i.emitted);
    addi "sim.cost_random" cost_random;
    addi "core.implications" g.Sweeper.implications;
    addi "core.decisions" g.Sweeper.decisions;
    addi "core.gen_conflicts" g.Sweeper.gen_conflicts;
    addi "core.vectors" g.Sweeper.vectors;
    addi "core.skipped" g.Sweeper.skipped;
    addi "core.cost_guided" cost_guided;
    addi "sweep.calls" s.Sweeper.calls;
    addi "sweep.proved" s.Sweeper.proved;
    addi "sweep.disproved" s.Sweeper.disproved;
    addi "sweep.cost_final" cost;
    addi "sat.conflicts" s.Sweeper.conflicts;
    addi "sat.propagations" s.Sweeper.propagations;
    addi "sat.restarts" s.Sweeper.restarts;
    addi "sat.deleted" s.Sweeper.deleted
  end;
  let gold = golden i.key in
  if cost <> gold.final_cost then
    fail_cmd i.key
      (Printf.sprintf "final cost %d, golden %d" cost gold.final_cost)
  else if partition_digest sw <> gold.partition then
    fail_cmd i.key "merge partition differs from golden";
  wall

let oneshot_keys = function
  | "flat42" -> List.map (fun n -> "flat/" ^ n) Suite.names
  | "stacked" -> List.map (fun n -> "stacked/" ^ n) stacked_names
  | w -> invalid_arg w

let oneshot_setup keys =
  let inputs = List.map write_input keys in
  List.iter check_input inputs;
  inputs

let sum = List.fold_left ( +. ) 0.

let timed_sweep ~trace opts i =
  incr attempted;
  match sweep_command ~trace opts i with
  | wall -> Some wall
  | exception e ->
      fail_cmd i.key (Printexc.to_string e);
      None

(* One round: every command once. Returns (round wall, command times). *)
let oneshot_round ~trace ~seed inputs =
  let opts = { Sweep_options.default with Sweep_options.seed } in
  let times = List.filter_map (timed_sweep ~trace opts) inputs in
  (sum times, times)

(* Each command untraced and then traced, so that a drift in machine speed
   hits both walls alike. Returns (untraced wall, traced wall). *)
let oneshot_paired ~seed inputs =
  let opts = { Sweep_options.default with Sweep_options.seed } in
  let pairs =
    List.map
      (fun i -> (timed_sweep ~trace:false opts i, timed_sweep ~trace:true opts i))
      inputs
  in
  (sum (List.filter_map fst pairs), sum (List.filter_map snd pairs))

(* Ratios over the traced round's sums. *)
let finish_trace () =
  let vectors = get "core.vectors" and skipped = get "core.skipped" in
  set "core.yield" (ratio vectors (vectors +. skipped));
  set "core.cost_drop_per_s"
    (ratio
       (get "sim.cost_random" -. get "core.cost_guided")
       (get "core.guided_s"));
  set "core.alloc_mwords" (get "core.guided_s_words" /. 1e6);
  set "sweep.alloc_mwords" (get "sweep.sweep_s_words" /. 1e6);
  set "sweep.disproved_share" (ratio (get "sweep.disproved") (get "sweep.calls"))

(* ------------------------------------------------------------------ *)
(* The serve workload: a daemon process and this process as client     *)
(* ------------------------------------------------------------------ *)

let socket = "serve.sock"
let live_daemons : int list ref = ref []

let no_retry = Retry_policy.none

let spawn_daemon cli =
  let log =
    Unix.openfile "daemon.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "--workers"; "1" |]
      Unix.stdin log log
  in
  Unix.close log;
  live_daemons := pid :: !live_daemons;
  let deadline = now () +. 30. in
  let rec wait_ready () =
    match
      Client.call ~socket ~connect_timeout:1. ~read_timeout:10. ~retry:no_retry
        Protocol.Ping
    with
    | Ok _ -> ()
    | Error e ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
         | 0, _ -> ()
         | _ ->
             live_daemons := List.filter (( <> ) pid) !live_daemons;
             failwith "daemon exited during start-up (see daemon.log)");
        if now () > deadline then
          failwith ("daemon not ready: " ^ Client.error_to_string e);
        Unix.sleepf 0.01;
        wait_ready ()
  in
  wait_ready ();
  pid

let reap pid =
  let deadline = now () +. 10. in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        loop ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  loop ();
  live_daemons := List.filter (( <> ) pid) !live_daemons

let stop_daemon pid =
  (match Client.call ~socket ~retry:no_retry Protocol.Shutdown with
   | Ok _ -> ()
   | Error e ->
       Printf.eprintf "perfbench: shutdown: %s\n%!" (Client.error_to_string e);
       Unix.kill pid Sys.sigterm);
  reap pid

let kill_live_daemons () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_daemons;
  live_daemons := []

let serve_setup ~cli names =
  let inputs =
    List.concat_map
      (fun n -> [ write_input ("flat/" ^ n); write_input ("alt/" ^ n) ])
      names
  in
  List.iter check_input inputs;
  spawn_daemon cli

(* The request list of one pass: (kind, args, golden key). *)
let serve_requests ~seed names =
  List.concat_map
    (fun n ->
      let orig = file_of_key ("flat/" ^ n) and alt = file_of_key ("alt/" ^ n) in
      let key = "flat/" ^ n in
      [
        ("cec", Printf.sprintf "%s %s seed=%d" orig alt seed, key);
        ("certify", Printf.sprintf "%s seed=%d" orig seed, key);
        ("sweep", Printf.sprintf "%s iterations=0 seed=%d" orig seed, key);
      ])
    names

let field name fields = List.assoc_opt name fields

let float_field name fields =
  match field name fields with
  | Some (Protocol.Float f) -> Some f
  | Some (Protocol.Int i) -> Some (float_of_int i)
  | Some
      ( Protocol.Null | Protocol.Bool _ | Protocol.String _ | Protocol.List _
      | Protocol.Obj _ )
  | None ->
      None

(* Check one reply against the known answer. *)
let check_reply kind key fields =
  let status =
    Option.value ~default:"?"
      (Protocol.string_member "status" (Protocol.Obj fields))
  in
  let cost = Protocol.int_member "final_cost" (Protocol.Obj fields) in
  match kind with
  | "cec" when status = "equivalent" -> None
  | "cec" -> Some ("cec status " ^ status ^ ", expected equivalent")
  | _ when status <> "swept" -> Some ("status " ^ status ^ ", expected swept")
  | _ when cost <> Some (golden key).final_cost ->
      Some
        (Printf.sprintf "final cost %s, golden %d"
           (Option.fold ~none:"absent" ~some:string_of_int cost)
           (golden key).final_cost)
  | _ -> None

let serve_pass ~trace requests =
  let t0 = now () in
  let lats =
    List.filter_map
      (fun (kind, args, key) ->
        incr attempted;
        let what = kind ^ " " ^ args in
        let req = Protocol.Job { cmd = kind; args; deadline_ms = None } in
        match timed (fun () -> Client.call ~socket ~retry:no_retry req) with
        | Ok fields, lat -> (
            if trace then begin
              let job = Option.value (float_field "time" fields) ~default:0. in
              add "serve.job_s" job;
              add "serve.overhead_s" (lat -. job);
              add ("serve." ^ kind ^ "_s") lat;
              add "serve.sat_calls"
                (Option.value (float_field "sat_calls" fields) ~default:0.);
              add "serve.pattern_hits"
                (Option.value (float_field "cache_hits" fields) ~default:0.)
            end;
            match check_reply kind key fields with
            | None -> Some lat
            | Some msg ->
                fail_cmd what msg;
                Some lat)
        | Error e, _ ->
            fail_cmd what (Client.error_to_string e);
            None)
      requests
  in
  (now () -. t0, lats)

(* Cache counters from the [stats] frame are optional: a field a later
   version drops reads 0 and is reported as absent, never as a failure. *)
let read_stats ~label =
  match Client.call ~socket ~retry:no_retry Protocol.Stats with
  | Error e ->
      Printf.printf "stats after %s: %s\n" label (Client.error_to_string e)
  | Ok fields ->
      let fc = field "fun_cache" fields in
      List.iter
        (fun k ->
          let v = Option.bind fc (Protocol.int_member k) in
          Printf.printf "stats after %s: fun_cache.%s = %s\n" label k
            (Option.fold ~none:"absent" ~some:string_of_int v);
          set ("serve.fun_cache_" ^ k)
            (float_of_int (Option.value v ~default:0)))
        [ "consults"; "hits"; "local_proofs"; "collisions" ]

(* One serve round: the list twice. Its wall is the sum of the two passes,
   each from its first send to its last reply. *)
let serve_round ~trace ~seed names =
  let requests = serve_requests ~seed names in
  let w1, l1 = serve_pass ~trace requests in
  if trace then read_stats ~label:"pass 1";
  let w2, l2 = serve_pass ~trace requests in
  if trace then begin
    read_stats ~label:"pass 2";
    set "serve.pass1_s" w1;
    set "serve.pass2_s" w2;
    set "serve.pass2_speedup" (ratio w1 w2);
    Printf.printf "serve.pass2_speedup: pass 1 %.3f s / pass 2 %.3f s\n" w1 w2;
    set "bench.layer_coverage" (ratio (sum (l1 @ l2)) (w1 +. w2))
  end;
  (w1 +. w2, l1 @ l2)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* A workload as the driver sees it. *)
type workload = {
  setup : unit -> unit;  (** write the inputs (and start a daemon) *)
  stop : unit -> unit;  (** stop the daemon, if any *)
  restart : unit -> unit;  (** a cold daemon for the next round *)
  round : trace:bool -> seed:int -> float * float list;
      (** every command once: (round wall, command latencies) *)
  paired : seed:int -> float * float;
      (** the same work untraced and traced: (untraced, traced wall) *)
  peak_rss_mb : unit -> float;  (** of the process doing the work *)
}

let take n l = List.filteri (fun i _ -> i < n) l

let oneshot_workload ~smoke name =
  let keys = oneshot_keys name in
  let keys = if smoke then take 1 keys else keys in
  let inputs = ref [] in
  {
    setup = (fun () -> inputs := oneshot_setup keys);
    stop = ignore;
    restart = ignore;
    round = (fun ~trace ~seed -> oneshot_round ~trace ~seed !inputs);
    paired = (fun ~seed -> oneshot_paired ~seed !inputs);
    peak_rss_mb = (fun () -> peak_rss_mb "self");
  }

(* Each round gets a cold daemon: the second pass inside a round is what
   shows the cross-request caches. *)
let serve_workload ~cli ~smoke =
  let names = if smoke then take 1 serve_names else serve_names in
  let daemon = ref None in
  let stop () =
    Option.iter stop_daemon !daemon;
    daemon := None
  in
  let restart () =
    stop ();
    daemon := Some (spawn_daemon cli)
  in
  let round ~trace ~seed = serve_round ~trace ~seed names in
  {
    setup = (fun () -> daemon := Some (serve_setup ~cli names));
    stop;
    restart;
    round;
    paired =
      (fun ~seed ->
        let untraced, _ = round ~trace:false ~seed in
        restart ();
        let traced, _ = round ~trace:true ~seed in
        (untraced, traced));
    peak_rss_mb =
      (fun () ->
        peak_rss_mb (Option.fold ~none:"self" ~some:string_of_int !daemon));
  }

(* Set up [setups] times and keep the last; each earlier daemon is stopped
   outside the timed window. *)
let setups = 3

let run ~workload ~seed ~seconds ~trace ~smoke ~cli =
  let w =
    match workload with
    | "flat42" | "stacked" -> oneshot_workload ~smoke workload
    | "serve" -> serve_workload ~cli ~smoke
    | w -> failwith ("unknown workload " ^ w)
  in
  let setup_times =
    List.init setups (fun k ->
        if k > 0 then w.stop ();
        snd (timed w.setup))
  in
  Printf.printf "perfbench: workload %s, seed %d, trace %b\n" workload seed
    trace;
  Printf.printf "setup_s samples: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
  Gc.full_major ();
  if not trace then begin
    (* Whole rounds while the next one is predicted to end in time; the
       first always runs. Round [r] sweeps under its own seed, derived from
       the workload seed, so the median also evens out seed-dependent
       work. *)
    let t0 = now () in
    let rec rounds walls lats rss =
      if walls <> [] then w.restart ();
      let seed = seed + (7919 * List.length walls) in
      let wall, l = w.round ~trace:false ~seed in
      let rss = Float.max rss (w.peak_rss_mb ()) in
      let walls = wall :: walls and lats = l @ lats in
      if now () -. t0 +. wall <= seconds then rounds walls lats rss
      else (walls, lats, rss)
    in
    let walls, lats, rss = rounds [] [] 0. in
    w.stop ();
    Printf.printf "rounds: %d, commands timed: %d\n" (List.length walls)
      (List.length lats);
    let lats = if lats = [] then [ 0. ] else lats in
    let e2e =
      [
        median walls;
        quantile 0.5 lats;
        quantile 0.75 lats;
        median setup_times;
        rss;
        1. -. ratio (float_of_int !failures) (float_of_int !attempted);
      ]
    in
    List.map2 (fun (name, unit) v -> (name, unit, v)) end_to_end e2e
  end
  else begin
    let untraced, traced = w.paired ~seed in
    w.stop ();
    finish_trace ();
    set "bench.untraced_wall_s" untraced;
    set "bench.traced_wall_s" traced;
    set "bench.trace_overhead" (ratio traced untraced);
    Printf.printf "bench.trace_overhead: traced %.3f s / untraced %.3f s\n"
      traced untraced;
    List.map (fun (name, unit) -> (name, unit, get name)) per_layer
  end

(* Goldens come from a certified sweep whose certificate checks. *)
let make_goldens out =
  let keys =
    oneshot_keys "flat42" @ oneshot_keys "stacked"
    @ List.map (fun n -> "alt/" ^ n) serve_names
  in
  let row key =
    let i = write_input key in
    let opts = { Sweep_options.default with Sweep_options.certify = true } in
    let sw = Sweeper.create opts (Blif.parse_file i.path) in
    Sweeper.random_round sw;
    ignore (Sweeper.run_guided opts sw);
    ignore (Sweeper.sat_sweep opts sw);
    let report = Certificate.check (Sweeper.certificate sw) in
    if not report.Certificate.valid then
      failwith (key ^ ": certificate does not check");
    Printf.printf "%s: final cost %d, %d merges certified\n%!" key
      (Sweeper.cost sw) report.Certificate.merges;
    Printf.sprintf "%s\t%s\t%d\t%s" key
      (Digest.to_hex (Digest.file i.path))
      (Sweeper.cost sw) (partition_digest sw)
  in
  let rows = List.map row keys in
  Out_channel.with_open_text out (fun oc ->
      output_string oc
        "# key\tinput digest\tfinal cost\tmerge-partition digest\n";
      List.iter (fun r -> output_string oc (r ^ "\n")) rows)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. in
  let trace = ref 0 and smoke = ref false and make = ref false in
  let work = ref "" and goldens_path = ref "" and cli = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W flat42, stacked or serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--smoke", Arg.Set smoke, " a tiny subset of the workload");
      ("--make-goldens", Arg.Set make, " regenerate the goldens file");
      ("--work", Arg.Set_string work, "DIR scratch directory for inputs");
      ("--goldens", Arg.Set_string goldens_path, "FILE goldens table");
      ("--cli", Arg.Set_string cli, "EXE the simgen CLI (serve workload)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --work DIR \
     --goldens FILE --cli EXE";
  Sys.chdir !work;
  at_exit kill_live_daemons;
  if !make then make_goldens !goldens_path
  else begin
    goldens := read_goldens !goldens_path;
    let metrics =
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~smoke:!smoke ~cli:!cli
    in
    let correct = !inputs_ok && !failures = 0 in
    print_result ~correct ~attempted:!attempted ~failed:!failures metrics
  end
