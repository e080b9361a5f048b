(* The serving layer: the JSONL protocol codec and the daemon's request
   handler, exercised in-process and over a real socket. *)

module Shared = Simgen_base.Shared
module Json = Simgen_base.Json
module Retry_policy = Simgen_runner.Retry_policy
module Pattern_cache = Simgen_runner.Pattern_cache
module Protocol = Simgen_serve.Protocol
module Server = Simgen_serve.Server
module Client = Simgen_serve.Client

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

(* JSON values covering the whole grammar: strings and keys range over
   all 256 bytes, floats are multiples of 1/64 so [%.6f] prints them
   exactly. *)
let json_gen =
  let open QCheck2.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               pure Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map
                 (fun k -> Json.Float (float_of_int k /. 64.))
                 (int_range (-1_000_000_000) 1_000_000_000);
               map (fun s -> Json.String s) str;
             ]
         in
         if n <= 1 then leaf
         else
           let sub = self (n / 4) in
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun l -> Json.List l) (list_size (int_bound 5) sub) );
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 5) (pair str sub)) );
             ])

let prop_json_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"json roundtrip" ~count:1000
       ~print:Json.to_string json_gen (fun v ->
         Json.parse (Json.to_string v) = Ok v))

(* Numbers in the RFC 8259 grammar parse; a non-finite float prints as
   [null] and every printed float parses back. *)
let test_json_numbers () =
  List.iter
    (fun (s, v) ->
      Alcotest.(check bool) s true (Json.parse s = Ok v))
    [
      ("0", Json.Int 0);
      ("-0", Json.Int 0);
      ("15", Json.Int 15);
      ("-7", Json.Int (-7));
      ("0.5", Json.Float 0.5);
      ("-0.25", Json.Float (-0.25));
      ("1e3", Json.Float 1000.);
      ("2E-2", Json.Float 0.02);
      ("1.5e+2", Json.Float 150.);
      ("[0,1]", Json.List [ Json.Int 0; Json.Int 1 ]);
    ];
  List.iter
    (fun f ->
      Alcotest.(check string) "non-finite prints as null" "null"
        (Json.to_string (Json.Float f)))
    [ Float.infinity; Float.neg_infinity; Float.nan ]

let prop_json_floats_print_as_json =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"every float prints as JSON" ~count:1000
       ~print:string_of_float
       QCheck2.Gen.(
         oneof
           [
             float;
             oneofl [ Float.infinity; Float.neg_infinity; Float.nan; 1e308 ];
           ])
       (fun f ->
         match Json.parse (Json.to_string (Json.Float f)) with
         | Ok Json.Null -> not (Float.is_finite f)
         | Ok (Json.Float _ | Json.Int _) -> Float.is_finite f
         | Ok _ | Error _ -> false))

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [
      "";
      "{";
      "{\"a\":}";
      "[1,2";
      "{\"a\":1} trailing";
      "nul";
      "\"open";
      "\"\\u12\"";
      "\"\\u12g4\"";
      String.make 100_000 '[';
      (* RFC 8259 numbers: no plus sign, no leading zero, digits on both
         sides of the point, digits after the exponent, and finite. *)
      "+5";
      "01";
      "-01";
      "1.";
      "-.5";
      ".5";
      "1e";
      "1e+";
      "1.e3";
      "-";
      "--1";
      "[01]";
      "1e400";
      "-1e400";
    ]

(* \uXXXX escapes decode to UTF-8, surrogate pairs to one code point. A
   client that escapes non-ASCII text (Python's json.dumps does by
   default) must name the same file as one that sends raw UTF-8. *)
let test_json_unicode () =
  let decodes escaped raw =
    match Json.parse ("\"" ^ escaped ^ "\"") with
    | Ok (Json.String s) -> Alcotest.(check string) escaped raw s
    | Ok _ | Error _ -> Alcotest.failf "did not decode %s" escaped
  in
  decodes "\\u0041" "A";
  decodes "caf\\u00e9" "caf\xc3\xa9";
  decodes "\\u20AC" "\xe2\x82\xac";
  decodes "\\ud83d\\ude00" "\xf0\x9f\x98\x80";
  decodes "\\u0000" "\000";
  List.iter
    (fun escaped ->
      match Json.parse ("\"" ^ escaped ^ "\"") with
      | Ok _ -> Alcotest.failf "accepted lone surrogate %s" escaped
      | Error _ -> ())
    [ "\\ud83d"; "\\ude00"; "\\ud83dx"; "\\ud83d\\u0041"; "\\ude00\\ud83d" ];
  match
    Protocol.request_of_line
      {|{"v":1,"id":1,"cmd":"lint","target":"caf\u00e9.blif"}|}
  with
  | Ok (1, Protocol.Lint { target }) ->
      Alcotest.(check string) "lint target" "caf\xc3\xa9.blif" target
  | Ok _ | Error _ -> Alcotest.fail "lint request with an escaped target"

(* Protocol lines cut short or with flipped bytes: both line parsers
   answer [Ok] or [Error] and never raise. *)
let prop_line_fuzz =
  let open QCheck2.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  let request =
    oneof
      [
        pure Protocol.Ping;
        pure Protocol.Stats;
        pure Protocol.Shutdown;
        map (fun target -> Protocol.Lint { target }) str;
        map3
          (fun cmd args deadline_ms -> Protocol.Job { cmd; args; deadline_ms })
          (oneofl [ "sweep"; "cec"; "certify" ])
          str
          (opt (int_range 1 100_000));
      ]
  in
  let frame =
    oneof
      [
        map (fun e -> Protocol.Event e) json_gen;
        map
          (fun fs -> Protocol.Result fs)
          (list_size (int_bound 4) (pair str json_gen));
        map (fun m -> Protocol.Failed m) str;
        map
          (fun k -> Protocol.Overloaded { retry_after = float_of_int k /. 64. })
          (int_bound 1000);
      ]
  in
  let line =
    map2
      (fun id req_or_frame ->
        match req_or_frame with
        | Either.Left req -> Protocol.request_to_line ~id req
        | Either.Right frame -> Protocol.frame_to_line ~id frame)
      nat
      (oneof [ map Either.left request; map Either.right frame ])
  in
  let mutated =
    line >>= fun line ->
    let n = String.length line in
    oneof
      [
        map (fun k -> String.sub line 0 k) (int_bound n);
        map
          (fun flips ->
            let b = Bytes.of_string line in
            List.iter (fun (i, c) -> Bytes.set b (i mod n) c) flips;
            Bytes.to_string b)
          (list_size (int_range 1 4) (pair nat char));
      ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"truncated or flipped lines never raise"
       ~count:2000 ~print:String.escaped mutated (fun line ->
         (match Protocol.request_of_line line with Ok _ | Error _ -> true)
         && match Protocol.frame_of_line line with Ok _ | Error _ -> true))

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let line = Protocol.request_to_line ~id:9 req in
      match Protocol.request_of_line line with
      | Ok (9, req') ->
          Alcotest.(check bool) ("roundtrip " ^ line) true (req = req')
      | Ok (id, _) -> Alcotest.failf "wrong id %d" id
      | Error msg -> Alcotest.failf "%s: %s" line msg)
    Protocol.
      [
        Ping;
        Stats;
        Shutdown;
        Lint { target = "apex2" };
        Job { cmd = "sweep"; args = "apex2 stacked=true seed=3"; deadline_ms = None };
        Job { cmd = "cec"; args = "a.blif b.blif deadline=2.0"; deadline_ms = None };
        Job { cmd = "certify"; args = "square"; deadline_ms = None };
        Job { cmd = "sweep"; args = "apex2"; deadline_ms = Some 1500 };
      ]

let test_request_rejects () =
  List.iter
    (fun line ->
      match Protocol.request_of_line line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [
      "{\"v\":2,\"id\":1,\"cmd\":\"ping\"}";
      "{\"v\":1,\"id\":1,\"cmd\":\"nope\"}";
      "{\"v\":1,\"cmd\":\"ping\"}";
      "{\"v\":1,\"id\":1,\"cmd\":\"sweep\"}";
      "{\"v\":1,\"id\":1,\"cmd\":\"lint\"}";
      "{\"v\":1,\"id\":1,\"cmd\":\"sweep\",\"args\":\"apex2\",\"deadline_ms\":0}";
      "{\"v\":1,\"id\":1,\"cmd\":\"sweep\",\"args\":\"apex2\",\"deadline_ms\":-5}";
      "not json";
    ]

let test_frame_roundtrip () =
  let check frame =
    let line = Protocol.frame_to_line ~id:3 frame in
    match Protocol.frame_of_line line with
    | Ok (3, frame') ->
        Alcotest.(check bool) ("roundtrip " ^ line) true (frame = frame')
    | Ok (id, _) -> Alcotest.failf "wrong id %d" id
    | Error msg -> Alcotest.failf "%s: %s" line msg
  in
  check (Protocol.Event (Protocol.Obj [ ("phase", Protocol.String "queued") ]));
  check
    (Protocol.Result
       [ ("status", Protocol.String "swept"); ("final_cost", Protocol.Int 7) ]);
  check (Protocol.Failed "boom \"quoted\"");
  check (Protocol.Overloaded { retry_after = 0.25 })

let rm_f path = if Sys.file_exists path then Sys.remove path

(* ------------------------------------------------------------------ *)
(* Server.handle: in-process daemon semantics                          *)
(* ------------------------------------------------------------------ *)

let write_blif path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let with_two_circuits f =
  let a = Filename.temp_file "simgen-a" ".blif" in
  let b = Filename.temp_file "simgen-b" ".blif" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove a;
      Sys.remove b)
    (fun () ->
      write_blif a
        [ ".model a"; ".inputs x y"; ".outputs f"; ".names x y f"; "11 1";
          ".end" ];
      write_blif b
        [ ".model b"; ".inputs x y"; ".outputs f"; ".names x y f"; "1- 1";
          "-1 1"; ".end" ];
      f a b)

let result_status = function
  | Protocol.Result fields ->
      (match Protocol.string_member "status" (Protocol.Obj fields) with
       | Some s -> s
       | None -> Alcotest.fail "result without status")
  | Protocol.Failed msg -> Alcotest.failf "error frame: %s" msg
  | Protocol.Event _ -> Alcotest.fail "event is not a final frame"
  | Protocol.Overloaded _ -> Alcotest.fail "unexpected overload answer"

let test_handle_ping_stats () =
  let server =
    Server.create ~workers:1 ~pattern_cache:(Pattern_cache.create ()) ()
  in
  Alcotest.(check string) "ping" "ok"
    (result_status (Server.handle server Protocol.Ping));
  match Server.handle server Protocol.Stats with
  | Protocol.Result fields ->
      let has k = List.mem_assoc k fields in
      List.iter
        (fun k -> Alcotest.(check bool) ("stats has " ^ k) true (has k))
        [ "uptime"; "requests"; "jobs_ok"; "pattern_cache" ]
  | _ -> Alcotest.fail "stats must answer with a result"

let test_handle_jobs_and_parity () =
  with_two_circuits (fun a b ->
      let cached =
        Server.create ~workers:1 ~pattern_cache:(Pattern_cache.create ()) ()
      in
      let bare = Server.create ~workers:1 () in
      let spec c1 c2 = Printf.sprintf "%s %s seed=5" c1 c2 in
      let run server args =
        result_status
          (Server.handle server
             (Protocol.Job { cmd = "cec"; args; deadline_ms = None }))
      in
      (* same circuit twice: equivalent, and the warm re-run agrees *)
      let eq = run cached (spec a a) in
      Alcotest.(check string) "equivalent" "equivalent" eq;
      Alcotest.(check string) "warm parity" eq (run cached (spec a a));
      Alcotest.(check string) "cache on/off parity" eq (run bare (spec a a));
      (* distinct circuits: not equivalent everywhere, cache or not *)
      let ne = run cached (spec a b) in
      Alcotest.(check string) "not equivalent" "not-equivalent@po0" ne;
      Alcotest.(check string) "warm parity" ne (run cached (spec a b));
      Alcotest.(check string) "cache on/off parity" ne (run bare (spec a b)))

let test_handle_streams_events () =
  with_two_circuits (fun a _ ->
      let server = Server.create ~workers:1 () in
      let phases = ref [] in
      let on_event j =
        match Protocol.string_member "phase" j with
        | Some p -> phases := p :: !phases
        | None -> ()
      in
      let frame =
        Server.handle server ~on_event
          (Protocol.Job { cmd = "sweep"; args = a; deadline_ms = None })
      in
      Alcotest.(check string) "swept" "swept" (result_status frame);
      Alcotest.(check bool) "streamed events" true (!phases <> []);
      Alcotest.(check bool) "finished event present" true
        (List.mem "finished" !phases))

let test_handle_certify_forced () =
  with_two_circuits (fun a _ ->
      let server = Server.create ~workers:1 () in
      let phases = ref [] in
      let on_event j =
        match Protocol.string_member "phase" j with
        | Some p -> phases := p :: !phases
        | None -> ()
      in
      let frame =
        Server.handle server ~on_event
          (Protocol.Job
             { cmd = "certify"; args = a ^ " certify=false"; deadline_ms = None })
      in
      Alcotest.(check string) "swept" "swept" (result_status frame);
      (* certify=true was forced despite the client's certify=false: the
         independent checker ran and emitted its telemetry *)
      Alcotest.(check bool) "certificate checked" true
        (List.mem "certificate" !phases))

let test_handle_errors () =
  let server = Server.create ~workers:1 () in
  (match
     Server.handle server
       (Protocol.Job { cmd = "cec"; args = "nope"; deadline_ms = None })
   with
   | Protocol.Failed _ -> ()
   | _ -> Alcotest.fail "bad manifest args must fail");
  match Server.handle server (Protocol.Lint { target = "no-such-bench" }) with
  | Protocol.Failed _ -> ()
  | _ -> Alcotest.fail "unknown lint target must fail"

let test_handle_lint () =
  with_two_circuits (fun a _ ->
      let server = Server.create ~workers:1 () in
      match Server.handle server (Protocol.Lint { target = a }) with
      | Protocol.Result fields ->
          Alcotest.(check bool) "has errors field" true
            (List.mem_assoc "errors" fields)
      | _ -> Alcotest.fail "lint must answer with a result")

let test_shutdown_drains () =
  let server = Server.create ~workers:1 () in
  Alcotest.(check bool) "running" false (Server.shutting_down server);
  Alcotest.(check string) "shutdown ack" "shutting-down"
    (result_status (Server.handle server Protocol.Shutdown));
  Alcotest.(check bool) "draining" true (Server.shutting_down server);
  (* jobs are refused during the drain *)
  match
    Server.handle server
      (Protocol.Job { cmd = "sweep"; args = "x"; deadline_ms = None })
  with
  | Protocol.Failed _ -> ()
  | _ -> Alcotest.fail "jobs must be refused while shutting down"

(* ------------------------------------------------------------------ *)
(* Client hardening and the socket daemon under load                   *)
(* ------------------------------------------------------------------ *)

let temp_socket () =
  let path = Filename.temp_file "simgen-serve" ".sock" in
  Sys.remove path;
  path

let test_client_timeout () =
  let sock = temp_socket () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      rm_f sock)
    (fun () ->
      Unix.bind fd (Unix.ADDR_UNIX sock);
      Unix.listen fd 1;
      (* the listener never accepts or answers: the read must time out,
         distinctly from a refused or dropped connection *)
      (match
         Client.call ~socket:sock ~connect_timeout:1.0 ~read_timeout:0.2
           ~retry:Retry_policy.none Protocol.Ping
       with
       | Error (Client.Timeout _) -> ()
       | Ok _ -> Alcotest.fail "a silent daemon answered?"
       | Error e ->
           Alcotest.failf "expected a timeout: %s" (Client.error_to_string e));
      (* a missing socket fails fast and differently *)
      match
        Client.call ~socket:(sock ^ ".gone") ~connect_timeout:0.5
          ~read_timeout:0.2 ~retry:Retry_policy.none Protocol.Ping
      with
      | Error (Client.Dropped _) -> ()
      | Ok _ -> Alcotest.fail "a missing socket answered?"
      | Error e ->
          Alcotest.failf "expected a drop: %s" (Client.error_to_string e))

(* The client retries a shed request by itself: a hand-rolled daemon
   answers the first connection [Overloaded] and the second one [Result]. *)
let test_client_overload_retry () =
  let sock = temp_socket () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      rm_f sock)
    (fun () ->
      Unix.bind fd (Unix.ADDR_UNIX sock);
      Unix.listen fd 2;
      let daemon =
        Shared.spawn (fun () ->
            let answer frame =
              let conn, _ = Unix.accept fd in
              let ic = Unix.in_channel_of_descr conn in
              let (_ : string) = input_line ic in
              let line = Protocol.frame_to_line ~id:1 frame ^ "\n" in
              ignore (Unix.write_substring conn line 0 (String.length line));
              Unix.close conn
            in
            answer (Protocol.Overloaded { retry_after = 0.01 });
            answer (Protocol.Result [ ("status", Protocol.String "ok") ]))
      in
      let res =
        Client.call ~socket:sock ~connect_timeout:2.0 ~read_timeout:5.0
          ~retry:
            {
              Retry_policy.max_attempts = 3;
              backoff = 0.01;
              multiplier = 2.0;
              jitter = 0.0;
            }
          Protocol.Ping
      in
      Shared.join daemon;
      match res with
      | Ok fields -> (
          match Protocol.string_member "status" (Protocol.Obj fields) with
          | Some s -> Alcotest.(check string) "answered on retry" "ok" s
          | None -> Alcotest.fail "result without status")
      | Error e ->
          Alcotest.failf "retry did not recover: %s" (Client.error_to_string e))

(* Serve on [sock] from a new domain; returns once a ping is answered. *)
let start_daemon server sock =
  let d = Shared.spawn (fun () -> Server.serve server ~socket:sock) in
  let rec await n =
    if n = 0 then Alcotest.fail "daemon did not come up";
    match
      Client.call ~socket:sock ~connect_timeout:1.0 ~read_timeout:5.0
        ~retry:Retry_policy.none Protocol.Ping
    with
    | Ok _ -> ()
    | Error
        (Client.Timeout _ | Client.Overloaded _ | Client.Dropped _
        | Client.Remote _) ->
        Unix.sleepf 0.05;
        await (n - 1)
  in
  await 100;
  d

(* A client that sends one byte more than the line cap and no newline
   gets an error frame and a closed socket; the daemon keeps serving
   everyone else. *)
let test_line_cap () =
  let sock = temp_socket () in
  Fun.protect
    ~finally:(fun () -> rm_f sock)
    (fun () ->
      let server = Server.create ~workers:1 () in
      let d = start_daemon server sock in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      (* fail rather than hang if the daemon never answers *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      let line = String.make ((1 lsl 20) + 1) 'x' in
      let rec send off =
        if off < String.length line then
          send (off + Unix.write_substring fd line off (String.length line - off))
      in
      send 0;
      let ic = Unix.in_channel_of_descr fd in
      (match Protocol.frame_of_line (input_line ic) with
       | Ok (_, Protocol.Failed _) -> ()
       | Ok _ -> Alcotest.fail "an oversized line must get an error frame"
       | Error msg -> Alcotest.failf "bad frame: %s" msg);
      (match input_line ic with
       | exception End_of_file -> ()
       | l -> Alcotest.failf "socket still open, read %S" l);
      Unix.close fd;
      (match
         Client.call ~socket:sock ~connect_timeout:1.0 ~read_timeout:5.0
           ~retry:Retry_policy.none Protocol.Ping
       with
       | Ok _ -> ()
       | Error e ->
           Alcotest.failf "second client not served: %s"
             (Client.error_to_string e));
      Server.request_shutdown server;
      Shared.join d)

(* The drain contract, end to end over a real socket: pin the single
   worker with a slow job, fill the queue past [max_queue], then request
   shutdown. Every admitted job must be answered (the overflow one with
   [Overloaded], the expired one as shed) and telemetry must survive. *)
let test_drain_under_load () =
  with_two_circuits (fun a _ ->
      let sock = temp_socket () in
      Fun.protect
        ~finally:(fun () -> rm_f sock)
        (fun () ->
          let server = Server.create ~workers:1 ~max_queue:4 () in
          let d = start_daemon server sock in
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          let send id req =
            let line = Protocol.request_to_line ~id req ^ "\n" in
            ignore (Unix.write_substring fd line 0 (String.length line))
          in
          (* id 1 pins the worker; id 2's 1 ms deadline will have expired
             by dispatch; ids 3-5 fill the remaining queue slots; id 6
             overflows *)
          send 1
            (Protocol.Job
               { cmd = "sweep"; args = "apex2 stacked=true"; deadline_ms = None });
          send 2
            (Protocol.Job { cmd = "sweep"; args = a; deadline_ms = Some 1 });
          for id = 3 to 6 do
            send id (Protocol.Job { cmd = "sweep"; args = a; deadline_ms = None })
          done;
          let ic = Unix.in_channel_of_descr fd in
          let finals = Hashtbl.create 8 in
          let overloads = ref 0 in
          let parse line =
            match Protocol.frame_of_line line with
            | Error msg -> Alcotest.failf "bad frame %S: %s" line msg
            | Ok (_, Protocol.Event _) -> ()
            | Ok (id, ((Protocol.Result _ | Protocol.Failed _) as frame)) ->
                Hashtbl.replace finals id frame
            | Ok (id, (Protocol.Overloaded _ as frame)) ->
                incr overloads;
                Hashtbl.replace finals id frame
          in
          (* the overload answer for id 6 is written synchronously by the
             accept loop: seeing it proves all six requests were admitted
             and the queue is genuinely full when the drain starts *)
          let rec until_shed () =
            if !overloads = 0 then begin
              parse (input_line ic);
              until_shed ()
            end
          in
          until_shed ();
          Server.request_shutdown server;
          (try
             while true do
               parse (input_line ic)
             done
           with End_of_file -> ());
          Unix.close fd;
          Shared.join d;
          for id = 1 to 6 do
            Alcotest.(check bool)
              (Printf.sprintf "job %d answered" id)
              true (Hashtbl.mem finals id)
          done;
          (match Hashtbl.find finals 2 with
           | Protocol.Result fields -> (
               (match List.assoc_opt "status" fields with
                | Some (Protocol.String s) ->
                    Alcotest.(check string) "expired before dispatch"
                      "budget-exhausted:deadline" s
                | Some _ | None -> Alcotest.fail "job 2: no status");
               match List.assoc_opt "shed" fields with
               | Some (Protocol.Bool true) -> ()
               | Some _ | None -> Alcotest.fail "job 2: not marked shed")
           | Protocol.Failed _ | Protocol.Event _ | Protocol.Overloaded _ ->
               Alcotest.fail "job 2 must be answered with a shed result");
          (* telemetry survived the drain *)
          (match Server.handle server Protocol.Stats with
           | Protocol.Result fields ->
               let counter k =
                 match List.assoc_opt k fields with
                 | Some (Protocol.Int n) -> n
                 | Some _ | None -> Alcotest.failf "stats: no %s" k
               in
               Alcotest.(check bool) "shed counted" true (counter "shed" >= 1);
               Alcotest.(check bool) "deadline expiry counted" true
                 (counter "deadline_expired" >= 1);
               Alcotest.(check int) "queue drained" 0 (counter "queue_depth")
           | Protocol.Failed _ | Protocol.Event _ | Protocol.Overloaded _ ->
               Alcotest.fail "stats must answer")))

let () =
  Alcotest.run "simgen-serve"
    [
      ( "protocol",
        [
          prop_json_roundtrip;
          Alcotest.test_case "json rejects" `Quick test_json_rejects;
          Alcotest.test_case "json numbers" `Quick test_json_numbers;
          prop_json_floats_print_as_json;
          Alcotest.test_case "json unicode escapes" `Quick test_json_unicode;
          prop_line_fuzz;
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "request rejects" `Quick test_request_rejects;
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
        ] );
      ( "server",
        [
          Alcotest.test_case "ping and stats" `Quick test_handle_ping_stats;
          Alcotest.test_case "jobs and verdict parity" `Quick
            test_handle_jobs_and_parity;
          Alcotest.test_case "event streaming" `Quick
            test_handle_streams_events;
          Alcotest.test_case "certify forced" `Quick test_handle_certify_forced;
          Alcotest.test_case "request errors" `Quick test_handle_errors;
          Alcotest.test_case "lint" `Quick test_handle_lint;
          Alcotest.test_case "shutdown drains" `Quick test_shutdown_drains;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "client timeout" `Quick test_client_timeout;
          Alcotest.test_case "client retries overload" `Quick
            test_client_overload_retry;
          Alcotest.test_case "line cap" `Quick test_line_cap;
          Alcotest.test_case "drain under load" `Slow test_drain_under_load;
        ] );
    ]
