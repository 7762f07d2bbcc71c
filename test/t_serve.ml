(* Service plane: the JSON codec survives round-trips and adversarial
   input, the protocol codecs are total, and a live server coalesces,
   times out, sheds, and shuts down the way lib/serve/*.mli promise.
   The server cases drive real compiles, so they are tagged slow. *)

module Json = Repro_util.Json
module Target = Repro_core.Target
module Plan = Repro_harness.Plan
module Runs = Repro_harness.Runs
module Diskcache = Repro_harness.Diskcache
module Proto = Repro_serve.Proto
module Wire = Repro_serve.Wire
module Digests = Repro_serve.Digests
module Server = Repro_serve.Server
module Client = Repro_serve.Client

(* JSON codec. ------------------------------------------------------------ *)

let json_gen =
  let open QCheck.Gen in
  let finite_float =
    map (fun f -> if Float.is_finite f then f else 0.) float
  in
  (* Any byte may appear in a string — the printer must escape its way
     out of whatever we throw at it. *)
  let raw_string = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 12) in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float f) finite_float;
               map (fun s -> Json.Str s) raw_string;
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun l -> Json.Arr l)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map (fun l -> Json.Obj l)
                   (list_size (int_bound 4)
                      (pair raw_string (self (n / 2)))) );
             ])

let json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json print/parse round-trip"
    (QCheck.make ~print:Json.to_string json_gen) (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' -> Json.equal v v'
      | Error m -> QCheck.Test.fail_reportf "parse failed: %s" m)

(* Every malformed input is an [Error] — never an exception, never a
   value.  Each entry is independently known-bad. *)
let test_json_adversarial () =
  let bad =
    [
      "";
      "   ";
      "tru";
      "truex";
      "nan";
      "+1";
      "-";
      "1.";
      ".5";
      "1e";
      "01";
      "1e999";
      "[1,]";
      "[1 2]";
      "[1,2";
      "{";
      "{\"a\":}";
      "{a:1}";
      "{\"a\":1,}";
      "{\"a\" 1}";
      "\"abc";
      "\"\\q\"";
      "\"\\u12\"";
      "\"\\ud800\"";
      "\"\\udc00x\"";
      "\"\n\"";
      "\"a\" \"b\"";
      "1 2";
      String.make 400 '[';
      "\xff";
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok v ->
        Alcotest.failf "accepted %S as %s" s (Json.to_string v))
    bad;
  (* The depth bound is a bound, not a blanket refusal. *)
  let nested d = String.make d '[' ^ String.make d ']' in
  (match Json.parse (nested 40) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "depth 40 rejected: %s" m);
  match Json.parse ~max_depth:8 (nested 40) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth bound not enforced"

(* Protocol codecs. ------------------------------------------------------- *)

let spec_gen =
  let open QCheck.Gen in
  let kind = oneofl [ Plan.Stats; Plan.Grid; Plan.Uarch; Plan.Fused; Plan.Trace ] in
  let bench =
    oneofl (List.map (fun (b : Repro_workloads.Suite.benchmark) -> b.name)
              Repro_workloads.Suite.all)
  in
  let target = oneofl Target.all in
  map (fun (kind, bench, target) -> { Plan.kind; bench; target })
    (triple kind bench target)

let request_gen =
  let open QCheck.Gen in
  let printable = string_size ~gen:printable (int_bound 12) in
  oneof
    [
      return Proto.Ping;
      return Proto.Status;
      return Proto.Shutdown;
      map (fun s -> Proto.Sweep s) spec_gen;
      map (fun s -> Proto.Render s) printable;
      map (fun ms -> Proto.Sleep (Float.abs (Float.of_int ms))) (int_bound 10_000);
    ]

let envelope_gen payload_gen =
  let open QCheck.Gen in
  map
    (fun (id, dl, payload) ->
      let deadline_ms =
        Option.map (fun d -> Float.of_int (1 + abs d)) dl
      in
      { Proto.id; deadline_ms; payload })
    (triple nat (opt (int_bound 100_000)) payload_gen)

let request_equal a b =
  match (a, b) with
  | Proto.Ping, Proto.Ping
  | Proto.Status, Proto.Status
  | Proto.Shutdown, Proto.Shutdown ->
    true
  | Proto.Sweep s1, Proto.Sweep s2 ->
    Plan.spec_to_string s1 = Plan.spec_to_string s2
  | Proto.Render a, Proto.Render b -> String.equal a b
  | Proto.Sleep a, Proto.Sleep b -> a = b
  | _ -> false

let request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"protocol request round-trip"
    (QCheck.make
       ~print:(fun e -> Json.to_string (Proto.request_to_json e))
       (envelope_gen request_gen))
    (fun env ->
      match Proto.request_of_json (Proto.request_to_json env) with
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
      | Ok env' ->
        env'.Proto.id = env.Proto.id
        && env'.Proto.deadline_ms = env.Proto.deadline_ms
        && request_equal env'.Proto.payload env.Proto.payload)

let status_gen =
  let open QCheck.Gen in
  let f = map Float.of_int (int_bound 1_000_000) in
  map
    (fun ((a, b, c, d, e), (g, h, i, j), (l, m, n, o, p), (q, r)) ->
      {
        Proto.uptime_s = q;
        accepted = a;
        completed = b;
        failed = c;
        coalesced = d;
        batches = e;
        batched = g;
        max_batch = h;
        runs = i;
        queue_depth = j;
        timeouts = l;
        shed = m;
        disk_hits = n;
        disk_misses = o;
        latency_ms_sum = r;
        latency_ms_max = Float.of_int p;
      })
    (quad
       (tup5 nat nat nat nat nat)
       (tup4 nat nat nat nat)
       (tup5 nat nat nat nat nat)
       (pair f f))

let response_gen =
  let open QCheck.Gen in
  let printable = string_size ~gen:printable (int_bound 20) in
  let code =
    oneofl
      [ Proto.Busy; Proto.Timeout; Proto.Bad_request; Proto.Server_error;
        Proto.Shutting_down ]
  in
  oneof
    [
      return Proto.Pong;
      return Proto.Slept;
      return Proto.Bye;
      map (fun s -> Proto.Status_r s) status_gen;
      map
        (fun (spec, digest, batch, ms) ->
          Proto.Sweep_r { spec; digest; batch; ms = Float.of_int ms })
        (quad spec_gen printable nat (int_bound 100_000));
      map (fun (id, text) -> Proto.Render_r { id; text }) (pair printable printable);
      map (fun (code, message) -> Proto.Error_r { code; message })
        (pair code printable);
    ]

(* decode . encode = identity, checked through the encoder itself:
   re-encoding the decoded value must reproduce the original JSON. *)
let response_roundtrip =
  QCheck.Test.make ~count:300 ~name:"protocol response round-trip"
    (QCheck.make
       ~print:(fun e -> Json.to_string (Proto.response_to_json e))
       (envelope_gen response_gen))
    (fun env ->
      let j = Proto.response_to_json env in
      match Proto.response_of_json j with
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
      | Ok env' -> Json.equal j (Proto.response_to_json env'))

let test_protocol_adversarial () =
  let bad =
    [
      "{}";
      "[1,2]";
      "\"ping\"";
      "{\"id\":1}";
      "{\"op\":\"ping\"}";
      "{\"id\":\"x\",\"op\":\"ping\"}";
      "{\"id\":1,\"op\":\"frobnicate\"}";
      "{\"id\":1,\"op\":\"sweep\"}";
      "{\"id\":1,\"op\":\"sweep\",\"spec\":\"grid:nope:d16\"}";
      "{\"id\":1,\"op\":\"sweep\",\"spec\":42}";
      "{\"id\":1,\"op\":\"render\"}";
      "{\"id\":1,\"op\":\"sleep\"}";
      "{\"id\":1,\"op\":\"sleep\",\"ms\":\"soon\"}";
    ]
  in
  List.iter
    (fun s ->
      let j =
        match Json.parse s with
        | Ok j -> j
        | Error m -> Alcotest.failf "fixture %S does not parse: %s" s m
      in
      match Proto.request_of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S as a request" s)
    bad

(* Plan spec syntax. ------------------------------------------------------ *)

let test_spec_roundtrip () =
  List.iter
    (fun kind ->
      List.iter
        (fun target ->
          let spec = { Plan.kind; bench = "queens"; target } in
          let s = Plan.spec_to_string spec in
          match Plan.spec_of_string s with
          | Error m -> Alcotest.failf "%s: %s" s m
          | Ok spec' ->
            Alcotest.(check string) s s (Plan.spec_to_string spec');
            Alcotest.(check bool) (s ^ " kind") true (spec'.Plan.kind = kind);
            Alcotest.(check string) (s ^ " target")
              target.Target.name spec'.Plan.target.Target.name)
        Target.all)
    [ Plan.Stats; Plan.Grid; Plan.Uarch; Plan.Fused; Plan.Trace ];
  List.iter
    (fun s ->
      match Plan.spec_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad spec %S" s)
    [
      ""; "grid"; "grid:queens"; "grid:queens:d16:x"; "nope:queens:d16";
      "grid:nope:d16"; "grid:queens:nope";
    ]

(* Live server. ----------------------------------------------------------- *)

let sock_seq = ref 0

(* A private cache dir and a private socket per case: server tests must
   never see a developer's _runs_cache or a stale daemon. *)
let with_server ?jobs ?(max_queue = 64) f =
  incr sock_seq;
  let tmp = Filename.get_temp_dir_name () in
  let cache =
    Filename.concat tmp
      (Printf.sprintf "repro-serve-cache-%d-%d" (Unix.getpid ()) !sock_seq)
  in
  let path =
    Filename.concat tmp
      (Printf.sprintf "repro-serve-%d-%d.sock" (Unix.getpid ()) !sock_seq)
  in
  let old = Diskcache.dir () in
  Diskcache.set_dir cache;
  Runs.clear_memo ();
  Fun.protect
    ~finally:(fun () ->
      Runs.clear_memo ();
      Diskcache.clear ();
      (try Sys.rmdir cache with Sys_error _ -> ());
      Diskcache.set_dir old)
    (fun () ->
      let cfg =
        {
          (Server.default_config ()) with
          Server.unix_path = Some path;
          tcp = None;
          jobs;
          max_queue;
          log = ignore;
          log_interval_s = 0.;
        }
      in
      match Server.start cfg with
      | Error m -> Alcotest.fail m
      | Ok h ->
        Fun.protect
          ~finally:(fun () ->
            Server.stop h;
            Server.wait h)
          (fun () -> f (Client.Unix_sock path) h))

let rpc_exn c ?deadline_ms r =
  match Client.rpc c ?deadline_ms r with
  | Ok resp -> resp
  | Error m -> Alcotest.failf "rpc: %s" m

let connect_exn addr =
  match Client.connect addr with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

(* Fire one rpc per fresh connection, all at once; collect in order. *)
let volley addr reqs =
  let reqs = Array.of_list reqs in
  let slots = Array.make (Array.length reqs) (Error "not run") in
  let fire i =
    match Client.connect addr with
    | Error m -> slots.(i) <- Error m
    | Ok c ->
      slots.(i) <- Client.rpc c reqs.(i);
      Client.close c
  in
  let threads =
    Array.to_list (Array.mapi (fun i _ -> Thread.create fire i) reqs)
  in
  List.iter Thread.join threads;
  Array.to_list slots

let digest_of = function
  | Ok (Proto.Sweep_r { digest; batch; _ }) -> (digest, batch)
  | Ok r ->
    Alcotest.failf "expected Sweep_r, got %s"
      (Json.to_string
         (Proto.response_to_json { Proto.id = 0; deadline_ms = None; payload = r }))
  | Error m -> Alcotest.failf "rpc: %s" m

let status_exn c =
  match rpc_exn c Proto.Status with
  | Proto.Status_r s -> s
  | _ -> Alcotest.fail "expected Status_r"

(* N identical concurrent requests: one underlying run, N - 1 coalesced
   joins, every response the same digest stamped batch = N, and that run
   counted as one batch of N. *)
let test_coalescing () =
  with_server (fun addr h ->
      ignore h;
      let spec =
        match Plan.spec_of_string "grid:queens:d16" with
        | Ok s -> s
        | Error m -> Alcotest.fail m
      in
      let n = 5 in
      let answers =
        List.map digest_of (volley addr (List.init n (fun _ -> Proto.Sweep spec)))
      in
      let d0 = fst (List.hd answers) in
      List.iter
        (fun (d, batch) ->
          Alcotest.(check string) "digest" d0 d;
          Alcotest.(check int) "batch" n batch)
        answers;
      let c = connect_exn addr in
      let s = status_exn c in
      Client.close c;
      Alcotest.(check int) "runs" 1 s.Proto.runs;
      Alcotest.(check int) "coalesced" (n - 1) s.Proto.coalesced;
      Alcotest.(check int) "batches" 1 s.Proto.batches;
      Alcotest.(check int) "batched" n s.Proto.batched;
      Alcotest.(check int) "timeouts" 0 s.Proto.timeouts;
      Alcotest.(check int) "shed" 0 s.Proto.shed)

(* A grid and a uarch sweep for one (bench, target) in flight together:
   two jobs (different keys never coalesce), each answered alone, and
   each digest equals what a directly-run plan produces in a fresh
   cache — the two serialise on the pair's Memo flight, not on the
   server. *)
let test_pair_in_flight () =
  let grid, uarch =
    match
      (Plan.spec_of_string "grid:queens:d16", Plan.spec_of_string "uarch:queens:d16")
    with
    | Ok g, Ok u -> (g, u)
    | Error m, _ | _, Error m -> Alcotest.fail m
  in
  (* Ground truth: each spec run directly, alone, in a throwaway cache. *)
  let direct =
    let tmp = Filename.get_temp_dir_name () in
    let cache =
      Filename.concat tmp
        (Printf.sprintf "repro-serve-direct-%d" (Unix.getpid ()))
    in
    let old = Diskcache.dir () in
    Diskcache.set_dir cache;
    Runs.clear_memo ();
    Fun.protect
      ~finally:(fun () ->
        Runs.clear_memo ();
        Diskcache.clear ();
        (try Sys.rmdir cache with Sys_error _ -> ());
        Diskcache.set_dir old)
      (fun () -> (Digests.of_spec grid, Digests.of_spec uarch))
  in
  with_server (fun addr h ->
      ignore h;
      match volley addr [ Proto.Sweep grid; Proto.Sweep uarch ] with
      | [ g; u ] ->
        let dg, bg = digest_of g and du, bu = digest_of u in
        Alcotest.(check string) "grid digest = direct" (fst direct) dg;
        Alcotest.(check string) "uarch digest = direct" (snd direct) du;
        Alcotest.(check int) "grid batch" 1 bg;
        Alcotest.(check int) "uarch batch" 1 bu;
        let c = connect_exn addr in
        let s = status_exn c in
        Client.close c;
        Alcotest.(check int) "one run each" 2 s.Proto.runs;
        Alcotest.(check int) "batches" 0 s.Proto.batches;
        Alcotest.(check int) "batched requests" 0 s.Proto.batched;
        Alcotest.(check int) "max batch" 0 s.Proto.max_batch
      | _ -> Alcotest.fail "volley arity")

(* A deadline shorter than the job: a typed Timeout, the connection
   stays usable, and the counter records it. *)
let test_timeout () =
  with_server (fun addr h ->
      ignore h;
      let c = connect_exn addr in
      (match rpc_exn c ~deadline_ms:50. (Proto.Sleep 1_000.) with
      | Proto.Error_r { code = Proto.Timeout; _ } -> ()
      | r ->
        Alcotest.failf "expected Timeout, got %s"
          (Json.to_string
             (Proto.response_to_json
                { Proto.id = 0; deadline_ms = None; payload = r })));
      (match rpc_exn c Proto.Ping with
      | Proto.Pong -> ()
      | _ -> Alcotest.fail "connection unusable after timeout");
      let s = status_exn c in
      Alcotest.(check int) "timeouts" 1 s.Proto.timeouts;
      Client.close c)

(* More concurrent holds than the bounded queue admits: the excess is
   answered Busy immediately — nobody hangs, and the shed counter
   matches. *)
let test_load_shed () =
  with_server ~jobs:2 ~max_queue:2 (fun addr h ->
      ignore h;
      let n = 5 in
      let answers = volley addr (List.init n (fun _ -> Proto.Sleep 800.)) in
      let slept, busy =
        List.fold_left
          (fun (s, b) -> function
            | Ok Proto.Slept -> (s + 1, b)
            | Ok (Proto.Error_r { code = Proto.Busy; _ }) -> (s, b + 1)
            | Ok r ->
              Alcotest.failf "unexpected response %s"
                (Json.to_string
                   (Proto.response_to_json
                      { Proto.id = 0; deadline_ms = None; payload = r }))
            | Error m -> Alcotest.failf "rpc: %s" m)
          (0, 0) answers
      in
      Alcotest.(check int) "everyone answered" n (slept + busy);
      Alcotest.(check bool) "some shed" true (busy >= 1);
      Alcotest.(check bool) "some served" true (slept >= 2);
      let c = connect_exn addr in
      let s = status_exn c in
      Client.close c;
      Alcotest.(check int) "shed counter" busy s.Proto.shed)

(* Raw junk on the socket: a typed bad-request reply, then the server
   closes that connection; a well-framed non-request keeps it open. *)
let test_malformed_never_hangs () =
  with_server (fun addr h ->
      ignore h;
      (* Not JSON at all. *)
      let c = connect_exn addr in
      let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match addr with
      | Client.Unix_sock p -> Unix.connect raw (Unix.ADDR_UNIX p)
      | _ -> assert false);
      let wc = Wire.of_fd raw in
      let line = Bytes.of_string "this is not json\n" in
      ignore (Unix.write raw line 0 (Bytes.length line));
      (match Wire.recv wc with
      | Ok (Some j) -> (
        match Proto.response_of_json j with
        | Ok { Proto.payload = Proto.Error_r { code = Proto.Bad_request; _ }; _ } ->
          ()
        | _ -> Alcotest.failf "expected bad-request, got %s" (Json.to_string j))
      | Ok None -> Alcotest.fail "closed without a reply"
      | Error m -> Alcotest.failf "recv: %s" m);
      (* ... and the connection is then closed. *)
      (match Wire.recv wc with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "expected EOF after junk"
      | Error _ -> ());
      Unix.close raw;
      (* Well-framed JSON that is not a request: typed error echoing the
         id, connection survives. *)
      let raw2 = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match addr with
      | Client.Unix_sock p -> Unix.connect raw2 (Unix.ADDR_UNIX p)
      | _ -> assert false);
      let wc2 = Wire.of_fd raw2 in
      (match Wire.send wc2 (Json.Obj [ ("id", Json.Int 7); ("x", Json.Int 1) ]) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "send: %s" m);
      (match Wire.recv wc2 with
      | Ok (Some j) -> (
        match Proto.response_of_json j with
        | Ok
            {
              Proto.id = 7;
              payload = Proto.Error_r { code = Proto.Bad_request; _ };
              _;
            } ->
          ()
        | _ -> Alcotest.failf "expected id-7 bad-request, got %s" (Json.to_string j))
      | Ok None -> Alcotest.fail "closed after recoverable error"
      | Error m -> Alcotest.failf "recv: %s" m);
      (match Wire.send wc2 (Proto.request_to_json
                              { Proto.id = 8; deadline_ms = None; payload = Proto.Ping }) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "send: %s" m);
      (match Wire.recv wc2 with
      | Ok (Some j) -> (
        match Proto.response_of_json j with
        | Ok { Proto.id = 8; payload = Proto.Pong; _ } -> ()
        | _ -> Alcotest.failf "expected pong, got %s" (Json.to_string j))
      | Ok None -> Alcotest.fail "connection dropped after recoverable error"
      | Error m -> Alcotest.failf "recv: %s" m);
      Unix.close raw2;
      Client.close c)

(* A Shutdown request is answered Bye, the server tears down completely,
   and the socket file is gone. *)
let test_shutdown () =
  with_server (fun addr h ->
      let c = connect_exn addr in
      (match rpc_exn c Proto.Shutdown with
      | Proto.Bye -> ()
      | _ -> Alcotest.fail "expected Bye");
      Client.close c;
      Server.wait h;
      (match addr with
      | Client.Unix_sock p ->
        Alcotest.(check bool) "socket unlinked" false (Sys.file_exists p)
      | _ -> ());
      match Client.connect addr with
      | Ok c' ->
        Client.close c';
        Alcotest.fail "connected to a stopped server"
      | Error _ -> ())

let tests =
  [
    Alcotest.test_case "json adversarial input" `Quick test_json_adversarial;
    Alcotest.test_case "protocol adversarial input" `Quick
      test_protocol_adversarial;
    Alcotest.test_case "plan spec syntax round-trip" `Quick test_spec_roundtrip;
    Alcotest.test_case "timeout is typed and prompt" `Quick test_timeout;
    Alcotest.test_case "overload sheds Busy" `Quick test_load_shed;
    Alcotest.test_case "malformed input never hangs" `Quick
      test_malformed_never_hangs;
    Alcotest.test_case "graceful shutdown" `Quick test_shutdown;
    Alcotest.test_case "coalescing: N requests, 1 run" `Slow test_coalescing;
    Alcotest.test_case "grid and uarch in flight = direct" `Slow
      test_pair_in_flight;
    QCheck_alcotest.to_alcotest json_roundtrip;
    QCheck_alcotest.to_alcotest request_roundtrip;
    QCheck_alcotest.to_alcotest response_roundtrip;
  ]
