(* d16c: compile and run mini-C programs on the paper's targets, and
   drive the experiment server.

   Usage examples:
     d16c run --target d16 prog.c
     d16c --bench queens --all-targets        (run is the default command)
     d16c --target dlxe --asm prog.c          (dump assembly items)
     d16c --list                              (list suite benchmarks)
     d16c serve                               (experiment daemon)
     d16c serve --once                        (in-process self-test)
     d16c client ping grid:queens:d16         (talk to the daemon)        *)

open Cmdliner
module Plan = Repro_harness.Plan
module Proto = Repro_serve.Proto
module Server = Repro_serve.Server
module Client = Repro_serve.Client

let target_conv =
  Arg.conv
    ( (fun s ->
        Result.map_error
          (fun m -> `Msg m)
          (Repro_core.Target.of_name s)),
      fun fmt t -> Format.pp_print_string fmt t.Repro_core.Target.name )

(* run (default command) ------------------------------------------------- *)

let run_one target source ~show_asm ~show_stats =
  if show_asm then begin
    (* Recompile per function to print items. *)
    let module P = Repro_minic.Parser in
    let module L = Repro_ir.Lower in
    let module O = Repro_ir.Opt in
    let module R = Repro_ir.Regalloc in
    let module I = Repro_codegen.Irprep in
    let module S = Repro_codegen.Select in
    let module Sc = Repro_codegen.Sched in
    let src = Repro_workloads.Runtime_lib.source ^ source in
    let u = L.lower_program (P.parse src) in
    let lits = I.empty_fp_literals () in
    List.iter
      (fun f ->
        O.optimize f;
        I.prepare target lits f;
        let alloc = R.allocate target f in
        let frag = Sc.fill_delay_slots target (Sc.schedule_loads (S.select target alloc f)) in
        print_string (Repro_codegen.Asm.fragment_to_string frag))
      u.L.funcs
  end;
  let img, r = Repro_harness.Compile.compile_and_run target source in
  print_string r.Repro_sim.Machine.output;
  if show_stats then
    Printf.eprintf
      "[%s] exit=%d size=%dB text=%dB path=%d loads=%d stores=%d interlocks=%d\n"
      target.Repro_core.Target.name r.Repro_sim.Machine.exit_code
      (Repro_link.Link.size_bytes img)
      img.Repro_link.Link.text_bytes r.Repro_sim.Machine.ic
      r.Repro_sim.Machine.loads r.Repro_sim.Machine.stores
      r.Repro_sim.Machine.interlocks;
  r.Repro_sim.Machine.exit_code

let run_main target file bench all_targets list_benchmarks show_asm show_stats =
  if list_benchmarks then begin
    List.iter
      (fun (b : Repro_workloads.Suite.benchmark) ->
        Printf.printf "%-12s %s\n" b.name b.description)
      Repro_workloads.Suite.all;
    0
  end
  else begin
    let source =
      match (file, bench) with
      | Some f, None -> Ok (In_channel.with_open_text f In_channel.input_all)
      | None, Some b -> (
        try Ok (Repro_workloads.Suite.find b).Repro_workloads.Suite.source
        with Not_found -> Error ("unknown benchmark " ^ b))
      | Some _, Some _ -> Error "give either a file or --bench, not both"
      | None, None -> Error "no input (file or --bench)"
    in
    match source with
    | Error m ->
      prerr_endline m;
      1
    | Ok source ->
      let targets =
        if all_targets then Repro_core.Target.all else [ target ]
      in
      List.fold_left
        (fun acc t ->
          try max acc (run_one t source ~show_asm ~show_stats) with
          | Repro_harness.Compile.Compile_error m ->
            Printf.eprintf "compile error (%s): %s\n" t.Repro_core.Target.name m;
            2
          | Repro_sim.Machine.Runtime_error m ->
            Printf.eprintf "runtime error (%s): %s\n" t.Repro_core.Target.name m;
            3)
        0 targets
  end

let run_term =
  let target =
    Arg.(
      value
      & opt target_conv Repro_core.Target.d16
      & info [ "t"; "target" ] ~doc:"Target: d16, d16x, dlxe, dlxe-16-2, dlxe-16-3, dlxe-32-2.")
  in
  let file = Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE") in
  let bench =
    Arg.(value & opt (some string) None & info [ "bench" ] ~doc:"Run a suite benchmark.")
  in
  let all_targets =
    Arg.(value & flag & info [ "all-targets" ] ~doc:"Run on all five targets.")
  in
  let list_benchmarks =
    Arg.(value & flag & info [ "list" ] ~doc:"List suite benchmarks.")
  in
  let show_asm = Arg.(value & flag & info [ "asm" ] ~doc:"Dump assembly.") in
  let show_stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print run statistics to stderr.")
  in
  Term.(
    const run_main $ target $ file $ bench $ all_targets $ list_benchmarks
    $ show_asm $ show_stats)

(* Shared serve/client plumbing ------------------------------------------ *)

let default_socket () =
  Filename.concat (Repro_harness.Diskcache.dir ()) "d16c.sock"

let tcp_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg "expected HOST:PORT")
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (host, p)
      | _ -> Error (`Msg ("bad port " ^ port)))
  in
  Arg.conv (parse, fun fmt (h, p) -> Format.fprintf fmt "%s:%d" h p)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (default: d16c.sock under the runs cache).")

let tcp_arg ~doc =
  Arg.(value & opt (some tcp_conv) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let parse_request s =
  match s with
  | "ping" -> Ok Proto.Ping
  | "status" -> Ok Proto.Status
  | "shutdown" -> Ok Proto.Shutdown
  | _ when String.length s > 6 && String.sub s 0 6 = "sleep:" -> (
    match float_of_string_opt (String.sub s 6 (String.length s - 6)) with
    | Some ms when ms >= 0. -> Ok (Proto.Sleep ms)
    | _ -> Error (Printf.sprintf "bad sleep duration in %S" s))
  | _ when Plan.looks_like_spec s ->
    Result.map (fun spec -> Proto.Sweep spec) (Plan.spec_of_string s)
  | _ -> Ok (Proto.Render s)

let print_response = function
  | Proto.Error_r { code; message } ->
    Printf.printf "error %s: %s\n" (Proto.error_code_to_string code) message
  | Proto.Pong -> print_endline "pong"
  | Proto.Slept -> print_endline "slept"
  | Proto.Bye -> print_endline "bye"
  | Proto.Render_r { text; _ } -> print_string text
  | Proto.Sweep_r { spec; digest; batch; ms } ->
    Printf.printf "%s digest=%s batch=%d ms=%.1f\n" (Plan.spec_to_string spec)
      digest batch ms
  | Proto.Status_r s ->
    Printf.printf
      "up=%.1fs accepted=%d completed=%d failed=%d\n\
       coalesced=%d batches=%d batched=%d max-batch=%d runs=%d\n\
       queue=%d timeouts=%d shed=%d disk=%d/%d lat(avg/max)=%.1f/%.1fms\n"
      s.Proto.uptime_s s.Proto.accepted s.Proto.completed s.Proto.failed
      s.Proto.coalesced s.Proto.batches s.Proto.batched s.Proto.max_batch
      s.Proto.runs s.Proto.queue_depth s.Proto.timeouts
      s.Proto.shed s.Proto.disk_hits s.Proto.disk_misses
      (if s.Proto.completed = 0 then 0.
       else s.Proto.latency_ms_sum /. float_of_int s.Proto.completed)
      s.Proto.latency_ms_max

(* client ---------------------------------------------------------------- *)

let client_main socket tcp deadline_ms dup reqs =
  let addr =
    match tcp with
    | Some (h, p) -> Client.Tcp (h, p)
    | None -> Client.Unix_sock (Option.value ~default:(default_socket ()) socket)
  in
  let deadline_ms = Option.map float_of_int deadline_ms in
  match
    List.fold_left
      (fun acc s ->
        Result.bind acc (fun rs ->
            Result.map (fun r -> (s, r) :: rs) (parse_request s)))
      (Ok []) reqs
  with
  | Error m ->
    prerr_endline m;
    1
  | Ok [] ->
    prerr_endline "no requests (try: d16c client ping)";
    1
  | Ok rev_reqs -> (
    let reqs = List.rev rev_reqs in
    match Client.connect addr with
    | Error m ->
      prerr_endline m;
      1
    | Ok c ->
      let ok = ref true in
      List.iter
        (fun (s, r) ->
          if dup > 1 then begin
            (* N simultaneous copies from N connections; print each
               response — equal digests and batch = N are the point. *)
            let slots = Array.make dup (Error "not run") in
            let fire i =
              match Client.connect addr with
              | Error m -> slots.(i) <- Error m
              | Ok c' ->
                slots.(i) <- Client.rpc c' ?deadline_ms r;
                Client.close c'
            in
            let threads = List.init dup (fun i -> Thread.create fire i) in
            List.iter Thread.join threads;
            Array.iter
              (function
                | Ok (Proto.Error_r { code; message }) ->
                  Printf.eprintf "%s: %s: %s\n" s
                    (Proto.error_code_to_string code)
                    message;
                  ok := false
                | Ok resp -> print_response resp
                | Error m ->
                  Printf.eprintf "%s: %s\n" s m;
                  ok := false)
              slots
          end
          else
            match Client.rpc c ?deadline_ms r with
            | Ok (Proto.Error_r { code; message }) ->
              Printf.eprintf "%s: %s: %s\n" s
                (Proto.error_code_to_string code)
                message;
              ok := false
            | Ok resp -> print_response resp
            | Error m ->
              Printf.eprintf "%s: %s\n" s m;
              ok := false)
        reqs;
      Client.close c;
      if !ok then 0 else 1)

let client_cmd =
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~doc:"Per-request deadline in milliseconds.")
  in
  let dup =
    Arg.(
      value & opt int 1
      & info [ "dup" ]
          ~doc:
            "Send each request $(docv) times at once from $(docv) \
             connections (demonstrates coalescing: responses report \
             batch=$(docv) and identical digests).")
  in
  let reqs =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "ping | status | shutdown | a plan spec (grid:queens:d16) | \
             an experiment id (table2) | sleep:MS.")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Send requests to a running d16c serve daemon.")
    Term.(const client_main $ socket_arg
          $ tcp_arg ~doc:"Connect over TCP instead of the Unix socket."
          $ deadline $ dup $ reqs)

(* serve ----------------------------------------------------------------- *)

(* In-process end-to-end self-test: serve on a private socket over a
   private, empty cache directory, drive it with real clients over real
   sockets, and check the coalescing counters — the CI smoke path with
   no daemon management.  The empty cache keeps the duplicate requests
   cold, so they are still in flight together and must coalesce; over a
   warm cache each can finish before the next arrives. *)
let self_test (cfg : Server.config) =
  let module Diskcache = Repro_harness.Diskcache in
  let base =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "d16c-once-%d" (Unix.getpid ()))
  in
  let path = base ^ ".sock" in
  Diskcache.set_dir base;
  Fun.protect ~finally:(fun () ->
      Diskcache.clear ();
      try Sys.rmdir base with Sys_error _ -> ())
  @@ fun () ->
  let cfg = { cfg with Server.unix_path = Some path; tcp = None } in
  match Server.start cfg with
  | Error m ->
    prerr_endline m;
    1
  | Ok h ->
    let addr = Client.Unix_sock path in
    let fail = ref [] in
    let check name b = if not b then fail := name :: !fail in
    let rpc c r =
      match Client.rpc c r with
      | Ok resp -> resp
      | Error m -> Proto.Error_r { code = Proto.Server_error; message = m }
    in
    (match Client.connect addr with
    | Error m -> fail := ("connect: " ^ m) :: !fail
    | Ok c ->
      check "ping" (rpc c Proto.Ping = Proto.Pong);
      (match Plan.spec_of_string "stats:queens:d16" with
      | Error m -> fail := ("spec: " ^ m) :: !fail
      | Ok spec -> (
        match rpc c (Proto.Sweep spec) with
        | Proto.Sweep_r { digest; _ } ->
          (* Concurrent duplicates: 4 connections fire the same grid
             request; all must answer the same digest from one run. *)
          let n = 4 in
          let spec2 =
            match Plan.spec_of_string "grid:queens:d16" with
            | Ok s -> s
            | Error _ -> spec
          in
          let slots = Array.make n None in
          let fire i =
            match Client.connect addr with
            | Error _ -> ()
            | Ok c' ->
              (match rpc c' (Proto.Sweep spec2) with
              | Proto.Sweep_r { digest = d; batch; _ } ->
                slots.(i) <- Some (d, batch)
              | _ -> ());
              Client.close c'
          in
          let threads = List.init n (fun i -> Thread.create fire i) in
          List.iter Thread.join threads;
          let answers = Array.to_list slots |> List.filter_map Fun.id in
          check "dup-answered" (List.length answers = n);
          (match answers with
          | (d0, _) :: _ ->
            check "dup-digests-equal" (List.for_all (fun (d, _) -> d = d0) answers)
          | [] -> ());
          (match rpc c Proto.Status with
          | Proto.Status_r s ->
            check "coalesced" (s.Proto.coalesced > 0 && s.Proto.batches >= 1);
            check "runs-bounded" (s.Proto.runs < 2 + n)
          | _ -> check "status" false);
          check "digest-nonempty" (digest <> "")
        | _ -> check "sweep" false));
      check "shutdown" (rpc c Proto.Shutdown = Proto.Bye);
      Client.close c);
    Server.wait h;
    if !fail = [] then begin
      print_endline "serve --once: all checks passed";
      0
    end
    else begin
      List.iter (fun f -> Printf.eprintf "serve --once: FAILED %s\n" f) !fail;
      1
    end

let serve_main socket tcp jobs queue deadline_ms log_interval once =
  let base = Server.default_config () in
  let cfg =
    {
      base with
      Server.unix_path = Some (Option.value ~default:(default_socket ()) socket);
      tcp;
      jobs;
      max_queue = queue;
      default_deadline_ms = float_of_int deadline_ms;
      log_interval_s = log_interval;
    }
  in
  if once then self_test cfg
  else
    match Server.run cfg with
    | Ok () -> 0
    | Error m ->
      prerr_endline m;
      1

let serve_cmd =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~doc:"Worker domains (default: cores, min 2).")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~doc:"Max jobs in flight before shedding Busy.")
  in
  let deadline =
    Arg.(
      value & opt int 60_000
      & info [ "deadline-ms" ]
          ~doc:"Default deadline for requests that carry none.")
  in
  let log_interval =
    Arg.(
      value & opt float 10.
      & info [ "log-interval" ]
          ~doc:"Seconds between observability log lines (0 disables).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Self-test: serve on a private socket, drive it end-to-end \
             (ping, sweeps, concurrent duplicates), verify the coalescing \
             counters, shut down, and exit 0 on success.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the experiment server daemon.")
    Term.(const serve_main $ socket_arg
          $ tcp_arg ~doc:"Also listen on TCP HOST:PORT."
          $ jobs $ queue $ deadline $ log_interval $ once)

(* fusion ---------------------------------------------------------------- *)

(* The macro-op fusion accounting on D16, one line per benchmark: baseline
   path length, dynamically fused pairs, and the fused op count, counted
   on the retired-instruction stream of one execution.  Exits
   nonzero unless fusion strictly shortens the path on every benchmark
   given (the CI advisory gate). *)
let fusion_main benches =
  let module Fusion = Repro_isavar.Fusion in
  let module Suite = Repro_workloads.Suite in
  let benches =
    match benches with
    | [] -> List.map (fun (b : Suite.benchmark) -> b.Suite.name) Suite.all
    | bs -> bs
  in
  let t = Repro_core.Target.d16 in
  let ok = ref true in
  List.iter
    (fun bench ->
      match
        try Some (Suite.find bench).Repro_workloads.Suite.source
        with Not_found -> None
      with
      | None ->
        prerr_endline ("unknown benchmark " ^ bench);
        ok := false
      | Some source ->
        let img = Repro_harness.Compile.compile t source in
        let st = Fusion.stream_start (Fusion.plan Fusion.default_rules img) in
        ignore
          (Repro_sim.Machine.run
             ~on_insn:(fun ~iaddr ~dinfo:_ -> Fusion.stream_step st ~iaddr)
             img);
        let c = Fusion.stream_finish st in
        let ops = Fusion.dynamic_ops c in
        Printf.printf "%-12s path=%9d fused=%8d ops=%9d (%.1f%% of baseline)\n%!"
          bench c.Fusion.ic c.Fusion.fused ops
          (100. *. float_of_int ops /. float_of_int c.Fusion.ic);
        if ops >= c.Fusion.ic then begin
          Printf.eprintf "%s: fused path is not strictly shorter\n" bench;
          ok := false
        end)
    benches;
  if !ok then 0 else 1

let fusion_cmd =
  let benches =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"BENCH"
          ~doc:"Suite benchmarks to check (default: the whole suite).")
  in
  Cmd.v
    (Cmd.info "fusion"
       ~doc:
         "Report macro-op fusion path-length savings on D16; fail unless \
          strictly positive on every benchmark.")
    Term.(const fusion_main $ benches)

(* ----------------------------------------------------------------------- *)

let group =
  Cmd.group
    (Cmd.info "d16c" ~doc:"mini-C compiler, simulator and experiment server for D16/DLXe")
    ~default:run_term
    [ Cmd.v (Cmd.info "run" ~doc:"Compile and run (the default command).") run_term;
      serve_cmd; client_cmd; fusion_cmd ]

let () =
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok n) -> n
    | Ok _ -> 0
    | Error _ -> 124)
