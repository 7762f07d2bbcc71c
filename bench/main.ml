(* Benchmark harness: one Bechamel test per paper table/figure (the time to
   regenerate the artifact from the shared memoized runs), plus substrate
   microbenchmarks (compilation, simulation, trace capture and replay).

   Before timing anything the harness populates the run cache and prints
   every regenerated artifact, so the run doubles as the reproduction
   driver: `dune exec bench/main.exe` both reproduces the paper's tables
   and figures and reports how long each analysis takes.

   [--json PATH] additionally writes the per-test OLS estimates (ns/run)
   as a flat JSON object, for tracking timings across revisions. *)

open Bechamel
open Toolkit
module Target = Repro_core.Target
module Experiments = Repro_harness.Experiments
module Compile = Repro_harness.Compile
module Machine = Repro_sim.Machine
module Memsys = Repro_sim.Memsys
module Suite = Repro_workloads.Suite
module Uarch = Repro_uarch.Uarch
module Uconfig = Repro_uarch.Uconfig
module Trace = Repro_trace.Trace
module Replay = Repro_trace.Replay

let experiment_tests =
  List.map
    (fun (e : Experiments.t) ->
      Test.make ~name:e.Experiments.id
        (Staged.stage (fun () -> ignore (Experiments.render e))))
    Experiments.all

let queens = (Suite.find "queens").Suite.source

let substrate_tests =
  [
    Test.make ~name:"compile:d16:queens"
      (Staged.stage (fun () -> ignore (Compile.compile Target.d16 queens)));
    Test.make ~name:"compile:dlxe:queens"
      (Staged.stage (fun () -> ignore (Compile.compile Target.dlxe queens)));
    (let img = Compile.compile Target.d16 queens in
     Test.make ~name:"simulate:d16:queens"
       (Staged.stage (fun () -> ignore (Machine.run img))));
    (* What a cold Runs.stats runs: one execution whose records feed the
       chunk engine's two fetch buffers (bus 4 and 8), which step raw pcs,
       so no fetch event is packed.  CI tracks it against
       simulate:d16:queens. *)
    (let img = Compile.compile Target.d16 queens in
     Test.make ~name:"stats:d16:queens"
       (Staged.stage (fun () ->
            ignore
              (Replay.stream ~insn_bytes:2 { Replay.empty with buses = [ 4; 8 ] }
                 (fun hook ->
                   Machine.run
                     ~on_insn:(fun ~iaddr ~dinfo -> hook ~pc:iaddr ~dinfo)
                     img)))));
    (* The retained reference interpreter, timed next to the threaded
       fast path: the capture-vs-simulate CI ratio is only meaningful if
       simulate:d16 itself does not quietly regress to this. *)
    (let img = Compile.compile Target.d16 queens in
     Test.make ~name:"simulate-ref:d16:queens"
       (Staged.stage (fun () -> ignore (Machine.run_ref img))));
    (let img = Compile.compile Target.dlxe queens in
     Test.make ~name:"simulate:dlxe:queens"
       (Staged.stage (fun () -> ignore (Machine.run img))));
    (* Raw checksum throughput over 1 MiB, the pair that justifies trace
       format v2: what a byte of bulk payload costs to guard. *)
    (let buf = Bytes.init (1 lsl 20) (fun i -> Char.chr ((i * 131) land 0xFF)) in
     Test.make ~name:"checksum:md5:1M"
       (Staged.stage (fun () ->
            ignore (Digest.subbytes buf 0 (Bytes.length buf)))));
    (let buf = Bytes.init (1 lsl 20) (fun i -> Char.chr ((i * 131) land 0xFF)) in
     Test.make ~name:"checksum:crc32c:1M"
       (Staged.stage (fun () ->
            ignore (Repro_util.Crc32c.bytes buf 0 (Bytes.length buf)))));
  ]

(* The trace substrate: what a capture costs on top of simulation, what a
   replay costs instead of re-execution, and a cold four-configuration
   cache sweep replayed from one stored trace (reopened per run).  The
   single-replay keys step a decode held from before timing
   ([Replay.decode]): they time the engine, not the varint decode; the
   reopen-per-run keys decode inside the timed region. *)
let trace_tests =
  let img = Compile.compile Target.d16 queens in
  (* Prefer tmpfs for the capture substrate: it tracks the hot-path
     compute (encode + checksum + page-cache write), and on shared
     boxes the block device's unlink/discard latency otherwise swamps
     those costs with multi-ms spikes that have nothing to do with the
     code under test. *)
  let path =
    if Sys.file_exists "/dev/shm" && Sys.is_directory "/dev/shm" then
      Filename.temp_file ~temp_dir:"/dev/shm" "repro-bench" ".trc"
    else Filename.temp_file "repro-bench" ".trc"
  in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  let capture () =
    let w = Trace.Writer.create ~insn_bytes:2 path in
    let r =
      Machine.run
        ~on_insn:(fun ~iaddr ~dinfo -> Trace.Writer.step w ~pc:iaddr ~dinfo)
        img
    in
    Trace.Writer.close w;
    r
  in
  ignore (capture ());
  let rd =
    match Trace.Reader.open_file path with
    | Ok rd -> rd
    | Error e -> failwith e
  in
  let sweep_cfgs =
    List.map
      (fun size -> Memsys.cache_config ~size ~block:32 ~sub:4)
      [ 1024; 2048; 4096; 8192 ]
  in
  let decoded = Replay.decode rd in
  let caches cfgs =
    {
      Replay.empty with
      caches = List.map (fun cfg -> { Replay.icache = cfg; dcache = cfg }) cfgs;
    }
  in
  let replay_caches rd cfgs = Replay.run rd (caches cfgs) in
  (* 16 distinct geometries; grid-replay:Ncfg takes a prefix, so the three
     substrates share their fixed cost (open + checksum + one decode) and
     differ only in automata count — the sublinearity the engine claims. *)
  let grid_cfgs =
    List.concat_map
      (fun size ->
        List.concat_map
          (fun block ->
            List.map
              (fun sub -> Memsys.cache_config ~size ~block ~sub)
              [ 4; 8 ])
          [ 8; 16; 32; 64 ])
      [ 1024; 2048 ]
  in
  let take n xs = List.filteri (fun i _ -> i < n) xs in
  let grid_replay n () =
    match Trace.Reader.open_file path with
    | Error e -> failwith e
    | Ok rd ->
      ignore (replay_caches rd (take n grid_cfgs))
  in
  [
    (* Each iteration captures to a fresh file, like a cold store fill.
       Without the remove, every iteration renames over the previous
       one's trace, and on some filesystems dropping the old 1.5MB inode
       costs several ms — pure I/O noise that would swamp the encode and
       checksum costs this substrate tracks. *)
    Test.make ~name:"trace-capture:queens"
      (Staged.stage (fun () ->
           (try Sys.remove path with Sys_error _ -> ());
           ignore (capture ())));
    (* Open cost alone: v2 validates O(footer) at open (payload crcs are
       first-touch), so this must stay flat in file size. *)
    Test.make ~name:"trace-open:queens"
      (Staged.stage (fun () ->
           match Trace.Reader.open_file path with
           | Ok rd -> ignore (Trace.Reader.n_records rd)
           | Error e -> failwith e));
    Test.make ~name:"trace-cache-replay:4K:queens"
      (Staged.stage (fun () ->
           let cfg = Memsys.cache_config ~size:4096 ~block:32 ~sub:4 in
           ignore (Replay.run_decoded decoded (caches [ cfg ]))));
    Test.make ~name:"trace-fetch-seq:queens"
      (Staged.stage (fun () ->
           ignore
             (Replay.run_decoded decoded { Replay.empty with buses = [ 4 ] })));
    Test.make ~name:"sweep-replay:4cfg:queens"
      (Staged.stage (fun () ->
           match Trace.Reader.open_file path with
           | Error e -> failwith e
           | Ok rd ->
             ignore (replay_caches rd sweep_cfgs)));
    Test.make ~name:"grid-replay:4cfg:queens" (Staged.stage (grid_replay 4));
    Test.make ~name:"grid-replay:8cfg:queens" (Staged.stage (grid_replay 8));
    Test.make ~name:"grid-replay:16cfg:queens" (Staged.stage (grid_replay 16));
  ]

let uarch_tests =
  let img = Compile.compile Target.d16 queens in
  let nocache = Uconfig.nocache ~bus_bytes:4 ~wait_states:1 in
  let cached =
    let cfg = Memsys.cache_config ~size:4096 ~block:32 ~sub:4 in
    Uconfig.cached ~icache:cfg ~dcache:cfg ~miss_penalty:8
  in
  (* Multi-config pipeline grid over a stored trace: one decode feeds
     every configuration, memory automata deduplicated by behaviour
     class.  uarch-grid:8cfg extends the 4cfg prefix with two more cache
     geometries and two wait-state variants that dedup into already-paid
     classes, so cost must grow far sublinearly in configuration count
     (CI tracks 8cfg < 1.6x 4cfg).  The reader reopens per run, like
     grid-replay, so the fixed open+checksum cost is shared apples to
     apples across the pair. *)
  let path = Filename.temp_file "repro-bench-uarch" ".trc" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  let w = Trace.Writer.create ~insn_bytes:2 path in
  ignore
    (Machine.run
       ~on_insn:(fun ~iaddr ~dinfo -> Trace.Writer.step w ~pc:iaddr ~dinfo)
       img);
  Trace.Writer.close w;
  let rd =
    match Trace.Reader.open_file path with
    | Ok rd -> rd
    | Error e -> failwith e
  in
  let ucached size penalty =
    let cfg = Memsys.cache_config ~size ~block:32 ~sub:4 in
    Uconfig.cached ~icache:cfg ~dcache:cfg ~miss_penalty:penalty
  in
  let grid_cfgs =
    [
      Uconfig.nocache ~bus_bytes:4 ~wait_states:1;
      Uconfig.nocache ~bus_bytes:8 ~wait_states:1;
      ucached 1024 8; ucached 4096 8;
      Uconfig.nocache ~bus_bytes:4 ~wait_states:3;
      Uconfig.nocache ~bus_bytes:8 ~wait_states:3;
      ucached 2048 8; ucached 8192 8;
    ]
  in
  let take n xs = List.filteri (fun i _ -> i < n) xs in
  let uarch_grid n () =
    match Trace.Reader.open_file path with
    | Error e -> failwith e
    | Ok rd ->
      ignore
        (Replay.run ~img rd { Replay.empty with pipelines = take n grid_cfgs })
  in
  (* Both axes in one run: the same 8 cache geometries grid-replay:8cfg
     times plus the same 4 pipeline configurations uarch-grid:4cfg times,
     all from ONE reopen + decode of the trace.  CI tracks fused:8x4 <
     grid-replay:8cfg + uarch-grid:4cfg — one all-axis Replay.run must
     beat the two single-axis runs it replaces. *)
  let fused_caches =
    List.concat_map
      (fun block ->
        List.map
          (fun sub ->
            let cfg = Memsys.cache_config ~size:1024 ~block ~sub in
            { Replay.icache = cfg; dcache = cfg })
          [ 4; 8 ])
      [ 8; 16; 32; 64 ]
  in
  let fused () =
    match Trace.Reader.open_file path with
    | Error e -> failwith e
    | Ok rd ->
      ignore
        (Replay.run ~img rd
           {
             Replay.empty with
             caches = fused_caches;
             pipelines = take 4 grid_cfgs;
           })
  in
  (* The same spec as fused:8x4 from the execution itself: one run of
     queens whose records feed the chunk engine directly, with no trace
     written or decoded — what a cold sweep in the harness runs.  CI
     tracks live:8x4 < trace-capture + fused:8x4, the capture-then-replay
     it replaces. *)
  let live () =
    ignore
      (Replay.stream ~img ~insn_bytes:2
         { Replay.empty with caches = fused_caches; pipelines = take 4 grid_cfgs }
         (fun hook ->
           Machine.run ~on_insn:(fun ~iaddr ~dinfo -> hook ~pc:iaddr ~dinfo) img))
  in
  [
    (* The sequential oracle, one configuration per pass. *)
    Test.make ~name:"uarch-replay:nocache:queens"
      (Staged.stage (fun () -> ignore (Replay.Seq.pipelines rd [ nocache ] img)));
    Test.make ~name:"uarch-replay:4K:queens"
      (Staged.stage (fun () -> ignore (Replay.Seq.pipelines rd [ cached ] img)));
    Test.make ~name:"uarch-stream:queens"
      (Staged.stage (fun () -> ignore (Uarch.run nocache img)));
    Test.make ~name:"uarch-grid:4cfg:queens" (Staged.stage (uarch_grid 4));
    Test.make ~name:"uarch-grid:8cfg:queens" (Staged.stage (uarch_grid 8));
    Test.make ~name:"fused:8x4:queens" (Staged.stage fused);
    Test.make ~name:"live:8x4:queens" (Staged.stage live);
  ]

(* ISA-variant substrates (lib/isavar): what the fusion counters cost —
   one execution streamed through the fusion engine alone, the stream a
   cold {!Runs.fusion} adds to its pair's execution (plan construction is
   hoisted — it is per-image, not per-run) — and what the cache grid
   costs over a mixed-width D16m
   trace, whose wide fetches at [pc mod 4 = 2] straddle a 4-byte granule
   and replay as single straddle events between the runs.
   grid:d16:queens runs the same four geometries over the D16 queens
   trace, so CI can compare the mixed-width cost like for like. *)
let isavar_tests =
  let module Fusion = Repro_isavar.Fusion in
  let capture t name =
    let img = Compile.compile t queens in
    let path = Filename.temp_file name ".trc" in
    at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
    let w = Trace.Writer.create ~insn_bytes:(Target.insn_bytes t) path in
    ignore
      (Machine.run
         ~on_insn:(fun ~iaddr ~dinfo -> Trace.Writer.step w ~pc:iaddr ~dinfo)
         img);
    Trace.Writer.close w;
    match Trace.Reader.open_file path with
    | Ok rd -> (img, rd)
    | Error e -> failwith e
  in
  let d16_img, d16_rd = capture Target.d16 "repro-bench-fusion" in
  let plan = Fusion.plan Fusion.default_rules d16_img in
  let _, d16m_rd = capture Target.d16m "repro-bench-mixed" in
  let mixed_grid_cfgs =
    List.map
      (fun size -> Memsys.cache_config ~size ~block:32 ~sub:4)
      [ 1024; 2048; 4096; 8192 ]
  in
  (* Each key steps a decode held from before timing, so neither carries
     its trace's decode. *)
  let grid rd =
    let decoded = Replay.decode rd in
    fun () ->
      ignore
        (Replay.run_decoded decoded
           {
             Replay.empty with
             caches =
               List.map
                 (fun cfg -> { Replay.icache = cfg; dcache = cfg })
                 mixed_grid_cfgs;
           })
  in
  [
    Test.make ~name:"fusion:queens"
      (Staged.stage (fun () ->
           let st = Fusion.stream_start plan in
           ignore
             (Machine.run
                ~on_insn:(fun ~iaddr ~dinfo:_ -> Fusion.stream_step st ~iaddr)
                d16_img);
           ignore (Fusion.stream_finish st)));
    Test.make ~name:"mixed:grid:queens" (Staged.stage (grid d16m_rd));
    Test.make ~name:"grid:d16:queens" (Staged.stage (grid d16_rd));
  ]

(* Service-plane substrates: what the `d16c serve` daemon charges for a
   request, and what its coalescing saves.  One lazy in-process server
   on a private socket and a private cache dir (created at the first
   serve test, so its idle worker domains cannot tax the earlier
   measurements through stop-the-world collector synchronization).  Every
   iteration starts COLD (memo and disk cache cleared): the point of
   comparison is N independent cold clients (serve:direct:8x1, each
   request pays the full computation, the pre-server workflow) against
   8 concurrent duplicates answered by one coalesced run
   (serve:coalesce:8x1).  CI gates (advisorily) on coalesce < direct. *)
let serve_tests =
  let module Diskcache = Repro_harness.Diskcache in
  let module Runs = Repro_harness.Runs in
  let module Plan = Repro_harness.Plan in
  let module Proto = Repro_serve.Proto in
  let module Server = Repro_serve.Server in
  let module Client = Repro_serve.Client in
  let module Digests = Repro_serve.Digests in
  let spec s =
    match Plan.spec_of_string s with Ok s -> s | Error m -> failwith m
  in
  let grid = spec "grid:queens:d16" in
  let env =
    lazy
      (let tmp = Filename.get_temp_dir_name () in
       let dir =
         Filename.concat tmp
           (Printf.sprintf "repro-bench-serve-%d" (Unix.getpid ()))
       in
       Diskcache.set_dir dir;
       let sock =
         Filename.concat tmp
           (Printf.sprintf "repro-bench-serve-%d.sock" (Unix.getpid ()))
       in
       let cfg =
         {
           (Server.default_config ()) with
           Server.unix_path = Some sock;
           tcp = None;
           log = ignore;
           log_interval_s = 0.;
         }
       in
       match Server.start cfg with
       | Error m -> failwith m
       | Ok h ->
         at_exit (fun () ->
             Server.stop h;
             Server.wait h;
             try
               Diskcache.clear ();
               Sys.rmdir dir
             with Sys_error _ -> ());
         Client.Unix_sock sock)
  in
  let cold () =
    Runs.clear_memo ();
    Diskcache.clear ()
  in
  (* One rpc per fresh connection, all in flight at once. *)
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
    Array.iter
      (function
        | Ok (Proto.Sweep_r _) -> ()
        | Ok _ -> failwith "serve bench: unexpected response"
        | Error m -> failwith ("serve bench: " ^ m))
      slots
  in
  [
    Test.make ~name:"serve:coalesce:8x1"
      (Staged.stage (fun () ->
           let addr = Lazy.force env in
           cold ();
           volley addr (List.init 8 (fun _ -> Proto.Sweep grid))));
    Test.make ~name:"serve:direct:8x1"
      (Staged.stage (fun () ->
           ignore (Lazy.force env);
           for _ = 1 to 8 do
             cold ();
             ignore (Digests.of_spec grid)
           done));
  ]

let benchmark test =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Instance.monotonic_clock raw
  in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> (name, ns) :: acc
      | _ -> (name, nan) :: acc)
    results []

let pp_time ns =
  if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
  else Printf.sprintf "%8.2f ns" ns

let jobs =
  let rec find = function
    | "--jobs" :: n :: _ -> (
      match int_of_string_opt n with Some n when n >= 1 -> n | _ -> 1)
    | _ :: rest -> find rest
    | [] -> Repro_harness.Pool.default_jobs ()
  in
  find (Array.to_list Sys.argv)

let json_path =
  let rec find = function
    | "--json" :: p :: _ -> Some p
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

(* [--smoke]: substrates only — skip artifact regeneration (phase 1) and
   the per-experiment timings, which need the full run cache.  CI uses
   this to track substrate timings on every push. *)
let smoke = Array.exists (( = ) "--smoke") Sys.argv

(* Flat {"name": ns_per_run, ...} object; OLS estimates that did not
   converge are null.  Test names are [A-Za-z0-9:-], so OCaml's string
   escaping coincides with JSON's. *)
let write_json path results =
  let oc = open_out path in
  output_string oc "{\n";
  let n = List.length results in
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  %S: %s%s\n" name
        (if Float.is_nan ns then "null" else Printf.sprintf "%.3f" ns)
        (if i = n - 1 then "" else ","))
    results;
  output_string oc "}\n";
  close_out oc

let () =
  (* Phase 1: regenerate and print every artifact (also warms the memo and
     the persistent cache).  Wall-clock is reported so cold vs warm cache
     behavior is visible. *)
  if not smoke then begin
    let t0 = Unix.gettimeofday () in
    print_endline (Experiments.render_all ~jobs ());
    let t1 = Unix.gettimeofday () in
    Printf.printf "\nphase 1 (artifacts, jobs=%d): %.2fs wall\n%!" jobs
      (t1 -. t0)
  end;
  (* Phase 2: time each regeneration and the substrates. *)
  Printf.printf "\n================ bench timings ================\n%!";
  (* serve_tests stay LAST: their first run redirects the disk cache to
     a private directory and wakes the server's worker domains, both of
     which would perturb every measurement after them (with idle worker
     domains behind it, mixed:grid:queens measured anywhere from 1.0x to
     3.2x grid:d16:queens from run to run, against 1.3x to 1.5x with
     none). *)
  let tests =
    if smoke then
      substrate_tests @ isavar_tests @ trace_tests @ uarch_tests @ serve_tests
    else
      experiment_tests @ substrate_tests @ isavar_tests @ trace_tests
      @ uarch_tests @ serve_tests
  in
  let results =
    List.concat_map
      (fun test ->
        let rs = List.sort compare (benchmark test) in
        List.iter
          (fun (name, ns) -> Printf.printf "%-28s %s\n%!" name (pp_time ns))
          rs;
        rs)
      tests
  in
  match json_path with
  | None -> ()
  | Some path ->
    write_json path results;
    Printf.printf "\nwrote %d estimates to %s\n%!" (List.length results) path
