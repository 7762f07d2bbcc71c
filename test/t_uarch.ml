(* Differential validation of the cycle-accurate pipeline model (lib/uarch)
   against the analytical memory-system formulas (lib/sim/memsys): on every
   suite benchmark and both paper machines, the per-cycle model's totals
   must equal the closed formulas EXACTLY — same interlocks, same cacheless
   cycles at every bus width and wait-state count, same cache miss counters
   and cached cycles.  Plus attribution sanity on small programs and the
   streaming-vs-replay equivalence. *)

module Machine = Repro_sim.Machine
module Memsys = Repro_sim.Memsys
module Target = Repro_core.Target
module Suite = Repro_workloads.Suite
module Compile = Repro_harness.Compile
module Uarch = Repro_uarch.Uarch
module Uconfig = Repro_uarch.Uconfig
module Pipeline = Repro_uarch.Pipeline
module Stalls = Repro_uarch.Stalls
module Predecode = Repro_uarch.Predecode
module Replay = Repro_trace.Replay
module Reader = Repro_trace.Trace.Reader
module Runs = Repro_harness.Runs

let bus_widths = [ 2; 4; 8 ]
let wait_states = [ 0; 1; 2; 3 ]

(* (size, block, sub, penalty): a small thrashy geometry and a large one
   with wide sub-blocks, exercising both prefetch regimes. *)
let cache_points = [ (1024, 32, 4, 8); (4096, 64, 8, 12) ]

let differential bench (t : Target.t) =
  let src = (Suite.find bench).Suite.source in
  let img = Compile.compile t src in
  let r, rd = Capture.capture img in
  let name fmt =
    Printf.ksprintf (fun s -> bench ^ " " ^ t.Target.name ^ " " ^ s) fmt
  in
  (* The pipeline model over the trace (one sequential pass per bus, all
     its wait-state counts at once) against the closed formulas over the
     sequential replay's counters. *)
  List.iter
    (fun bus ->
      let nc = Replay.Seq.nocache rd ~bus_bytes:bus in
      let cfgs =
        List.map
          (fun l -> Uconfig.nocache ~bus_bytes:bus ~wait_states:l)
          wait_states
      in
      List.iter2
        (fun l (p : Pipeline.result) ->
          let u = p.Pipeline.stalls in
          Alcotest.(check int)
            (name "bus=%d l=%d cycles" bus l)
            (Memsys.nocache_cycles ~wait_states:l r nc)
            u.Stalls.cycles;
          Alcotest.(check int) (name "bus=%d l=%d ic" bus l) r.Machine.ic
            u.Stalls.ic;
          Alcotest.(check int)
            (name "bus=%d l=%d interlocks" bus l)
            r.Machine.interlocks (Stalls.interlocks u);
          Alcotest.(check bool)
            (name "bus=%d l=%d components sum" bus l)
            true (Stalls.consistent u))
        wait_states
        (Replay.Seq.pipelines rd cfgs img))
    bus_widths;
  List.iter
    (fun (size, block, sub, penalty) ->
      let cfg = Memsys.cache_config ~size ~block ~sub in
      let c = Replay.Seq.cached ~icache:cfg ~dcache:cfg rd in
      let ures =
        List.hd
          (Replay.Seq.pipelines rd
             [ Uconfig.cached ~icache:cfg ~dcache:cfg ~miss_penalty:penalty ]
             img)
      in
      let uc = Option.get ures.Pipeline.caches in
      let u = ures.Pipeline.stalls in
      let geo = Printf.sprintf "%d/%d/%d" size block sub in
      Alcotest.(check int)
        (name "%s imisses" geo)
        c.Memsys.icache.Memsys.misses uc.Memsys.icache.Memsys.misses;
      Alcotest.(check int)
        (name "%s iwords" geo)
        c.Memsys.icache.Memsys.words_transferred
        uc.Memsys.icache.Memsys.words_transferred;
      Alcotest.(check int)
        (name "%s read misses" geo)
        c.Memsys.dcache_read.Memsys.misses
        uc.Memsys.dcache_read.Memsys.misses;
      Alcotest.(check int)
        (name "%s read accesses" geo)
        c.Memsys.dcache_read.Memsys.accesses
        uc.Memsys.dcache_read.Memsys.accesses;
      Alcotest.(check int)
        (name "%s write misses" geo)
        c.Memsys.dcache_write.Memsys.misses
        uc.Memsys.dcache_write.Memsys.misses;
      Alcotest.(check int)
        (name "%s write accesses" geo)
        c.Memsys.dcache_write.Memsys.accesses
        uc.Memsys.dcache_write.Memsys.accesses;
      Alcotest.(check int)
        (name "%s cycles" geo)
        (Memsys.cached_cycles ~miss_penalty:penalty r c)
        u.Stalls.cycles;
      Alcotest.(check bool)
        (name "%s components sum" geo)
        true (Stalls.consistent u))
    cache_points

let differential_case bench =
  Alcotest.test_case ("differential " ^ bench) `Slow (fun () ->
      List.iter (differential bench) [ Target.d16; Target.dlxe ])

let test_stream_equals_replay () =
  (* Feeding pipelines from the live on_insn hook must produce the same
     result as replaying a recorded trace of the same program. *)
  let src = (Suite.find "queens").Suite.source in
  List.iter
    (fun t ->
      let img = Compile.compile t src in
      let traced, rd = Capture.capture img in
      let cfgs =
        [
          Uconfig.nocache ~bus_bytes:4 ~wait_states:1;
          (let c = Memsys.cache_config ~size:1024 ~block:32 ~sub:4 in
           Uconfig.cached ~icache:c ~dcache:c ~miss_penalty:8);
        ]
      in
      let r, streamed = Uarch.run_many cfgs img in
      Alcotest.(check int) "trace holds every record" r.Machine.ic
        (Reader.n_records rd);
      Alcotest.(check int) "same architectural ic" traced.Machine.ic
        r.Machine.ic;
      List.iter2
        (fun cfg (s, (p : Pipeline.result)) ->
          Alcotest.(check string)
            (Uconfig.describe cfg ^ " stream = replay")
            (Stalls.to_string p.Pipeline.stalls)
            (Stalls.to_string s.Pipeline.stalls))
        cfgs
        (List.combine streamed (Replay.Seq.pipelines rd cfgs img)))
    [ Target.d16; Target.dlxe ]

let run_uarch t cfg src =
  let img, _ = Compile.compile_and_run t src in
  (snd (Uarch.run cfg img)).Pipeline.stalls

let test_attribution_load () =
  (* A load-use chain shows up as load interlocks, never FP. *)
  let src =
    {|int g = 5;
      int main() {
        int i; int s = 0;
        for (i = 0; i < 100; i++) s = s + g;
        print_int(s);
        return 0; }|}
  in
  let u = run_uarch Target.dlxe (Uconfig.nocache ~bus_bytes:4 ~wait_states:0) src in
  Alcotest.(check bool) "load interlocks present" true
    (u.Stalls.load_interlocks > 0);
  Alcotest.(check int) "no fp interlocks" 0 u.Stalls.fp_interlocks;
  (* Zero wait states: a cacheless machine never stalls on memory. *)
  Alcotest.(check int) "no fetch stalls at l=0" 0 u.Stalls.fetch_stalls;
  Alcotest.(check int) "no data stalls at l=0" 0
    (u.Stalls.dmiss_stalls + u.Stalls.wmiss_stalls)

let test_attribution_fp () =
  let src =
    {|double g = 3.0;
      int main() {
        double x = 1.0; int i;
        for (i = 0; i < 50; i++) x = 1.0 / (x + g);
        print_int((int)(x * 1000.0));
        return 0; }|}
  in
  let u = run_uarch Target.dlxe (Uconfig.nocache ~bus_bytes:4 ~wait_states:0) src in
  Alcotest.(check bool)
    (Printf.sprintf "fp divide chain stalls (%d)" u.Stalls.fp_interlocks)
    true
    (u.Stalls.fp_interlocks > 50)

let test_attribution_fetch () =
  (* Wait states turn fetches into fetch stalls; D16's 2-byte instructions
     on a 4-byte bus need at most half the requests of DLXe's 4-byte ones. *)
  let src = (Suite.find "towers").Suite.source in
  let at t l =
    run_uarch t (Uconfig.nocache ~bus_bytes:4 ~wait_states:l) src
  in
  let d16 = at Target.d16 2 and dlxe = at Target.dlxe 2 in
  Alcotest.(check bool) "wait states cost fetch stalls" true
    (d16.Stalls.fetch_stalls > 0);
  Alcotest.(check bool) "D16 fetch-stalls less than DLXe" true
    (d16.Stalls.fetch_stalls < dlxe.Stalls.fetch_stalls);
  (* DLXe 32-bit fetch on a 32-bit bus: every instruction is a request. *)
  Alcotest.(check int) "DLXe fetch stalls = l * ic"
    (2 * dlxe.Stalls.ic) dlxe.Stalls.fetch_stalls

let test_predecode_shared () =
  (* The descriptor table is a pure function of the program: two compiles
     of the same source give equal tables, whichever one a replay
     builds. *)
  let src = (Suite.find "towers").Suite.source in
  let img = Compile.compile Target.d16 src in
  let img' = Compile.compile Target.d16 src in
  Alcotest.(check bool) "same program, equal tables" true
    (Predecode.table img = Predecode.table img')

(* Replay.run's pipeline axis against the streamed run, with chunks far
   smaller than production (77 records — boundaries land everywhere,
   including mid-drain) and configurations beyond the standard sweep that
   force the raw i-stream paths (2-byte bus, sub-word sub-blocks). *)
let test_grid_equals_streamed () =
  let cfgs =
    Runs.standard_uarch_configs
    @ [
        Uconfig.nocache ~bus_bytes:2 ~wait_states:1;
        (let c = Memsys.cache_config ~size:256 ~block:16 ~sub:2 in
         Uconfig.cached ~icache:c ~dcache:c ~miss_penalty:5);
      ]
  in
  let src = (Suite.find "queens").Suite.source in
  List.iter
    (fun (t : Target.t) ->
      let img = Compile.compile t src in
      let _, rd = Capture.capture ~chunk_records:77 img in
      let _, streamed = Uarch.run_many cfgs img in
      let grid =
        (Replay.run ~img rd { Replay.empty with pipelines = cfgs })
          .Replay.pipes
      in
      List.iteri
        (fun i (s : Pipeline.result) ->
          let d = t.Target.name ^ " " ^ Uconfig.describe (List.nth cfgs i) in
          let against what (p : Pipeline.result) =
            Alcotest.(check string)
              (d ^ " " ^ what ^ " stalls")
              (Stalls.to_string s.Pipeline.stalls)
              (Stalls.to_string p.Pipeline.stalls);
            Alcotest.(check bool)
              (d ^ " " ^ what ^ " caches")
              true
              (s.Pipeline.caches = p.Pipeline.caches)
          in
          against "grid" (List.nth grid i))
        streamed)
    [ Target.d16; Target.dlxe ]

let test_config_validation () =
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ " accepted")
  in
  rejects "bus of 1" (fun () -> Uconfig.nocache ~bus_bytes:1 ~wait_states:0);
  rejects "non-power-of-two bus" (fun () ->
      Uconfig.nocache ~bus_bytes:6 ~wait_states:0);
  rejects "negative wait states" (fun () ->
      Uconfig.nocache ~bus_bytes:4 ~wait_states:(-1));
  let c = Memsys.cache_config ~size:1024 ~block:32 ~sub:4 in
  rejects "negative penalty" (fun () ->
      Uconfig.cached ~icache:c ~dcache:c ~miss_penalty:(-1));
  Alcotest.(check string) "nocache describe" "nocache:bus=4,l=2"
    (Uconfig.describe (Uconfig.nocache ~bus_bytes:4 ~wait_states:2));
  Alcotest.(check string) "cached describe" "cached:i=1024/32/4,d=1024/32/4,p=8"
    (Uconfig.describe (Uconfig.cached ~icache:c ~dcache:c ~miss_penalty:8))

let tests =
  [
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "attribution: load" `Quick test_attribution_load;
    Alcotest.test_case "attribution: fp" `Quick test_attribution_fp;
    Alcotest.test_case "attribution: fetch" `Quick test_attribution_fetch;
    Alcotest.test_case "predecode table shared" `Quick test_predecode_shared;
    Alcotest.test_case "stream = replay" `Slow test_stream_equals_replay;
    Alcotest.test_case "grid = streamed, adversarial chunks" `Slow
      test_grid_equals_streamed;
  ]
  @ List.map (fun (b : Suite.benchmark) -> differential_case b.Suite.name) Suite.all
