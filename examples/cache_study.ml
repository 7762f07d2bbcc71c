(* Cache study: Section 4.1 for one of the paper's "cache benchmarks".
   Sweeps instruction-cache sizes, reporting miss rates and the CPI at a
   given miss penalty — Figures 16 and 17 for one workload, plus the
   headline observation that a D16 cache holds twice the instructions.

   The sweep uses the single-pass grid engine: each target executes once
   (streaming its trace to a temp file), then one decode of that trace
   feeds every cache size simultaneously (Replay.run) — no re-execution
   and no per-size replay.

   Run with:  dune exec examples/cache_study.exe [benchmark] [penalty]
   (defaults: latex, 8 cycles)                                           *)

module Target = Repro_core.Target
module Compile = Repro_harness.Compile
module Machine = Repro_sim.Machine
module Memsys = Repro_sim.Memsys
module Suite = Repro_workloads.Suite
module Table = Repro_util.Table
module Trace = Repro_trace.Trace
module Replay = Repro_trace.Replay

let sizes = [ 512; 1024; 2048; 4096; 8192; 16384 ]

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "latex" in
  let penalty =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 8
  in
  let source = (Suite.find bench).Suite.source in
  Printf.printf
    "Cache study for '%s' (split I/D, direct-mapped, 32B blocks, 4B sub-blocks,\n\
     wrap-around prefetch, miss penalty %d cycles)\n\n"
    bench penalty;
  (* One execution per target, streamed to a trace; one decode of that
     trace drives the whole size sweep. *)
  let run_grid target =
    let img = Compile.compile target source in
    let path = Filename.temp_file "repro-cache-study" ".trc" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let w =
          Trace.Writer.create ~insn_bytes:(Target.insn_bytes target) path
        in
        let r =
          Machine.run
            ~on_insn:(fun ~iaddr ~dinfo -> Trace.Writer.step w ~pc:iaddr ~dinfo)
            img
        in
        Trace.Writer.close w;
        let rd =
          match Trace.Reader.open_file path with
          | Ok rd -> rd
          | Error e -> failwith e
        in
        let caches =
          List.map
            (fun size ->
              let cfg = Memsys.cache_config ~size ~block:32 ~sub:4 in
              { Replay.icache = cfg; dcache = cfg })
            sizes
        in
        (r, (Replay.run rd { Replay.empty with caches }).Replay.cacheds))
  in
  let r16, grid16 = run_grid Target.d16 in
  let r32, grid32 = run_grid Target.dlxe in
  let rows =
    List.map2
      (fun size (c16, c32) ->
        let cpi r c =
          Memsys.cpi
            ~cycles:(Memsys.cached_cycles ~miss_penalty:penalty r c)
            ~ic:r.Machine.ic
        in
        let norm16 =
          Memsys.normalized_cpi
            ~cycles:(Memsys.cached_cycles ~miss_penalty:penalty r16 c16)
            ~reference_ic:r32.Machine.ic
        in
        [
          Printf.sprintf "%dK" (size / 1024);
          Table.fmt3 (Memsys.miss_rate c16.Memsys.icache);
          Table.fmt3 (Memsys.miss_rate c32.Memsys.icache);
          Table.fmt2 (cpi r16 c16);
          Table.fmt2 (cpi r32 c32);
          Table.fmt2 norm16;
        ])
      sizes
      (List.combine grid16 grid32)
  in
  print_string
    (Table.render
       [
         "I-cache"; "D16 miss"; "DLXe miss"; "D16 CPI"; "DLXe CPI";
         "D16 norm CPI";
       ]
       rows);
  print_newline ();
  Printf.printf
    "Byte for byte, the D16 cache holds twice the instructions: its miss\n\
     rate tracks the DLXe curve shifted one size up.  Normalized CPI (D16\n\
     cycles over DLXe's path length) shows net performance: where it is\n\
     below the DLXe CPI column, the denser encoding wins outright.\n"
