(* Memory wall: Section 4's cacheless experiment for one program.  Sweeps
   main-memory wait states on 32- and 64-bit fetch buses and reports where
   the D16/DLXe crossover falls — the paper's Figure 14 / Table 11 for a
   single workload.

   Run with:  dune exec examples/memory_wall.exe [benchmark]
   (default: towers)                                                     *)

module Target = Repro_core.Target
module Compile = Repro_harness.Compile
module Machine = Repro_sim.Machine
module Memsys = Repro_sim.Memsys
module Trace = Repro_trace.Trace
module Replay = Repro_trace.Replay
module Suite = Repro_workloads.Suite
module Table = Repro_util.Table

let buses = [ 4; 8 ]

(* One execution captured into a temporary trace file, then one replay
   pricing both fetch buses. *)
let measure target source =
  let img = Compile.compile target source in
  let path = Filename.temp_file "memory_wall" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Trace.Writer.create ~insn_bytes:(Target.insn_bytes target) path in
      let r =
        Machine.run
          ~on_insn:(fun ~iaddr ~dinfo -> Trace.Writer.step w ~pc:iaddr ~dinfo)
          img
      in
      Trace.Writer.close w;
      match Trace.Reader.open_file path with
      | Error e -> failwith e
      | Ok rd -> (r, (Replay.run rd { Replay.empty with buses }).Replay.nocaches))

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "towers" in
  let source = (Suite.find bench).Suite.source in
  Printf.printf "Memory-latency sweep for '%s' (no cache)\n\n" bench;
  let r16, ncs16 = measure Target.d16 source in
  let r32, ncs32 = measure Target.dlxe source in
  List.iteri
    (fun i bus ->
      let nc16 = List.nth ncs16 i in
      let nc32 = List.nth ncs32 i in
      Printf.printf "%d-bit fetch bus (D16 k=%d, DLXe k=%d):\n" (8 * bus)
        (bus / 2) (bus / 4);
      let rows =
        List.map
          (fun l ->
            let c16 = Memsys.nocache_cycles ~wait_states:l r16 nc16 in
            let c32 = Memsys.nocache_cycles ~wait_states:l r32 nc32 in
            [
              string_of_int l;
              string_of_int c16;
              string_of_int c32;
              Table.fmt2 (float_of_int c32 /. float_of_int c16);
              (if c32 > c16 then "D16" else "DLXe");
            ])
          [ 0; 1; 2; 3; 4 ]
      in
      print_string
        (Table.render
           [ "wait states"; "D16 cycles"; "DLXe cycles"; "DLXe/D16"; "winner" ]
           rows);
      print_newline ())
    buses;
  Printf.printf
    "D16 issues %d fetch requests to DLXe's %d on the 32-bit bus: each\n\
     wait-state cycle is amortized over ~2x the instructions, which is why\n\
     the crossover sits at the first nonzero latency.\n"
    (List.hd ncs16).Memsys.irequests (List.hd ncs32).Memsys.irequests
