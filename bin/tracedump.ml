(* tracedump: print, filter, and summarize compressed instruction traces.

   Input is either a stored .trc file or a (benchmark, target) pair — the
   latter goes through the harness trace store, capturing on a cold miss.

   Usage:
     dune exec bin/tracedump.exe -- (--bench NAME [TARGET] | FILE.trc)
       [--summary] [--chunks] [--dump N] [--from PC] [--to PC]
       [--loads] [--stores] [--working-set [--jobs N]] [--traffic] [--grid]
       [--cpi]

   FILE.trc must be a current-format trace (Trace.format_version); any
   other file is refused with the reader's reason.

   With no mode flags, prints the summary.  --working-set scans chunks
   in parallel over --jobs domains and merges order-free counters.
   --traffic, --grid and --cpi each add one axis — bus widths, the
   standard cache grid, the standard pipeline sweep — to a single
   sequential Replay.run, so any mix of them shares one decode of the
   trace.  --cpi needs --bench (the pipeline model reads the image's
   instruction descriptors).                                            *)

module Target = Repro_core.Target
module Runs = Repro_harness.Runs
module Pool = Repro_harness.Pool
module Cli = Repro_util.Cli
module Replay = Repro_trace.Replay
module Reader = Repro_trace.Trace.Reader

let usage =
  "tracedump (--bench NAME [TARGET] | FILE.trc) [--summary] [--chunks]\n\
  \       [--dump N] [--from PC] [--to PC] [--loads] [--stores]\n\
  \       [--working-set [--jobs N]] [--traffic] [--grid] [--cpi]"

let int_arg cli name ~default =
  match Cli.flag_arg cli name with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None ->
      Printf.eprintf "%s: not a number: %s\n" name s;
      exit 1)

let summary rd =
  Printf.printf
    "trace: %d records, %d chunks, %d bytes (%.2f bytes/record), insn %d bytes\n"
    (Reader.n_records rd) (Reader.n_chunks rd) (Reader.byte_size rd)
    (float_of_int (Reader.byte_size rd)
    /. float_of_int (max 1 (Reader.n_records rd)))
    (Reader.insn_bytes rd)

let chunks rd =
  print_endline "chunk  records      start_pc    offset    bytes";
  for i = 0 to Reader.n_chunks rd - 1 do
    let c = Reader.chunk rd i in
    Printf.printf "%5d  %7d    0x%08x  %8d  %7d\n" i c.Reader.n_records
      c.Reader.start_pc c.Reader.byte_offset c.Reader.byte_length
  done

let dump rd ~limit ~from_pc ~to_pc ~loads_only ~stores_only =
  let printed = ref 0 in
  (try
     Reader.iter rd (fun ~pc ~dinfo ->
         if !printed >= limit then raise Exit;
         (* Bit 0 marks a wide instruction on mixed-width targets. *)
         let wide = pc land 1 <> 0 in
         let pc = pc land lnot 1 in
         if pc >= from_pc && pc <= to_pc then begin
           let daccess =
             match Repro_sim.Machine.decode_daccess dinfo with
             | None -> None
             | Some (is_write, _, _) as d ->
               if (loads_only && is_write) || (stores_only && not is_write)
               then None
               else d
           in
           let wanted = (not (loads_only || stores_only)) || daccess <> None in
           if wanted then begin
             incr printed;
             let w = if wide then " (wide)" else "" in
             match daccess with
             | Some (is_write, addr, bytes) ->
               Printf.printf "%08x  %s %db @ %08x%s\n" pc
                 (if is_write then "store" else "load ")
                 bytes addr w
             | None -> Printf.printf "%08x%s\n" pc w
           end
         end)
   with Exit -> ());
  Printf.printf "(%d records printed)\n" !printed

(* Working set: distinct 32-byte instruction and data blocks, per-chunk
   sets unioned — set union is order-free, so chunks fan out in
   parallel. *)
let working_set rd ~jobs =
  let granule = 32 in
  let per_chunk i =
    let iset = Hashtbl.create 1024 in
    let dset = Hashtbl.create 1024 in
    Reader.iter_chunk rd i (fun ~pc ~dinfo ->
        Hashtbl.replace iset (pc / granule) ();
        if dinfo <> 0 then Hashtbl.replace dset (dinfo lsr 5 / granule) ());
    (iset, dset)
  in
  let sets =
    Pool.map ~jobs per_chunk (List.init (Reader.n_chunks rd) Fun.id)
  in
  let iall = Hashtbl.create 4096 in
  let dall = Hashtbl.create 4096 in
  List.iter
    (fun (iset, dset) ->
      Hashtbl.iter (fun k () -> Hashtbl.replace iall k ()) iset;
      Hashtbl.iter (fun k () -> Hashtbl.replace dall k ()) dset)
    sets;
  Printf.printf
    "working set (%d-byte blocks): insn %d blocks (%d bytes), data %d blocks (%d bytes)\n"
    granule (Hashtbl.length iall)
    (granule * Hashtbl.length iall)
    (Hashtbl.length dall)
    (granule * Hashtbl.length dall)

let traffic_buses = [ 2; 4; 8; 16 ]

let print_traffic rd buses counts =
  print_endline "bus   irequests   drequests   requests/insn";
  List.iter2
    (fun bus (nc : Repro_sim.Memsys.nocache) ->
      Printf.printf "%3d  %10d  %10d   %13.3f\n" bus nc.irequests nc.drequests
        (float_of_int (nc.irequests + nc.drequests)
        /. float_of_int (max 1 (Reader.n_records rd))))
    buses counts

let print_grid geometries results =
  print_endline "  size  block  sub   imiss%   dmiss%   fetch words";
  List.iter2
    (fun (size, block, sub) (c : Repro_sim.Memsys.cached) ->
      let pct (s : Repro_sim.Memsys.cache_stats) =
        100.0 *. float_of_int s.misses /. float_of_int (max 1 s.accesses)
      in
      let dacc = c.dcache_read.accesses + c.dcache_write.accesses in
      let dmiss = c.dcache_read.misses + c.dcache_write.misses in
      Printf.printf "%6d  %5d  %3d  %6.3f  %6.3f  %12d\n" size block sub
        (pct c.icache)
        (100.0 *. float_of_int dmiss /. float_of_int (max 1 dacc))
        c.icache.words_transferred)
    geometries results

let print_cpi cfgs results =
  print_endline
    "config                                    cpi      fetch       load  \
    \      fp      dmiss      wmiss";
  List.iter2
    (fun cfg (r : Repro_uarch.Pipeline.result) ->
      let s = r.Repro_uarch.Pipeline.stalls in
      Printf.printf "%-36s  %7.3f  %9d  %9d  %9d  %9d  %9d\n"
        (Repro_uarch.Uconfig.describe cfg)
        (Repro_uarch.Stalls.cpi s) s.Repro_uarch.Stalls.fetch_stalls
        s.Repro_uarch.Stalls.load_interlocks s.Repro_uarch.Stalls.fp_interlocks
        s.Repro_uarch.Stalls.dmiss_stalls s.Repro_uarch.Stalls.wmiss_stalls)
    cfgs results

(* Every replay mode from one decode of the trace: each selected mode adds
   its axis to one [Replay.run] — the cacheless machine's memory requests
   at each bus width, the standard cache grid's miss rates, the standard
   pipeline sweep's CPI and stall breakdown (which needs the image for
   the instruction descriptors). *)
let replay ?img ~traffic ~grid ~cpi rd =
  let buses = if traffic then traffic_buses else [] in
  let geometries = if grid then Runs.standard_grid else [] in
  let cfgs = if cpi then Runs.standard_uarch_configs else [] in
  let r =
    Replay.run ?img rd
      {
        Replay.buses;
        caches =
          List.map
            (fun (size, block, sub) ->
              let cfg = Repro_sim.Memsys.cache_config ~size ~block ~sub in
              { Replay.icache = cfg; dcache = cfg })
            geometries;
        pipelines = cfgs;
      }
  in
  if traffic then print_traffic rd buses r.Replay.nocaches;
  if grid then print_grid geometries r.Replay.cacheds;
  if cpi then print_cpi cfgs r.Replay.pipes

let () =
  let cli =
    Cli.parse
      ~flags_with_arg:[ "--bench"; "--dump"; "--from"; "--to"; "--jobs" ]
      ~flags:
        [ "--summary"; "--chunks"; "--loads"; "--stores"; "--working-set";
          "--traffic"; "--grid"; "--cpi" ]
      ~usage Sys.argv
  in
  let target_of_rest = function
    | [] -> Target.d16
    | [ name ] -> (
      match Target.of_name name with
      | Ok t -> t
      | Error msg ->
        prerr_endline msg;
        exit 1)
    | _ -> Cli.usage_exit cli
  in
  let rd, img =
    match (Cli.flag_arg cli "--bench", Cli.positionals cli) with
    | Some bench, rest ->
      let target = target_of_rest rest in
      (Runs.trace_reader bench target, Some (Runs.image bench target))
    | None, [ file ] -> (
      match Reader.open_file file with
      | Ok rd -> (rd, None)
      | Error e ->
        prerr_endline ("tracedump: " ^ e);
        exit 1)
    | None, _ -> Cli.usage_exit cli
  in
  let jobs = int_arg cli "--jobs" ~default:(Pool.default_jobs ()) in
  let any_mode =
    List.exists (Cli.flag cli)
      [ "--chunks"; "--working-set"; "--traffic"; "--grid"; "--cpi";
        "--loads"; "--stores" ]
    || Cli.flag_arg cli "--dump" <> None
  in
  if Cli.flag cli "--summary" || not any_mode then summary rd;
  if Cli.flag cli "--chunks" then chunks rd;
  if
    Cli.flag_arg cli "--dump" <> None
    || Cli.flag cli "--loads" || Cli.flag cli "--stores"
  then
    dump rd
      ~limit:(int_arg cli "--dump" ~default:max_int)
      ~from_pc:(int_arg cli "--from" ~default:0)
      ~to_pc:(int_arg cli "--to" ~default:max_int)
      ~loads_only:(Cli.flag cli "--loads")
      ~stores_only:(Cli.flag cli "--stores");
  if Cli.flag cli "--working-set" then working_set rd ~jobs;
  let traffic = Cli.flag cli "--traffic" in
  let grid = Cli.flag cli "--grid" in
  let cpi = Cli.flag cli "--cpi" in
  if cpi && img = None then begin
    prerr_endline
      "tracedump: --cpi needs the program image; use --bench NAME [TARGET]";
    exit 1
  end;
  if traffic || grid || cpi then replay ?img ~traffic ~grid ~cpi rd
