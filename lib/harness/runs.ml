module Target = Repro_core.Target
module Link = Repro_link.Link
module Machine = Repro_sim.Machine
module Memsys = Repro_sim.Memsys
module Suite = Repro_workloads.Suite
module Runtime_lib = Repro_workloads.Runtime_lib
module Uconfig = Repro_uarch.Uconfig
module Upipeline = Repro_uarch.Pipeline
module Trace = Repro_trace.Trace
module Replay = Repro_trace.Replay
module Fusion = Repro_isavar.Fusion

type stats = {
  bench : string;
  target : Target.t;
  size_bytes : int;
  text_bytes : int;
  ic : int;
  loads : int;
  stores : int;
  load_words : int;
  store_words : int;
  interlocks : int;
  ireq32 : int;
  ireq64 : int;
  dreq32 : int;
  dreq64 : int;
  output : string;
  exit_code : int;
}

let standard_cache_sizes = [ 1024; 2048; 4096; 8192; 16384 ]
let standard_blocks = [ 8; 16; 32; 64 ]

(* The standard grid replayed when any cache number is first requested:
   the appendix geometries (block x size with 8-byte sub-blocks) plus the
   figure geometry (32-byte blocks, 4-byte sub-blocks). *)
let standard_grid =
  List.concat_map
    (fun size ->
      ((size, 32, 4)
      :: List.map (fun block -> (size, block, min 8 block)) standard_blocks))
    standard_cache_sizes

(* The standard pipeline-model sweep: both fetch-bus widths across wait
   states 0..3 (the paper's cacheless machines), plus a small and a large
   cached machine at the figure geometry (32-byte blocks, 4-byte
   sub-blocks) with the paper's 8-cycle miss penalty. *)
let standard_uarch_configs =
  let nocache =
    List.concat_map
      (fun bus ->
        List.map
          (fun l -> Uconfig.nocache ~bus_bytes:bus ~wait_states:l)
          [ 0; 1; 2; 3 ])
      [ 4; 8 ]
  in
  let cached size =
    let cfg = Memsys.cache_config ~size ~block:32 ~sub:4 in
    Uconfig.cached ~icache:cfg ~dcache:cfg ~miss_penalty:8
  in
  nocache @ [ cached 4096; cached 16384 ]

(* The measurements, one {!Memo} family each.  Every key's identity, and
   so its flight, is the (benchmark, target name) pair.  Every disk key
   digests the benchmark source (runtime library included, exactly what
   the compiler sees), the full target description, and the harness
   compiler knobs, so editing any of them invalidates the entry. *)

let knobs_descr = "optimize=2;with_runtime=true;" ^ Compile.describe_ablation Compile.no_ablation

let bench_fingerprint bench =
  Digest.to_hex
    (Digest.string (Runtime_lib.source ^ (Suite.find bench).Suite.source))

let images : Link.image Memo.t = Memo.in_process ()
let readers : Trace.Reader.t Memo.t = Memo.in_process ()
let stats_memo : stats Memo.t = Memo.on_disk "stats"
let grids : ((int * int * int) * Memsys.cached) list Memo.t =
  Memo.on_disk "cache-grid"

(* Describe-keyed, in {!standard_uarch_configs} order. *)
let sweeps : (string * Upipeline.result) list Memo.t =
  Memo.on_disk "uarch-sweep"

let fusions : Fusion.counters Memo.t = Memo.on_disk "fusion"

let inputs bench (target : Target.t) =
  [ bench; bench_fingerprint bench; Target.describe target; knobs_descr ]

let measured ?(descr = []) family bench (target : Target.t) =
  Memo.key family (bench, target.Target.name) ~disk:(fun () ->
      descr @ inputs bench target)

let grid_descr =
  String.concat ","
    (List.map (fun (s, b, u) -> Printf.sprintf "%d/%d/%d" s b u) standard_grid)

let uarch_sweep_descr =
  String.concat "," (List.map Uconfig.describe standard_uarch_configs)

let fusion_rules_descr =
  String.concat ","
    (List.map (fun (r : Fusion.rule) -> r.Fusion.name) Fusion.default_rules)

let stats_k = measured stats_memo
let grid_k = measured ~descr:[ grid_descr ] grids
let sweep_k = measured ~descr:[ uarch_sweep_descr ] sweeps
let fusion_k = measured ~descr:[ fusion_rules_descr ] fusions
let stats_key bench target = Memo.disk_key (stats_k bench target)
let grid_key bench target = Memo.disk_key (grid_k bench target)
let uarch_sweep_key bench target = Memo.disk_key (sweep_k bench target)
let fusion_key bench target = Memo.disk_key (fusion_k bench target)
let clear_memo = Memo.clear

let trace_key bench target =
  Diskcache.key
    ("trace" :: string_of_int Trace.format_version :: inputs bench target)

let trace_path bench (target : Target.t) =
  Filename.concat (Diskcache.subdir "traces") (trace_key bench target ^ ".trc")

let image bench (target : Target.t) =
  Memo.get (Memo.key images (bench, target.Target.name)) (fun () ->
      Compile.compile target (Suite.find bench).Suite.source)

(* Trace store. ------------------------------------------------------------

   An export, written only when asked for (a [trace:] spec, [tracedump]):
   the architectural simulator runs once with the streaming [on_insn] hook
   feeding a {!Trace.Writer}.  The harness's own sweeps never read it —
   they stream from an execution ({!ensure_sweeps}).  Corrupt, truncated,
   or version-skewed files read as a miss and are re-captured.  With the
   disk cache disabled the capture goes to a temp file that is unlinked
   as soon as the reader has swallowed it, or the capture has failed. *)

let capture_trace bench (target : Target.t) path =
  let img = image bench target in
  let w = Trace.Writer.create ~insn_bytes:(Target.insn_bytes target) path in
  match
    Machine.run
      ~on_insn:(fun ~iaddr ~dinfo -> Trace.Writer.step w ~pc:iaddr ~dinfo)
      img
  with
  | _ -> Trace.Writer.close w
  | exception e ->
    Trace.Writer.abort w;
    raise e

(* Capture (or reopen) under the pair's flight. *)
let trace_reader bench (target : Target.t) =
  Memo.get (Memo.key readers (bench, target.Target.name)) (fun () ->
      let persistent = Diskcache.enabled () in
      let path =
        if persistent then trace_path bench target
        else Filename.temp_file "repro-trace" ".trc"
      in
      let reopen () =
        if persistent && Sys.file_exists path then
          Trace.Reader.open_file path |> Result.to_option
        else None
      in
      Fun.protect
        ~finally:(fun () ->
          if not persistent then try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          match reopen () with
          | Some rd -> rd
          | None -> (
            capture_trace bench target path;
            match Trace.Reader.open_file path with
            | Ok rd -> rd
            | Error e ->
              failwith ("Runs: just-captured trace unreadable: " ^ e))))

let ensure_trace bench target = ignore (trace_reader bench target)

(* The pair's one execution. ---------------------------------------------

   Every cold measurement of a pair comes from one execution whose hook
   feeds the chunk engine ({!Replay.stream}) and, when the fusion
   counters are cold, the fusion stream.  The suite stats' requests are
   its bus-4 and bus-8 axes.  No trace is written. *)

let stats_of bench (target : Target.t) img (r : Machine.result)
    ~(n32 : Memsys.nocache) ~(n64 : Memsys.nocache) =
  {
    bench;
    target;
    size_bytes = Link.size_bytes img;
    text_bytes = img.Link.text_bytes;
    ic = r.Machine.ic;
    loads = r.Machine.loads;
    stores = r.Machine.stores;
    load_words = r.Machine.load_words;
    store_words = r.Machine.store_words;
    interlocks = r.Machine.interlocks;
    ireq32 = n32.Memsys.irequests;
    ireq64 = n64.Memsys.irequests;
    dreq32 = n32.Memsys.drequests;
    dreq64 = n64.Memsys.drequests;
    output = r.Machine.output;
    exit_code = r.Machine.exit_code;
  }

let cache_pair (size, block, sub) =
  let cfg = Memsys.cache_config ~size ~block ~sub in
  { Replay.icache = cfg; dcache = cfg }

(* Macro-op fusion counters under the default rule table, over one
   execution's committed-instruction stream. *)
let fusion_stream img =
  Fusion.stream_start (Fusion.plan Fusion.default_rules img)

(* The disk format stays describe-keyed (it predates the structural
   lookups), so existing cache entries remain valid. *)
let sweep_entries pipes =
  List.map2 (fun cfg res -> (Uconfig.describe cfg, res)) standard_uarch_configs
    pipes

type measurement = Stats | Fusion | Grid | Sweep

(* Under the pair's flight: measure [own], known cold, and every other
   family of the pair found cold — the stats always, the fusion counters
   on D16, the pipeline sweep alongside the grid when [with_uarch] — and
   put them all. *)
let execute ?map ~with_uarch own bench (target : Target.t) =
  let cold m k asked = m = own || (asked && Option.is_none (Memo.find k)) in
  let sk = stats_k bench target and fk = fusion_k bench target in
  let gk = grid_k bench target and wk = sweep_k bench target in
  let stats = cold Stats sk true in
  let fusion = cold Fusion fk (target.Target.name = Target.d16.Target.name) in
  let grid = own = Grid in
  let uarch = cold Sweep wk (grid && with_uarch) in
  let img = image bench target in
  let fusion = if fusion then Some (fusion_stream img) else None in
  let r, res =
    Replay.stream ?map ~img ~insn_bytes:(Target.insn_bytes target)
      {
        Replay.buses = (if stats then [ 4; 8 ] else []);
        caches = (if grid then List.map cache_pair standard_grid else []);
        pipelines = (if uarch then standard_uarch_configs else []);
      }
      (fun hook ->
        let on_insn =
          match fusion with
          | None -> fun ~iaddr ~dinfo -> hook ~pc:iaddr ~dinfo
          | Some st ->
            fun ~iaddr ~dinfo ->
              hook ~pc:iaddr ~dinfo;
              Fusion.stream_step st ~iaddr
        in
        Machine.run ~on_insn img)
  in
  (match res.Replay.nocaches with
  | [ n32; n64 ] -> Memo.put sk (stats_of bench target img r ~n32 ~n64)
  | _ -> ());
  Option.iter (fun st -> Memo.put fk (Fusion.stream_finish st)) fusion;
  if grid then Memo.put gk (List.combine standard_grid res.Replay.cacheds);
  if uarch then Memo.put wk (sweep_entries res.Replay.pipes)

(* A hit builds nothing, neither key nor closure: the render paths probe
   thousands of times. *)
let measure ?map ~with_uarch family key own bench (target : Target.t) =
  try Memo.resident family bench target.Target.name
  with Not_found ->
    Memo.fill (key bench target) (fun () ->
        execute ?map ~with_uarch own bench target)

let stats bench target =
  measure ~with_uarch:false stats_memo stats_k Stats bench target

let fusion bench target =
  measure ~with_uarch:false fusions fusion_k Fusion bench target

let grid ?map ~with_uarch bench target =
  measure ?map ~with_uarch grids grid_k Grid bench target

let sweep ?map bench target =
  measure ?map ~with_uarch:false sweeps sweep_k Sweep bench target

let ensure_sweeps ?map ~grid:g ~uarch bench target =
  if g then ignore (grid ?map ~with_uarch:uarch bench target);
  if uarch then ignore (sweep ?map bench target)

(* A sweep's disk key digests its order, so a standard configuration's
   entry is found by position, with no digest, describe string or
   closure per probe.  Anything off the standard sweeps is a programming
   error, named in the exception before any compile or replay. *)
let rec grid_index (size : int) (block : int) (sub : int) i = function
  | [] -> -1
  | (s, b, u) :: rest ->
    if s = size && b = block && u = sub then i
    else grid_index size block sub (i + 1) rest

let cached bench target ~size ~block ~sub =
  match grid_index size block sub 0 standard_grid with
  | -1 ->
    invalid_arg
      (Printf.sprintf "Runs.cached: %d/%d/%d is not a standard_grid geometry"
         size block sub)
  | i -> snd (List.nth (grid ~with_uarch:false bench target) i)

(* Cheaper than polymorphic equality on the cacheless configurations the
   render paths probe most. *)
let same_config (cfg : Uconfig.t) (c : Uconfig.t) =
  match (cfg, c) with
  | Nocache a, Nocache b ->
    a.bus_bytes = b.bus_bytes && a.wait_states = b.wait_states
  | Nocache _, Cached _ | Cached _, Nocache _ -> false
  | Cached _, Cached _ -> cfg == c || cfg = c

let rec config_index cfg i = function
  | [] -> -1
  | c :: rest -> if same_config cfg c then i else config_index cfg (i + 1) rest

let uarch bench target cfg =
  match config_index cfg 0 standard_uarch_configs with
  | -1 ->
    invalid_arg
      ("Runs.uarch: " ^ Uconfig.describe cfg
     ^ " is not a standard_uarch_configs configuration")
  | i -> snd (List.nth (sweep bench target) i)
