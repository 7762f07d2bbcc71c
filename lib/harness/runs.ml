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

(* In-process memo tables, shared across domains behind one lock.  Lookups
   and insertions are locked; the compile+simulate work itself runs outside
   the lock, so domains overlap on distinct keys (the {!Pool} scheduler
   deduplicates its plan, so no key is computed twice). *)

let lock = Mutex.create ()
let with_lock f = Mutex.protect lock f

let image_tbl : (string * string, Link.image) Hashtbl.t = Hashtbl.create 32
let stats_tbl : (string * string, stats) Hashtbl.t = Hashtbl.create 32

let trace_tbl : (string * string, Trace.Reader.t) Hashtbl.t = Hashtbl.create 32

(* Per-(bench, target) capture locks: a grid and a uarch spec for the same
   pair may land on two domains at once; one captures, the other blocks on
   the key's mutex and then reads the installed reader. *)
let trace_locks : (string * string, Mutex.t) Hashtbl.t = Hashtbl.create 32

let trace_lock key =
  with_lock (fun () ->
      match Hashtbl.find_opt trace_locks key with
      | Some m -> m
      | None ->
        let m = Mutex.create () in
        Hashtbl.add trace_locks key m;
        m)

let cache_tbl : (string * string * int * int * int, Memsys.cached) Hashtbl.t =
  Hashtbl.create 256

(* Keyed structurally on the configuration itself: the hot render paths
   (utab1/ufig1) look configurations up hundreds of times, and hashing the
   variant beats formatting a describe string per probe. *)
let uarch_tbl : (string * string * Uconfig.t, Upipeline.result) Hashtbl.t =
  Hashtbl.create 64

let fusion_tbl : (string * string, Fusion.counters) Hashtbl.t =
  Hashtbl.create 32

let clear_memo () =
  with_lock (fun () ->
      Hashtbl.reset image_tbl;
      Hashtbl.reset stats_tbl;
      Hashtbl.reset cache_tbl;
      Hashtbl.reset uarch_tbl;
      Hashtbl.reset fusion_tbl;
      Hashtbl.reset trace_tbl)

(* Disk-cache keys.  Every key digests the benchmark source (runtime
   library included, exactly what the compiler sees), the full target
   description, and the harness compiler knobs, so editing any of them
   invalidates the entry. *)

let knobs_descr = "optimize=2;with_runtime=true;" ^ Compile.describe_ablation Compile.no_ablation

let bench_fingerprint bench =
  Digest.to_hex
    (Digest.string (Runtime_lib.source ^ (Suite.find bench).Suite.source))

let stats_key bench (target : Target.t) =
  Diskcache.key
    [ "stats"; bench; bench_fingerprint bench; Target.describe target; knobs_descr ]

let grid_descr =
  String.concat ","
    (List.map (fun (s, b, u) -> Printf.sprintf "%d/%d/%d" s b u) standard_grid)

let grid_key bench (target : Target.t) =
  Diskcache.key
    [
      "cache-grid"; grid_descr; bench; bench_fingerprint bench;
      Target.describe target; knobs_descr;
    ]

let geometry_key bench (target : Target.t) ~size ~block ~sub =
  Diskcache.key
    [
      "cache-one"; Printf.sprintf "%d/%d/%d" size block sub; bench;
      bench_fingerprint bench; Target.describe target; knobs_descr;
    ]

let uarch_sweep_descr =
  String.concat "," (List.map Uconfig.describe standard_uarch_configs)

let uarch_sweep_key bench (target : Target.t) =
  Diskcache.key
    [
      "uarch-sweep"; uarch_sweep_descr; bench; bench_fingerprint bench;
      Target.describe target; knobs_descr;
    ]

let uarch_one_key bench (target : Target.t) cfg =
  Diskcache.key
    [
      "uarch-one"; Uconfig.describe cfg; bench; bench_fingerprint bench;
      Target.describe target; knobs_descr;
    ]

let fusion_rules_descr =
  String.concat ","
    (List.map (fun (r : Fusion.rule) -> r.Fusion.name) Fusion.default_rules)

let fusion_key bench (target : Target.t) =
  Diskcache.key
    [
      "fusion"; fusion_rules_descr; bench; bench_fingerprint bench;
      Target.describe target; knobs_descr;
    ]

let trace_key bench (target : Target.t) =
  Diskcache.key
    [
      "trace"; string_of_int Trace.format_version; bench;
      bench_fingerprint bench; Target.describe target; knobs_descr;
    ]

let trace_path bench (target : Target.t) =
  Filename.concat (Diskcache.subdir "traces") (trace_key bench target ^ ".trc")

let image bench (target : Target.t) =
  let key = (bench, target.Target.name) in
  match with_lock (fun () -> Hashtbl.find_opt image_tbl key) with
  | Some img -> img
  | None ->
    let b = Suite.find bench in
    let img = Compile.compile target b.Suite.source in
    with_lock (fun () -> Hashtbl.replace image_tbl key img);
    img

(* Trace store. ------------------------------------------------------------

   One capture per (benchmark, target): the architectural simulator runs
   once with the streaming [on_insn] hook feeding a {!Trace.Writer} (no
   trace array is materialized), and every cache grid, pipeline sweep, and
   fusion count afterwards replays the stored bytes.  Corrupt,
   truncated, or version-skewed files read as a miss and are re-captured.
   With the disk cache disabled the capture goes to a temp file that is
   unlinked as soon as the reader has swallowed it. *)

let capture_trace bench (target : Target.t) path =
  let img = image bench target in
  let w = Trace.Writer.create ~insn_bytes:(Target.insn_bytes target) path in
  match
    Machine.run ~trace:false
      ~on_insn:(fun ~iaddr ~dinfo -> Trace.Writer.step w ~pc:iaddr ~dinfo)
      img
  with
  | _ -> Trace.Writer.close w
  | exception e ->
    Trace.Writer.abort w;
    raise e

(* Capture (or reopen) under the pair's lock and install the reader. *)
let trace_reader bench (target : Target.t) =
  let key = (bench, target.Target.name) in
  Mutex.protect (trace_lock key) (fun () ->
      match with_lock (fun () -> Hashtbl.find_opt trace_tbl key) with
      | Some rd -> rd
      | None ->
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
        let rd =
          match reopen () with
          | Some rd -> rd
          | None -> (
            capture_trace bench target path;
            match Trace.Reader.open_file path with
            | Ok rd -> rd
            | Error e ->
              failwith ("Runs: just-captured trace unreadable: " ^ e))
        in
        if not persistent then (try Sys.remove path with Sys_error _ -> ());
        with_lock (fun () -> Hashtbl.replace trace_tbl key rd);
        rd)

let ensure_trace bench target = ignore (trace_reader bench target)

(* Suite stats. -------------------------------------------------------------

   The cacheless fetch-request counts depend only on the dynamic address
   stream, so they come from the execution that yields the architectural
   counters: the [on_insn] hook streams every retirement through one
   {!Memsys.Fetchbuf} per bus width — the model {!Replay.Seq.nocache}
   replays — and never touches the trace store.  The hook captures one
   record of mutable counters and allocates nothing per instruction. *)

type fetch_counters = {
  fb32 : Memsys.Fetchbuf.t;
  fb64 : Memsys.Fetchbuf.t;
  mutable dreq32 : int;
  mutable dreq64 : int;
}

let compute_stats bench (target : Target.t) =
  let img = image bench target in
  let c =
    {
      fb32 = Memsys.Fetchbuf.make ~bus_bytes:4;
      fb64 = Memsys.Fetchbuf.make ~bus_bytes:8;
      dreq32 = 0;
      dreq64 = 0;
    }
  in
  let on_insn ~iaddr ~dinfo =
    (* Bit 0 of the address marks a wide (4-byte) instruction on a
       mixed-width target; its tail halfword may need a second bus
       request. *)
    let pc = iaddr land lnot 1 in
    ignore (Memsys.Fetchbuf.fetch c.fb32 ~addr:pc);
    ignore (Memsys.Fetchbuf.fetch c.fb64 ~addr:pc);
    if iaddr land 1 <> 0 then begin
      ignore (Memsys.Fetchbuf.fetch c.fb32 ~addr:(pc + 2));
      ignore (Memsys.Fetchbuf.fetch c.fb64 ~addr:(pc + 2))
    end;
    if dinfo <> 0 then begin
      let bytes = (dinfo lsr 1) land 0xF in
      c.dreq32 <- c.dreq32 + Memsys.data_requests ~bus_bytes:4 ~bytes;
      c.dreq64 <- c.dreq64 + Memsys.data_requests ~bus_bytes:8 ~bytes
    end
  in
  let r = Machine.run ~trace:false ~on_insn img in
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
    ireq32 = Memsys.Fetchbuf.requests c.fb32;
    ireq64 = Memsys.Fetchbuf.requests c.fb64;
    dreq32 = c.dreq32;
    dreq64 = c.dreq64;
    output = r.Machine.output;
    exit_code = r.Machine.exit_code;
  }

let stats bench (target : Target.t) =
  let key = (bench, target.Target.name) in
  match with_lock (fun () -> Hashtbl.find_opt stats_tbl key) with
  | Some s -> s
  | None ->
    let s =
      match (Diskcache.find (stats_key bench target) : stats option) with
      | Some s -> s
      | None ->
        let s = compute_stats bench target in
        Diskcache.store (stats_key bench target) s;
        s
    in
    with_lock (fun () -> Hashtbl.replace stats_tbl key s);
    s

let grid_complete bench (target : Target.t) =
  with_lock (fun () ->
      List.for_all
        (fun (size, block, sub) ->
          Hashtbl.mem cache_tbl (bench, target.Target.name, size, block, sub))
        standard_grid)

let install_grid bench (target : Target.t) entries =
  with_lock (fun () ->
      List.iter
        (fun ((size, block, sub), c) ->
          Hashtbl.replace cache_tbl
            (bench, target.Target.name, size, block, sub)
            c)
        entries)

let cache_pair (size, block, sub) =
  let cfg = Memsys.cache_config ~size ~block ~sub in
  { Replay.icache = cfg; dcache = cfg }

let uarch_complete bench (target : Target.t) =
  with_lock (fun () ->
      List.for_all
        (fun cfg -> Hashtbl.mem uarch_tbl (bench, target.Target.name, cfg))
        standard_uarch_configs)

let install_uarch bench (target : Target.t) entries =
  with_lock (fun () ->
      List.iter
        (fun (cfg, res) ->
          Hashtbl.replace uarch_tbl (bench, target.Target.name, cfg) res)
        entries)

(* The one sweep path.  [grid] and [uarch] name the standard sweeps the
   caller needs; an axis already complete in the memo or stored on disk
   is skipped, and whatever is still cold comes from ONE replay of the
   stored trace, so a grid and a pipeline sweep share a decode.  The disk
   entries hold each sweep on its own, whichever call filled them. *)
let ensure_sweeps ?map ~grid ~uarch bench (target : Target.t) =
  let need_grid = grid && not (grid_complete bench target) in
  let need_uarch = uarch && not (uarch_complete bench target) in
  if need_grid || need_uarch then begin
    let disk_grid : ((int * int * int) * Memsys.cached) list option =
      if need_grid then Diskcache.find (grid_key bench target) else None
    in
    (* The disk format stays describe-keyed (it predates the structural
       memo keys), so existing cache entries remain valid. *)
    let disk_uarch : (string * Upipeline.result) list option =
      if need_uarch then Diskcache.find (uarch_sweep_key bench target)
      else None
    in
    let want_grid = need_grid && disk_grid = None in
    let want_uarch = need_uarch && disk_uarch = None in
    let replayed =
      lazy
        (Replay.run ?map
           ?img:(if want_uarch then Some (image bench target) else None)
           (trace_reader bench target)
           {
             Replay.empty with
             caches =
               (if want_grid then List.map cache_pair standard_grid else []);
             pipelines = (if want_uarch then standard_uarch_configs else []);
           })
    in
    let grid_entries =
      if want_grid then begin
        let entries =
          List.combine standard_grid (Lazy.force replayed).Replay.cacheds
        in
        Diskcache.store (grid_key bench target) entries;
        Some entries
      end
      else disk_grid
    in
    Option.iter (install_grid bench target) grid_entries;
    let uarch_entries =
      if want_uarch then begin
        let entries =
          List.map2
            (fun cfg res -> (Uconfig.describe cfg, res))
            standard_uarch_configs (Lazy.force replayed).Replay.pipes
        in
        Diskcache.store (uarch_sweep_key bench target) entries;
        Some entries
      end
      else disk_uarch
    in
    Option.iter
      (fun entries ->
        install_uarch bench target
          (List.map
             (fun cfg -> (cfg, List.assoc (Uconfig.describe cfg) entries))
             standard_uarch_configs))
      uarch_entries
  end

let cached bench (target : Target.t) ~size ~block ~sub =
  let key = (bench, target.Target.name, size, block, sub) in
  match with_lock (fun () -> Hashtbl.find_opt cache_tbl key) with
  | Some c -> c
  | None ->
    ensure_sweeps ~grid:true ~uarch:false bench target;
    (match with_lock (fun () -> Hashtbl.find_opt cache_tbl key) with
    | Some c -> c
    | None ->
      (* Off-grid geometry: one dedicated replay of the stored trace. *)
      let c =
        Diskcache.memo
          (geometry_key bench target ~size ~block ~sub)
          (fun () ->
            match
              (Replay.run (trace_reader bench target)
                 {
                   Replay.empty with
                   caches = [ cache_pair (size, block, sub) ];
                 })
                .Replay.cacheds
            with
            | [ c ] -> c
            | _ -> assert false)
      in
      with_lock (fun () -> Hashtbl.replace cache_tbl key c);
      c)

(* Macro-op fusion counters under the default rule table: one sequential
   pass over the stored trace through the shared chunk-decode cache, so a
   sweep that also replays memory behaviour decodes each chunk once. *)
let fusion bench (target : Target.t) =
  let key = (bench, target.Target.name) in
  match with_lock (fun () -> Hashtbl.find_opt fusion_tbl key) with
  | Some c -> c
  | None ->
    let c =
      Diskcache.memo (fusion_key bench target) (fun () ->
          Fusion.replay
            (Fusion.plan Fusion.default_rules (image bench target))
            (trace_reader bench target))
    in
    with_lock (fun () -> Hashtbl.replace fusion_tbl key c);
    c

let uarch bench (target : Target.t) cfg =
  let key = (bench, target.Target.name, cfg) in
  match with_lock (fun () -> Hashtbl.find_opt uarch_tbl key) with
  | Some res -> res
  | None ->
    ensure_sweeps ~grid:false ~uarch:true bench target;
    (match with_lock (fun () -> Hashtbl.find_opt uarch_tbl key) with
    | Some res -> res
    | None ->
      (* Off-sweep configuration: one dedicated trace replay. *)
      let res =
        Diskcache.memo (uarch_one_key bench target cfg) (fun () ->
            match
              (Replay.run ~img:(image bench target)
                 (trace_reader bench target)
                 { Replay.empty with pipelines = [ cfg ] })
                .Replay.pipes
            with
            | [ res ] -> res
            | _ -> assert false)
      in
      with_lock (fun () -> Hashtbl.replace uarch_tbl key res);
      res)
