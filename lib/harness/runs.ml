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

(* Per-(bench, target) locks around every execution of a pair: its sweep
   execution, its stats and fusion runs, its trace capture.  A stats and a
   sweep spec for the same pair may land on two domains at once; one
   executes, the other blocks on the pair's mutex and then reads what the
   first installed.  Never taken while holding [lock]; never re-entered. *)
let pair_locks : (string * string, Mutex.t) Hashtbl.t = Hashtbl.create 32

let pair_lock key =
  with_lock (fun () ->
      match Hashtbl.find_opt pair_locks key with
      | Some m -> m
      | None ->
        let m = Mutex.create () in
        Hashtbl.add pair_locks key m;
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

let uarch_sweep_descr =
  String.concat "," (List.map Uconfig.describe standard_uarch_configs)

let uarch_sweep_key bench (target : Target.t) =
  Diskcache.key
    [
      "uarch-sweep"; uarch_sweep_descr; bench; bench_fingerprint bench;
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

(* Capture (or reopen) under the pair's lock and install the reader. *)
let trace_reader bench (target : Target.t) =
  let key = (bench, target.Target.name) in
  Mutex.protect (pair_lock key) (fun () ->
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
          Fun.protect
            ~finally:(fun () ->
              if not persistent then
                try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              match reopen () with
              | Some rd -> rd
              | None -> (
                capture_trace bench target path;
                match Trace.Reader.open_file path with
                | Ok rd -> rd
                | Error e ->
                  failwith ("Runs: just-captured trace unreadable: " ^ e)))
        in
        with_lock (fun () -> Hashtbl.replace trace_tbl key rd);
        rd)

let ensure_trace bench target = ignore (trace_reader bench target)

(* Suite stats. -------------------------------------------------------------

   The cacheless fetch-request counts depend only on the dynamic address
   stream, so they come from the execution that yields the architectural
   counters.  A swept pair gets them from its sweep execution, as the
   bus-4 and bus-8 axes of the streamed replay ({!ensure_sweeps}).  Any
   other pair runs alone here: the [on_insn] hook streams every
   retirement through one {!Memsys.Fetchbuf} per bus width — the model
   {!Replay.Seq.nocache} replays — and never touches the trace store.
   The hook captures one record of mutable counters and allocates nothing
   per instruction. *)

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
  let r = Machine.run ~on_insn img in
  stats_of bench target img r
    ~n32:
      { Memsys.irequests = Memsys.Fetchbuf.requests c.fb32; drequests = c.dreq32 }
    ~n64:
      { Memsys.irequests = Memsys.Fetchbuf.requests c.fb64; drequests = c.dreq64 }

(* The memo, then the disk (installing a hit in the memo). *)
let find_memo tbl key ~disk =
  match with_lock (fun () -> Hashtbl.find_opt tbl key) with
  | Some v -> Some v
  | None ->
    let v = Diskcache.find disk in
    Option.iter (fun v -> with_lock (fun () -> Hashtbl.replace tbl key v)) v;
    v

let store_memo tbl key ~disk v =
  Diskcache.store disk v;
  with_lock (fun () -> Hashtbl.replace tbl key v)

(* Under the pair's lock: a stats request for a pair whose sweep execution
   is running waits for it, then finds the stats that execution stored. *)
let stats bench (target : Target.t) =
  let key = (bench, target.Target.name) in
  match with_lock (fun () -> Hashtbl.find_opt stats_tbl key) with
  | Some s -> s
  | None ->
    Mutex.protect (pair_lock key) (fun () ->
        let disk = stats_key bench target in
        match find_memo stats_tbl key ~disk with
        | Some s -> s
        | None ->
          let s = compute_stats bench target in
          store_memo stats_tbl key ~disk s;
          s)

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

(* Macro-op fusion counters under the default rule table, over one
   execution's committed-instruction stream. *)
let fusion_stream img =
  Fusion.stream_start (Fusion.plan Fusion.default_rules img)

(* The sweep execution, under the pair's lock: one {!Machine.run} whose
   hook feeds the chunk engine (and the fusion stream when D16's counters
   are cold), storing and installing every measurement it made under its
   own key. *)
let execute_sweeps ?map ~want_grid ~want_uarch bench (target : Target.t) =
  let key = (bench, target.Target.name) in
  let img = image bench target in
  let stats_disk = stats_key bench target in
  let fusion_disk = fusion_key bench target in
  let want_stats = find_memo stats_tbl key ~disk:stats_disk = None in
  let fusion =
    if
      target.Target.name = Target.d16.Target.name
      && find_memo fusion_tbl key ~disk:fusion_disk = None
    then Some (fusion_stream img)
    else None
  in
  let r, res =
    Replay.stream ?map ~img ~insn_bytes:(Target.insn_bytes target)
      {
        Replay.buses = (if want_stats then [ 4; 8 ] else []);
        caches = (if want_grid then List.map cache_pair standard_grid else []);
        pipelines = (if want_uarch then standard_uarch_configs else []);
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
  | [ n32; n64 ] ->
    store_memo stats_tbl key ~disk:stats_disk
      (stats_of bench target img r ~n32 ~n64)
  | _ -> ());
  Option.iter
    (fun st ->
      store_memo fusion_tbl key ~disk:fusion_disk (Fusion.stream_finish st))
    fusion;
  if want_grid then begin
    let entries = List.combine standard_grid res.Replay.cacheds in
    Diskcache.store (grid_key bench target) entries;
    install_grid bench target entries
  end;
  if want_uarch then begin
    (* The disk format stays describe-keyed (it predates the structural
       memo keys), so existing cache entries remain valid. *)
    Diskcache.store (uarch_sweep_key bench target)
      (List.map2
         (fun cfg res -> (Uconfig.describe cfg, res))
         standard_uarch_configs res.Replay.pipes);
    install_uarch bench target
      (List.combine standard_uarch_configs res.Replay.pipes)
  end

(* The one sweep path.  [grid] and [uarch] name the standard sweeps the
   caller needs; an axis already complete in the memo or stored on disk
   is skipped, and whatever is still cold comes from ONE execution of the
   pair streamed through {!Replay.stream} — no trace is written.  The same
   execution fills the pair's stats (the bus-4 and bus-8 axes) and, on
   D16, its fusion counters, when those are cold too.  The disk entries
   hold each measurement on its own, whichever call filled them. *)
let ensure_sweeps ?map ~grid ~uarch bench (target : Target.t) =
  let cold () =
    ( grid && not (grid_complete bench target),
      uarch && not (uarch_complete bench target) )
  in
  match cold () with
  | false, false -> ()
  | _ ->
    Mutex.protect (pair_lock (bench, target.Target.name)) (fun () ->
        (* Another domain may have filled the sweeps while this one
           waited for the pair. *)
        let need_grid, need_uarch = cold () in
        let disk_grid : ((int * int * int) * Memsys.cached) list option =
          if need_grid then Diskcache.find (grid_key bench target) else None
        in
        let disk_uarch : (string * Upipeline.result) list option =
          if need_uarch then Diskcache.find (uarch_sweep_key bench target)
          else None
        in
        Option.iter (install_grid bench target) disk_grid;
        Option.iter
          (fun entries ->
            install_uarch bench target
              (List.map
                 (fun cfg -> (cfg, List.assoc (Uconfig.describe cfg) entries))
                 standard_uarch_configs))
          disk_uarch;
        let want_grid = need_grid && disk_grid = None in
        let want_uarch = need_uarch && disk_uarch = None in
        if want_grid || want_uarch then
          execute_sweeps ?map ~want_grid ~want_uarch bench target)

(* Every caller asks for the standard sweeps only; anything else is a
   programming error, named in the exception. *)
let cached bench (target : Target.t) ~size ~block ~sub =
  let key = (bench, target.Target.name, size, block, sub) in
  match with_lock (fun () -> Hashtbl.find_opt cache_tbl key) with
  | Some c -> c
  | None ->
    if not (List.mem (size, block, sub) standard_grid) then
      invalid_arg
        (Printf.sprintf "Runs.cached: %d/%d/%d is not a standard_grid geometry"
           size block sub);
    ensure_sweeps ~grid:true ~uarch:false bench target;
    with_lock (fun () -> Hashtbl.find cache_tbl key)

(* Fusion counters stream their own execution when no sweep execution of
   the pair has filled them — under the pair's lock, so a request that
   arrives while the pair's sweep runs waits and then finds them. *)
let fusion bench (target : Target.t) =
  let key = (bench, target.Target.name) in
  match with_lock (fun () -> Hashtbl.find_opt fusion_tbl key) with
  | Some c -> c
  | None ->
    Mutex.protect (pair_lock key) (fun () ->
        let disk = fusion_key bench target in
        match find_memo fusion_tbl key ~disk with
        | Some c -> c
        | None ->
          let img = image bench target in
          let st = fusion_stream img in
          ignore
            (Machine.run
               ~on_insn:(fun ~iaddr ~dinfo:_ -> Fusion.stream_step st ~iaddr)
               img);
          let c = Fusion.stream_finish st in
          store_memo fusion_tbl key ~disk c;
          c)

let uarch bench (target : Target.t) cfg =
  let key = (bench, target.Target.name, cfg) in
  match with_lock (fun () -> Hashtbl.find_opt uarch_tbl key) with
  | Some res -> res
  | None ->
    if not (List.mem cfg standard_uarch_configs) then
      invalid_arg
        ("Runs.uarch: " ^ Uconfig.describe cfg
       ^ " is not a standard_uarch_configs configuration");
    ensure_sweeps ~grid:false ~uarch:true bench target;
    with_lock (fun () -> Hashtbl.find uarch_tbl key)
