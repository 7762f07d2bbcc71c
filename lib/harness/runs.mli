(** Memoized per-(benchmark, target) measurements.

    Compiling and simulating a benchmark is deterministic, so every
    experiment shares one set of raw numbers.  The paper priced memory
    systems dinero-style, replaying a captured trace against each
    configuration, because its compiler, simulator and cache model were
    separate programs.  Here they share one process, so every
    measurement is driven by the execution itself: whichever accessor
    finds a (benchmark, target) cold runs the pair's one
    {!Repro_sim.Machine.run}, which streams its records through the
    chunk engine ({!Repro_trace.Replay.stream}) and yields, in that one
    pass, everything of the pair that is cold: the suite {!stats} (the
    engine's bus-4 and bus-8 axes), on D16 the {!fusion} counters, and
    the standard cache grid and pipeline sweep when asked for.  No trace
    is written.  The trace store under [_runs_cache/traces/] is an
    export, filled only on request ({!trace_reader}: [trace:] specs,
    [tracedump]).

    Every measurement is one {!Memo} family (compiled image, trace
    reader, stats, fusion counters, cache grid, pipeline sweep) keyed by
    the (benchmark, target) pair, so {!Memo}'s policy backs every
    accessor:

    - an in-process table, safe to populate from multiple domains (the
      {!Pool} scheduler runs disjoint requests in parallel);
    - for all but the image and the trace reader, the persistent
      {!Diskcache} under [_runs_cache/], keyed by a digest of the
      benchmark source (runtime library included), the full target
      description and the harness compiler knobs, so repeated process
      invocations skip compile+simulate entirely and any change to the
      inputs invalidates the entry;
    - the pair's flight, shared by all its families, around every
      compute: a pair compiles once, and a request that arrives while
      the pair's execution runs waits for it, then reads what that
      execution put. *)

type stats = {
  bench : string;
  target : Repro_core.Target.t;
  size_bytes : int;  (** Stripped-binary measure: text + initialized data. *)
  text_bytes : int;
  ic : int;
  loads : int;
  stores : int;
  load_words : int;
  store_words : int;
  interlocks : int;
  ireq32 : int;  (** Instruction fetch requests, 32-bit bus, no cache. *)
  ireq64 : int;
  dreq32 : int;
  dreq64 : int;
  output : string;
  exit_code : int;
}

val stats : string -> Repro_core.Target.t -> stats
(** Memoized in process and on disk; a warm probe allocates nothing.  A
    cold pair runs its one execution, whose chunk engine prices the
    fetch and data requests as bus-4 and bus-8 axes (one-block fetch
    buffers, the model {!Repro_trace.Replay.Seq.nocache} replays).  No
    trace is captured, stored, or decoded, and the entry's bytes are the
    same whichever accessor's execution filled it. *)

val cached :
  string ->
  Repro_core.Target.t ->
  size:int ->
  block:int ->
  sub:int ->
  Repro_sim.Memsys.cached
(** Cache statistics for split I/D caches of the given geometry (both caches
    identical, as in the paper's figures).  Memoized; the first request for
    a (benchmark, target) fills the whole standard grid
    ({!ensure_sweeps} [~grid:true]).

    @raise Invalid_argument naming the geometry if it is not in
      {!standard_grid}. *)

val uarch :
  string ->
  Repro_core.Target.t ->
  Repro_uarch.Uconfig.t ->
  Repro_uarch.Pipeline.result
(** Cycle-accurate pipeline-model result (stall breakdown, cache counters)
    for one memory configuration.  Memoized: the pair's sweep is one
    entry, and the render paths' hundreds of probes find a configuration
    by its position in {!standard_uarch_configs}, allocating nothing.  The first request for a (benchmark,
    target) fills the standard sweep ({!ensure_sweeps} [~uarch:true]).

    @raise Invalid_argument naming the configuration if it is not in
      {!standard_uarch_configs}. *)

val ensure_sweeps :
  ?map:Repro_trace.Replay.map ->
  grid:bool ->
  uarch:bool ->
  string ->
  Repro_core.Target.t ->
  unit
(** Populate the standard sweeps one (benchmark, target) needs: the cache
    grid ({!standard_grid}) when [grid], the pipeline-model sweep
    ({!standard_uarch_configs}) when [uarch].  A sweep already complete in
    memory or stored on disk is skipped; whatever is still cold comes from
    the pair's one execution streamed through
    {!Repro_trace.Replay.stream}, so both sweeps share it and no trace
    is written.  That execution also yields the pair's {!stats} and, on
    D16, its {!fusion} counters, when those are cold (not in memory, not
    on disk).  Each measurement has its own disk entry
    ({!grid_key}, {!uarch_sweep_key}, {!stats_key}, {!fusion_key}),
    byte-identical whichever call filled it.  The unit of work {!Pool}
    schedules for cache and stall studies.  [?map] is the chunk engine's
    scheduler hook; it sees each chunk as a one-element batch while the
    execution runs, so a span hook times every chunk (the default steps
    chunks in line).  This module cannot depend on {!Pool} — injection
    keeps the dependency one-way. *)

val fusion : string -> Repro_core.Target.t -> Repro_isavar.Fusion.counters
(** Macro-op fusion counters ({!Repro_isavar.Fusion.default_rules}) for
    one (benchmark, target): dynamic op count, per-rule fused pairs, and
    the fused interlock clock, from the pair's one execution (on D16,
    whichever measurement ran it cold) fed through
    {!Repro_isavar.Fusion.stream_step}.  No trace is captured or
    replayed.  Memoized in process and on disk. *)

val standard_uarch_configs : Repro_uarch.Uconfig.t list
(** Cacheless bus 4 and 8 bytes at wait states 0..3, plus 4K and 16K split
    caches (32-byte blocks, 4-byte sub-blocks) at miss penalty 8. *)

val standard_cache_sizes : int list
(** 1K, 2K, 4K, 8K, 16K. *)

val standard_blocks : int list
(** 8, 16, 32, 64 (with 8-byte sub-blocks, paper appendix A.3). *)

val standard_grid : (int * int * int) list
(** Every (size, block, sub) geometry the appendix tables and figures use. *)

(** {2 Trace store}

    An export of one execution's record stream, for [trace:] specs,
    [tracedump] and the benchmarks.  The sweeps above never read it. *)

val trace_reader : string -> Repro_core.Target.t -> Repro_trace.Trace.Reader.t
(** The stored trace for one (benchmark, target), captured now if the
    store has no readable current-version file.  Readers are shared (and
    safe to share) across domains.  With the disk cache disabled the
    capture goes to a temp file, removed once the reader has mapped it or
    the capture has failed. *)

val ensure_trace : string -> Repro_core.Target.t -> unit
(** Populate the trace store for one (benchmark, target) — what a
    [trace:] spec runs. *)

val trace_path : string -> Repro_core.Target.t -> string
(** Where the stored trace lives ([_runs_cache/traces/<key>.trc]). *)

val image : string -> Repro_core.Target.t -> Repro_link.Link.image

val clear_memo : unit -> unit
(** {!Memo.clear}: drop every in-process table; the disk cache persists. *)

(** {2 Cache keys}

    The disk keys of the entries above, exposed for tests and the serve
    plane.  Drivers that memoize derived results (profiles, tab4's
    counts) digest {!bench_fingerprint} and {!knobs_descr} into their own
    keys for the same invalidation rules. *)

val stats_key : string -> Repro_core.Target.t -> string
val grid_key : string -> Repro_core.Target.t -> string
val uarch_sweep_key : string -> Repro_core.Target.t -> string

val fusion_key : string -> Repro_core.Target.t -> string
(** Also digests the rule-table names: changing the shipped rules
    invalidates stored fusion counters. *)

val trace_key : string -> Repro_core.Target.t -> string
(** Also digests {!Repro_trace.Trace.format_version}: bumping the format
    re-captures every stored trace. *)

val bench_fingerprint : string -> string
(** Digest of runtime library + benchmark source. *)

val knobs_descr : string
(** Description of the compiler configuration the harness measures with. *)
