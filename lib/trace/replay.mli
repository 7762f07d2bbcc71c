(** Trace-driven replay: the memory-system models and the cycle-accurate
    pipeline, fed chunk by chunk from a {!Trace.Reader} or from a live
    execution.

    One engine replays a record stream against any mix of bus widths,
    split I/D cache geometries and full pipeline configurations in one
    pass.  It has two chunk sources: {!run} decodes chunk [i] of
    a stored trace, and {!stream} fills each chunk from the execution's
    own [on_insn] records, so a sweep needs no trace at all.  Results are
    exactly equal to the sequential oracle {!Seq} over the same records
    and to direct execution (pipelines fed live by
    {!Repro_uarch.Uarch}) — the differential suite in [test/t_trace.ml]
    gates on byte-identical counters, from both sources.

    {1 The engine}

    The engine steps one warm automaton per distinct memory behaviour
    ({!Repro_uarch.Pipeline.Mem}), plus one scoreboard when pipelines
    are asked for, chunk by chunk in stream order — a dinero-style
    sequential pass that keeps the chunk structure:

    + {b fill} each chunk once into flat arrays ({!Decoded}) — decoded
      from the stored varint stream just before its step, taken from a
      caller-held {!decode}, or written in place by the execution's hook
      — shared by every automaton fed from that chunk;
    + {b step} the chunk straight into each automaton, so after the last
      chunk they hold the sequential outcome.

    Nothing outlives a call: a chunk's arrays die with its step, and a
    caller that replays one trace repeatedly holds its {!decode}
    itself. *)

(** One trace chunk decoded into flat arrays, shared by every automaton.

    Besides the raw pcs, the i-stream is decoded twice more as
    {e fetch events} ({!Repro_sim.Memsys.fetch_event_bits}), at 4- and at
    8-byte granules.  A run of consecutive fetches whose spans all lie
    inside one aligned granule becomes one event (its first pc, wide mark
    stripped, plus a repeat count); a fetch whose span crosses a granule
    boundary (a wide D16m fetch at [pc mod 4 = 2], say) is a
    {e straddle} event of its own at its traced pc.  A cache whose
    sub-block is at least that wide replays a run in one step: the first
    fetch decides, the rest are hits.  Fetch buffers step the raw pcs
    ({!Repro_uarch.Pipeline.Mem.event_bytes}).  From either source, a
    stored trace ({!run}) or the execution ({!stream}), [ev4]/[ev8] are
    empty when no key of the spec replays at that granule;
    {!of_chunk} and {!decode} pack both, for any spec. *)
module Decoded : sig
  type t = {
    pcs : int array;  (** Every record's fetch address, in order. *)
    dinfos : int array;  (** The nonzero packed data records, in order. *)
    ev4 : int array;
        (** Fetch events at 4-byte granules; empty when some pc of the
            chunk does not pack ({!Repro_sim.Memsys.fetch_events}), or
            when no key of the spec replays at 4 bytes. *)
    ev8 : int array;  (** Fetch events at 8-byte granules; likewise. *)
    insn_bytes : int;
  }

  val of_chunk : Trace.Reader.t -> int -> t
  (** Decode chunk [i], with fetch events at both granules. *)
end

(** {1 The replay engine} *)

type cache_pair = {
  icache : Repro_sim.Memsys.cache_config;
  dcache : Repro_sim.Memsys.cache_config;
}
(** One split I/D cache geometry. *)

type spec = {
  buses : int list;  (** Cacheless fetch/data bus widths, in bytes. *)
  caches : cache_pair list;  (** Split I/D geometry pairs. *)
  pipelines : Repro_uarch.Uconfig.t list;
      (** Full pipeline configurations; require [?img]. *)
}
(** The axes of one sweep.  Any of them may be empty. *)

val empty : spec
(** No axis at all: [{ empty with caches = [ pair ] }] is a one-geometry
    replay. *)

type result = {
  nocaches : Repro_sim.Memsys.nocache list;  (** Per bus, in order. *)
  cacheds : Repro_sim.Memsys.cached list;  (** Per geometry pair, in order. *)
  pipes : Repro_uarch.Pipeline.result list;
      (** Per pipeline configuration, in order. *)
}

type map = (int -> unit) -> int list -> unit list
(** {!stream}'s per-chunk hook: it is called once per chunk, in order,
    with that chunk's step and its index alone, and must run the step
    (a span hook times each chunk; the default is [List.map]). *)

val run : ?img:Repro_link.Link.image -> Trace.Reader.t -> spec -> result
(** Replay the trace against every axis of [spec] from one decode per
    chunk.  Chunk [i] is decoded just before its step, packed only at the
    granules the spec's caches replay at, and dropped after the step:
    nothing is retained after the call, so a second {!run} over the same
    reader decodes again (see {!decode}).  Memory automatons are
    deduplicated by behaviour class across the axes — a pipeline
    configuration whose memory behaviour also appears as a bus or a cache
    pair shares one automaton — and the scoreboard (needed only when [spec.pipelines] is
    nonempty) runs once for every pipeline configuration, since
    interlocks depend only on the instruction stream.

    Each sub-result is byte-equal to the sequential oracle:
    {!Seq.nocache} per bus, {!Seq.cached} per pair (instruction fetch
    width comes from the trace header), and {!Seq.pipelines} — equal in
    turn to a live {!Repro_uarch.Uarch} run — per pipeline
    configuration.  The differential suite gates on it.

    An empty spec returns empty lists without touching the reader.

    @raise Invalid_argument if [spec.pipelines] is nonempty and no
      [?img] was given (the pipeline model needs the image's instruction
      descriptors). *)

type decoded
(** Every chunk of one trace, decoded ({!Decoded.of_chunk}): held by a
    caller that replays the same trace more than once. *)

val decode : Trace.Reader.t -> decoded
(** Decode every chunk of the trace, both granules packed.  The value
    holds the whole trace as flat arrays (several words per record), for
    as long as the caller keeps it. *)

val run_decoded : ?img:Repro_link.Link.image -> decoded -> spec -> result
(** {!run} over a held decode: the same chunk loop and engine, so the
    result equals [run rd spec] for the reader [rd] it was decoded from.
    Raises as {!run}. *)

val stream :
  ?map:map ->
  ?img:Repro_link.Link.image ->
  ?chunk_records:int ->
  insn_bytes:int ->
  spec ->
  ((pc:int -> dinfo:int -> unit) -> 'a) ->
  'a * result
(** [stream ~insn_bytes spec drive] runs [drive hook] — typically one
    {!Repro_sim.Machine.run} whose [on_insn] calls [hook] — and replays
    the records [hook] receives against every axis of [spec], with no
    trace written or read.  The records are packed into chunks of
    [chunk_records] (default {!Trace.default_chunk_records}, as
    {!Trace.Writer.create}); each full chunk, and the last partial one
    after [drive] returns, is packed into fetch events only at the
    granules some key of [spec] replays at (none for a bus-only spec),
    then goes through the same step as {!run}.  [insn_bytes] is the
    instruction width a trace of the same records would carry in its
    header.  Returns [drive]'s value and the result, equal to {!run} over
    a trace of the same records.

    [?map] is the per-chunk hook ({!map}): it receives each chunk's step
    as a one-element batch while [drive] is still running, so a span
    hook times every chunk.

    An empty spec still runs [drive], with a hook that ignores its
    records.

    @raise Invalid_argument if [chunk_records < 1], or if
      [spec.pipelines] is nonempty and no [?img] was given. *)

(** Reference implementations: plain sequential per-record loops, the
    differential suite's baselines.  They share one piece with the engine:
    the cache model {!Repro_sim.Memsys.Cache.access}, which the engine's
    batch loops fall back to on a miss or a span.  [test/t_memsys.ml]
    checks that model against hand-computed cases; the engine's own
    batching (fetch events, the inlined hit test, chunking, key dedup,
    the shared scoreboard) is checked against these loops. *)
module Seq : sig
  val nocache : Trace.Reader.t -> bus_bytes:int -> Repro_sim.Memsys.nocache

  val cached :
    icache:Repro_sim.Memsys.cache_config ->
    dcache:Repro_sim.Memsys.cache_config ->
    Trace.Reader.t ->
    Repro_sim.Memsys.cached

  val pipelines :
    Trace.Reader.t ->
    Repro_uarch.Uconfig.t list ->
    Repro_link.Link.image ->
    Repro_uarch.Pipeline.result list
  (** One sequential pass feeding every configuration's full
      {!Repro_uarch.Pipeline}, in configuration order. *)
end
