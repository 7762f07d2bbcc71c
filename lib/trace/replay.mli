(** Trace-driven replay: the memory-system models and the cycle-accurate
    pipeline, fed chunk by chunk from a {!Trace.Reader} or from a live
    execution.

    One chunk engine replays a record stream against any mix of bus
    widths, split I/D cache geometries and full pipeline configurations
    in one pass.  It has two chunk sources: {!run} decodes chunk [i] of
    a stored trace, and {!stream} fills each chunk from the execution's
    own [on_insn] records, so a sweep needs no trace at all.  Results are
    exactly equal to the sequential oracle {!Seq} over the same records
    and to direct execution (pipelines fed live by
    {!Repro_uarch.Uarch}) — the differential suite in [test/t_trace.ml]
    gates on byte-identical counters, from both sources.

    {1 The chunk engine}

    The engine works chunk by chunk:

    + {b fill} each chunk once into flat arrays ({!Decoded}) — decoded
      from the stored varint stream, or written in place by the
      execution's hook — shared by every automaton fed from that chunk;
    + {b cold-simulate} each chunk independently: the scoreboard (when
      pipelines are asked for) and one {!Repro_uarch.Pipeline.Mem}
      automaton per distinct memory behaviour, each starting from a state
      that assumes nothing about the carried-in state and recording the
      boundary bookkeeping its reconciliation needs — a prefix log of
      boundary-sensitive events (caches, fetch buffers) or a convergence
      point past which cold provably equals warm (the scoreboard);
    + {b absorb} sequentially, in chunk order: fold each chunk's summaries
      into the true carried state, replaying only the logged prefix —
      never the whole chunk, unless the scoreboard never converged.

    The cold step is independent per chunk, so [?map] may fan a stored
    trace's chunks out across domains; absorption reconstructs exactly
    the sequential outcome. *)

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
    ({!Repro_uarch.Pipeline.Mem.event_bytes}).  A decoded trace chunk
    gets both arrays; {!stream} packs only the granules its spec's caches
    replay at.

    {!run} decodes through a cache (a small MRU over recently-replayed
    readers, lock-free per-chunk slots), so a second {!run} over the same
    reader decodes the varint stream once, not once per pass.  Sweeps in
    the harness and in serve stream from the execution instead, so the
    bench's repeated replays are the only repeat caller left. *)
module Decoded : sig
  type t = {
    pcs : int array;  (** Every record's fetch address, in order. *)
    dinfos : int array;  (** The nonzero packed data records, in order. *)
    ev4 : int array;
        (** Fetch events at 4-byte granules; empty when some pc of the
            chunk does not pack ({!Repro_sim.Memsys.fetch_events}), or
            when no key of the streamed spec replays at 4 bytes. *)
    ev8 : int array;  (** Fetch events at 8-byte granules; likewise. *)
    insn_bytes : int;
  }

  val of_chunk : Trace.Reader.t -> int -> t
  (** Decode chunk [i], bypassing the cache. *)
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

type chunk_result
(** One chunk's cold summaries: the scoreboard's and each memory
    automaton's. *)

type map = (int -> chunk_result) -> int list -> chunk_result list
(** The scheduler hook for {!run} and {!stream}: how per-chunk work is
    distributed (default [List.map]; pass [Repro_harness.Pool.map ~pool]
    or [~jobs] to fan a stored trace's chunks out across domains). *)

val run :
  ?map:map ->
  ?img:Repro_link.Link.image ->
  Trace.Reader.t ->
  spec ->
  result
(** Replay the trace against every axis of [spec] from one decode per
    chunk.  Memory automatons are deduplicated by behaviour class across
    the axes — a pipeline configuration whose memory behaviour also
    appears as a bus or a cache pair shares one automaton — and the
    scoreboard (needed only when [spec.pipelines] is nonempty) runs once
    for every pipeline configuration, since interlocks depend only on the
    instruction stream.

    Each sub-result is byte-equal to the sequential oracle:
    {!Seq.nocache} per bus, {!Seq.cached} per pair (instruction fetch
    width comes from the trace header), and {!Seq.pipelines} — equal in
    turn to a live {!Repro_uarch.Uarch} run — per pipeline
    configuration.  The differential suite gates on it.

    An empty spec returns empty lists without touching the reader.

    @raise Invalid_argument if [spec.pipelines] is nonempty and no
      [?img] was given (the pipeline model needs the image's instruction
      descriptors). *)

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
    then goes through the same cold step and in-order absorb as {!run}.  [insn_bytes] is the instruction width a trace of
    the same records would carry in its header.  Returns [drive]'s value
    and the result, equal to {!run} over a trace of the same records.

    [?map] receives each chunk as a one-element batch while [drive] is
    still running: a span hook times every chunk, and
    [Repro_harness.Pool.map] of one element stays on the calling domain.

    An empty spec still runs [drive], with a hook that ignores its
    records.

    @raise Invalid_argument if [chunk_records < 1], or if
      [spec.pipelines] is nonempty and no [?img] was given. *)

(** Reference implementations: plain sequential per-record loops.  They
    share nothing with the chunk engine — no decode cache, no automata,
    no reconciliation — so the differential suite uses them as
    independent baselines. *)
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
