(** Trace-driven replay: the memory-system models and the cycle-accurate
    pipeline, fed from a {!Trace.Reader} instead of a live execution.

    One entry point, {!run}, replays a stored trace against any mix of
    bus widths, split I/D cache geometries and full pipeline
    configurations from one decode.  Its results are exactly equal to
    their direct-execution counterparts
    ({!Repro_sim.Memsys.replay_nocache}, [replay_cached], and
    {!Repro_uarch.Uarch} runs) — the differential suite in
    [test/t_trace.ml] gates on byte-identical counters.

    {1 The chunk-parallel framework}

    {!run} drives one automaton through the same recipe any engine
    built on this framework follows:

    + {b decode} each trace chunk once into flat arrays ({!Decoded}),
      shared by every automaton fed from that chunk;
    + {b cold-simulate} each chunk independently — an {!Automaton} starts
      from a state that assumes nothing about the carried-in state and
      records whatever boundary bookkeeping its reconciliation needs
      (a prefix log of boundary-sensitive events, or a convergence
      point past which cold provably equals warm);
    + {b merge} sequentially, in chunk order: fold each chunk's summary
      into the true carried state ([absorb]), replaying only the logged
      prefix — never the whole chunk, unless it never converged.

    The {!Chunked} functor packages steps 1–3 so an engine only supplies
    its automaton; exactness is the automaton's contract ([absorb] must
    reconstruct precisely the sequential outcome), and the differential
    suite gates every shipped instance on byte-equality to direct
    execution, chunk-parallel equal to sequential. *)

(** One trace chunk decoded into flat arrays, shared by every automaton.

    The i-stream is additionally run-length compressed at 4-byte
    granularity: consecutive fetches inside the same granule become one
    event plus a repeat count, which any automaton whose hit/miss outcome
    is constant across a granule (cache sub-blocks >= 4 bytes on aligned
    traces; any fetch buffer with a bus >= 4 bytes) replays in one step —
    the first access decides, the rest are guaranteed hits.

    Decoded chunks are cached (a small MRU over recently-replayed
    readers, lock-free per-chunk slots), so passes that revisit a trace
    (the fusion counters after a sweep, or a parallel replay fanning the
    same chunks out repeatedly) decode the varint stream once, not once
    per pass. *)
module Decoded : sig
  type t = {
    pcs : int array;  (** Every record's fetch address, in order. *)
    dinfos : int array;  (** The nonzero packed data records, in order. *)
    gran : int array;  (** Run-length compressed i-stream: 4-byte granules. *)
    cnt : int array;  (** Repeat count per granule run. *)
    aligned : bool;  (** No fetch straddles a granule. *)
    insn_bytes : int;
  }

  val of_chunk : Trace.Reader.t -> int -> t
  (** Decode chunk [i], bypassing the cache. *)

  val get : Trace.Reader.t -> int -> t
  (** Decode chunk [i] through the shared cache: the first caller (in any
      domain) decodes, everyone else reuses the arrays. *)
end

(** What an engine supplies: a per-chunk cold automaton plus the
    sequential reconciliation that makes chunk-parallel execution exact.

    [chunk_start]/[step]/[snapshot] run inside a chunk, potentially on
    another domain, with {e unknown} carried-in state; [carry]/[absorb]
    run sequentially, in chunk order, and must reconstruct exactly the
    state and totals a sequential replay would have produced.  The two
    shipped reconciliation strategies are both expressible:

    - {e prefix log} ({!Repro_sim.Memsys.Cache}, the fetch buffer):
      the summary carries the boundary-sensitive events, [absorb]
      replays just those against the true carried state;
    - {e bounded-horizon convergence} ({!Repro_uarch.Scoreboard}): the
      summary carries the pre-convergence prefix, [absorb] re-steps it
      warm and adopts the cold suffix verbatim (falling back to a full
      re-step if the chunk never converged). *)
module type Automaton = sig
  type cfg
  (** One configuration of the model (geometry, bus width, ...). *)

  type auto
  (** One chunk's cold automaton. *)

  type summary
  (** Immutable chunk result: cold counters plus whatever reconciliation
      needs.  Safe to move across domains. *)

  type carry
  (** Sequential merge state: the true state carried across chunk
      boundaries plus the accumulated totals. *)

  val chunk_start : cfg -> auto

  val step : auto -> Decoded.t -> unit
  (** Advance the cold automaton over one decoded chunk. *)

  val snapshot : auto -> summary
  (** Freeze the chunk's outcome; the automaton is dead afterwards. *)

  val converged : summary -> bool
  (** Whether [absorb] can adopt the chunk's cold suffix (prefix-only
      reconciliation) or must re-step the whole chunk.  Advisory — the
      merge is exact either way — but a diagnostic for chunk-size
      tuning, and a hook the functor tests assert on. *)

  val carry : cfg -> carry
  (** The merge state before any chunk: the stream's true initial state. *)

  val absorb : carry -> summary -> unit
  (** Fold the next chunk's summary, in stream order. *)
end

(** Exact chunk-parallel execution for any {!Automaton}: decode each
    chunk once ({!Decoded.get}), feed every configuration's cold
    automaton from the same arrays, then reconcile sequentially per
    configuration. *)
module Chunked (A : Automaton) : sig
  type chunk_result = A.summary array
  (** Per-configuration summaries for one chunk. *)

  val chunk : A.cfg array -> Trace.Reader.t -> int -> chunk_result
  (** Cold-simulate every configuration over chunk [i].  Independent of
      every other chunk — safe to fan out across domains. *)

  val merge : A.cfg array -> chunk_result list -> A.carry array
  (** Sequential reconciliation, in chunk order, per configuration. *)

  val run :
    ?map:((int -> chunk_result) -> int list -> chunk_result list) ->
    Trace.Reader.t ->
    A.cfg array ->
    A.carry array
  (** The whole trace: [map] distributes the per-chunk work (default
      [List.map]); pass [Repro_harness.Pool.map ~pool] or [~jobs] to fan
      chunks out across domains. *)
end

type chunk_result
(** One chunk's summaries under the unified automaton {!run} drives. *)

type map = (int -> chunk_result) -> int list -> chunk_result list
(** The scheduler hook for {!run}: how per-chunk work is distributed
    (default [List.map]; pass [Repro_harness.Pool.map ~pool] or [~jobs]
    to fan chunks out across domains). *)

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

    Each sub-result is byte-equal to direct execution:
    {!Repro_sim.Memsys.replay_nocache} per bus,
    {!Repro_sim.Memsys.replay_cached} per pair (instruction fetch width
    comes from the trace header), and a {!Repro_uarch.Uarch} run per
    pipeline configuration.  The differential suite gates on it.

    An empty spec returns empty lists without touching the reader.

    @raise Invalid_argument if [spec.pipelines] is nonempty and no
      [?img] was given (the pipeline model needs the image's instruction
      descriptors). *)

(** Reference implementations: the plain sequential per-record loops the
    chunk engines replaced.  They share nothing with the {!Chunked}
    framework — no decode cache, no automata, no reconciliation — so the
    differential suite uses them as independent baselines. *)
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
