(** The event-stepped five-stage pipeline timing model.

    One {!step} per executed instruction, fed either from
    {!Repro_sim.Machine.run}'s [on_insn] streaming hook ({!Uarch.run}) or
    by replaying a stored trace ({!Repro_trace.Replay.Seq.pipelines}).
    Each event walks the memory-facing stages:

    - {b IF}: the fetch buffer (cacheless) or the split I-cache; a fetch
      outside the buffer costs the wait states, an I-miss the miss penalty;
    - {b ID/EX}: the {!Scoreboard} charges delayed-load and FP interlock
      bubbles exactly as the architectural simulator does;
    - {b MEM}: data bus transactions (cacheless) or the D-cache; read and
      write stalls are charged to separate buckets.

    Branch delay slots need no special handling: the stream already
    contains the executed slot instruction (the code generator guarantees
    one after every transfer), so transfers cost exactly their issue
    cycles, matching the paper's machine. *)

type t

type result = {
  stalls : Stalls.t;
  caches : Repro_sim.Memsys.cached option;
      (** Cache statistics, for cached configurations; the counters match
          {!Repro_trace.Replay.Seq.cached} over the same stream
          field-for-field. *)
}

val create : Uconfig.t -> Repro_link.Link.image -> t

val step : t -> iaddr:int -> dinfo:int -> unit
(** One executed instruction: its byte address and its packed data access
    ([0] for none — the encoding of {!Repro_sim.Machine.run}'s [on_insn]
    hook). *)

val result : t -> result

(** {1 Memory-side chunk engine}

    The memory-facing stages see the configuration only through a coarser
    equivalence class — the bus width (cacheless; wait states merely scale
    the request counts) or the two cache geometries (cached; the miss
    penalty merely scales the miss counts) — so a multi-configuration
    sweep deduplicates its memory automatons by {!Mem.key} and scales at
    {!Mem.charge} time.  Chunks are simulated cold in parallel
    ({!Mem.chunk_start}/{!Mem.step}) and reconciled exactly
    by a sequential {!Mem.absorb} pass: the fetch buffer's only
    boundary-sensitive event is the chunk's first fetch, and the caches
    reuse {!Repro_sim.Memsys.Cache}'s prefix-log reconciliation. *)
module Mem : sig
  type key
  (** Memory-behaviour class of a {!Uconfig.t}; structural equality
      dedups. *)

  val key : Uconfig.t -> key

  val event_bytes : key -> int
  (** The fetch-event granule the key replays from: for a cached key, 8
      or 4 when that many bytes fit in one cache sub-block, so a run of
      fetches inside one aligned granule lies in one sub-block, its first
      fetch decides and the rest only count.  0, the raw traced pcs, for
      a smaller sub-block and for every cacheless key: a fetch buffer
      steps a pc for less than packing it costs. *)

  type auto
  (** One chunk's cold memory automaton. *)

  val chunk_start : insn_bytes:int -> key -> auto

  val step : auto -> int array -> count_bits:int -> dinfos:int array -> unit
  (** Replay one chunk into a fresh automaton: its instruction stream as
      fetch events under [count_bits] ({!Repro_sim.Memsys.fetch_event_bits}
      for events built at {!event_bytes}, 0 for the raw traced pcs), then
      its nonzero packed data records, in order.  A cacheless automaton
      takes the raw pcs ([count_bits = 0]), as {!event_bytes} says. *)

  type summary

  val chunk_finish : auto -> summary

  type carry

  val carry_start : key -> carry

  val absorb : carry -> summary -> unit
  (** Fold the next chunk's summary, in stream order.
      @raise Invalid_argument if the summary came from a different key. *)

  val nocache_counters : carry -> Repro_sim.Memsys.nocache
  (** The carried totals of a cacheless carry as the plain bus-request
      counters — field-for-field what {!Repro_trace.Replay.Seq.nocache}
      reports for the same stream.
      @raise Invalid_argument on a cached carry. *)

  val cached_counters : carry -> Repro_sim.Memsys.cached
  (** The carried totals of a cached carry as the plain cache counters —
      field-for-field what {!Repro_trace.Replay.Seq.cached} reports for
      the same stream.
      @raise Invalid_argument on a cacheless carry. *)

  val charge :
    carry ->
    Uconfig.t ->
    ic:int ->
    interlock_clock:int ->
    load_interlocks:int ->
    fp_interlocks:int ->
    result
  (** Scale the carried request/miss totals by the configuration's wait
      states or miss penalty and assemble the full result around the
      scoreboard counters.  The configuration must belong to the carry's
      key class.
      @raise Invalid_argument otherwise. *)
end
