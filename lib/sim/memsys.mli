(** Memory-system models replayed over a reference trace (paper Section 4).

    Cacheless machines: an instruction buffer holds the last fetched
    bus-width block; a fetch outside it is a memory request costing the wait
    states.  Cycles = IC + Interlocks + l * (IRequests + DRequests)
    (paper Appendix A.2).

    Cached machines: split direct-mapped I/D caches with sub-block valid
    bits and wrap-around prefetch on read misses (dinero-style, Section
    4.1.1).  Cycles = IC + Interlocks + MissPenalty * (IMiss + RMiss +
    WMiss).

    This module holds the automata and the counter records; the replays
    that drive them over a stored trace are {!Repro_trace.Replay.run} and
    its sequential oracle {!Repro_trace.Replay.Seq}. *)

type cache_config = {
  size_bytes : int;
  block_bytes : int;
  sub_block_bytes : int;
}

val cache_config : size:int -> block:int -> sub:int -> cache_config
(** Smart constructor: all three must be powers of two with
    [sub <= block <= size].
    @raise Invalid_argument naming the violated invariant otherwise. *)

type cache_stats = {
  accesses : int;
  misses : int;
  words_transferred : int;  (** Sub-blocks fetched from memory, in words. *)
}

val miss_rate : cache_stats -> float

(** {1 Instruction-fetch events}

    The chunk engines take a chunk's instruction stream as an int array
    of {e fetch events}.  Under [count_bits = k], word [w] is the traced
    pc [w lsr k] (bit 0 the wide mark, as in the trace) followed by
    [w land (2^k - 1)] repeat fetches.  A repeat lies in the same aligned
    granule as its event's first fetch, so an automaton whose outcome is
    constant across that granule replays the whole run in one step.
    Packed events use [k = fetch_event_bits]; a straddle (one fetch whose
    span crosses a granule boundary) is its traced pc with no repeats.
    With [k = 0] the raw traced pcs are an event array, one fetch per
    word. *)

val fetch_event_bits : int
(** Repeat-count bits of a packed event (8): one event stands for at most
    256 fetches, and a longer run is split. *)

val fetch_events : insn_bytes:int -> granule:int -> int array -> int array
(** The packed fetch events of a chunk's traced pcs at [granule] bytes (4
    or 8; [insn_bytes] sizes an unmarked fetch).  Empty when some pc does
    not pack exactly (negative, or not below [2^(Sys.int_size - 9)]: 2^54
    on a 64-bit host); the chunk then replays from its raw pcs. *)

(** The single-access cache model the replays (and the {!Repro_uarch}
    cycle-accurate pipeline) are built on: direct-mapped, sub-block valid
    bits, wrap-around prefetch of the following sub-block on read misses,
    allocate-without-prefetch on writes.

    Addressing is specialized for the power-of-two geometry invariants:
    precomputed shifts and masks, one flat valid bitset, and a fast path
    for accesses inside a single sub-block. *)
module Cache : sig
  type t

  val make : cache_config -> t

  val access : t -> is_read:bool -> addr:int -> bytes:int -> bool
  (** One access event covering [addr, addr + bytes); returns whether it
      missed (any sub-block of the span invalid or a tag mismatch). *)

  val stats : t -> cache_stats

  (** {2 Chunk-parallel engine}

      A chunk {!auto} simulates a slice of the access stream with unknown
      incoming cache state (cold tags, cleared valid bits) and records a
      compact prefix log of just the events whose outcome could depend on
      the carried-in state.  A sequential {!absorb} pass then replays only
      those logs against the true carried state, in chunk order, and the
      resulting {!carry_totals} are byte-equal to a sequential replay of
      the whole stream (gated by the differential suite in
      [test/t_trace.ml]; the reconciliation argument is in DESIGN.md). *)

  type auto
  (** One chunk's cold automaton plus its prefix log. *)

  val chunk_start : cache_config -> auto

  val chunk_fetch_events :
    auto -> int array -> count_bits:int -> insn_bytes:int -> unit
  (** Cold-simulate the chunk's instruction reads, given as fetch events
      under [count_bits] (see {!fetch_event_bits}; [insn_bytes] sizes an
      unmarked fetch).  Each event's first fetch is one full access of
      its span, so a straddle event, or any raw pc ([count_bits = 0]),
      takes the complete path; its repeats only count.  That is exact
      when every run lies inside one sub-block, i.e. when the events were
      built at a granule no larger than [sub_block_bytes]: the first
      access decides hit or miss, and the repeats are hits in both the
      cold and the true world. *)

  val chunk_data : auto -> int array -> unit
  (** Cold-simulate the chunk's data accesses: its nonzero packed records
      [(addr lsl 5) lor (bytes lsl 1) lor is_write], in order. *)

  type summary
  (** Immutable chunk result: cold counters, prefix log, and the cold end
      state of every settled set.  Safe to move across domains. *)

  val chunk_finish : auto -> summary

  type carry
  (** Sequential merge state: the true cache state carried across chunk
      boundaries plus the accumulated totals. *)

  val carry_start : cache_config -> carry

  val absorb : carry -> summary -> unit
  (** Fold the next chunk's summary (chunks must be absorbed in stream
      order) into the carried state and totals. *)

  type totals = {
    reads : int;
    read_misses : int;
    writes : int;
    write_misses : int;
    fetch_words : int;  (** Sub-blocks fetched from memory, in words. *)
  }

  val carry_totals : carry -> totals
end

(** The cacheless machine's instruction buffer: holds the last fetched
    bus-width block; a fetch outside it is one memory request.  Exposed so
    the trace replays ({!Repro_trace.Replay}) and the {!Repro_uarch}
    pipeline charge fetch traffic through the same model. *)
module Fetchbuf : sig
  type t

  val make : bus_bytes:int -> t
  (** @raise Invalid_argument if [bus_bytes] is not a power of two. *)

  val fetch : t -> addr:int -> bool
  (** Whether the fetch went to memory (address outside the buffer). *)

  val fetch_events : t -> int array -> unit
  (** Fetch a chunk's instruction stream, given as its raw traced pcs
      (bit 0 the wide mark: a wide instruction's tail halfword is a
      second fetch).  No granule packing: a run of fetches costs the
      buffer one compare each, less than packing it would. *)

  val requests : t -> int

  val last_block : t -> int
  (** The buffered block number, [-1] before the first fetch. *)
end

val data_requests : bus_bytes:int -> bytes:int -> int
(** Bus transactions for one data access of [bytes] bytes. *)

type nocache = {
  irequests : int;  (** Instruction-fetch bus transactions. *)
  drequests : int;  (** Data bus transactions (doubles = 2 on a 32-bit bus). *)
}

val nocache_cycles : wait_states:int -> Machine.result -> nocache -> int

type cached = {
  icache : cache_stats;
  dcache_read : cache_stats;
  dcache_write : cache_stats;
}

val cached_cycles : miss_penalty:int -> Machine.result -> cached -> int

val cpi : cycles:int -> ic:int -> float

val normalized_cpi : cycles:int -> reference_ic:int -> float
(** The paper's normalization: cycles divided by the {e other} machine's
    path length, factoring out the instruction-count difference. *)
