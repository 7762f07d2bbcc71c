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

    The replay engine takes a chunk's instruction stream as an int array
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

  (** {2 Batch replay}

      The replay engine's loops over one chunk's stream, on the same
      warm state as {!access}: an access inside one sub-block whose tag
      and valid bit are in place is a hit counted in the loop, and a miss
      or a span takes {!access}.  Sequential oracle and engine thus share
      this one cache model; [test/t_memsys.ml] checks it against
      hand-computed cases. *)

  val fetch_events : t -> int array -> count_bits:int -> insn_bytes:int -> unit
  (** Replay a chunk's instruction reads, given as fetch events under
      [count_bits] (see {!fetch_event_bits}; [insn_bytes] sizes an
      unmarked fetch).  Each event's first fetch is one access of its
      span; its repeats only count.  That is exact when every run lies
      inside one sub-block, i.e. when the events were built at a granule
      no larger than [sub_block_bytes]: the first access leaves the
      sub-block valid, so the repeats are hits. *)

  type data_counts = {
    mutable reads : int;
    mutable read_misses : int;
    mutable writes : int;
    mutable write_misses : int;
  }

  val data_counts : unit -> data_counts
  (** All zero. *)

  val data : t -> data_counts -> int array -> unit
  (** Replay a chunk's data accesses, its nonzero packed records
      [(addr lsl 5) lor (bytes lsl 1) lor is_write] in order, adding each
      to the read or the write side of the counts. *)
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
