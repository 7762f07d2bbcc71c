(** Macro-op fusion: a predecode-time pass pairing adjacent D16
    instructions so the pair issues as one op.

    The paper's 16-bit ISA pays for density with path length — two-address
    ALU ops, compare-to-r0 sequences, literal-pool moves.  Macro-op fusion
    recovers part of that gap in the decoder instead of the ISA: a small
    typed rule table recognizes adjacent pairs at predecode time
    (compare + conditional branch, constant materialization + ALU,
    address bump + load, pool load + move) and the pipeline issues each
    matched pair as a single internal op.

    Accounting follows the fusion literature: the {e dynamic op count}
    (path length) drops by one per fused pair, while instruction-fetch
    traffic is unchanged — both halves are still fetched, so density
    numbers and cache/bus behaviour are exactly the baseline's.  Memory
    stalls therefore come from the ordinary replay engines; only the
    issue clock and the interlock bubbles are recomputed here, on a
    {!Repro_uarch.Scoreboard} fed with merged descriptors.

    A pair fuses only {e dynamically}: the first half must execute with
    the textual successor as the next executed record (a taken branch or
    a delay-slot exit between the halves leaves both unfused), and fusion
    is greedy and non-overlapping.  With an empty rule table the engine
    below is byte-identical to the baseline scoreboard accounting — the
    differential suite gates on it. *)

type rule = { name : string; matches : Repro_core.Insn.t -> Repro_core.Insn.t -> bool }
(** A fusion rule: does the adjacent pair [(i1, i2)] fuse? *)

val cmp_branch : rule
(** [cmp]/[cmpi] writing r0, then [bz]/[bnz] testing r0. *)

val mvi_alu : rule
(** [mvi rt] then a register ALU op whose second operand is [rt]. *)

val addr_load : rule
(** [addi rt, _, k] then a load (int or FP) based on [rt]. *)

val ldc_mv : rule
(** Literal-pool load to r0 then [mv _, r0]. *)

val default_rules : rule list
(** The shipped table, in match-priority order:
    [cmp_branch; mvi_alu; addr_load; ldc_mv]. *)

val merge : Repro_uarch.Predecode.desc -> Repro_uarch.Predecode.desc ->
  Repro_uarch.Predecode.desc
(** The fused pair's scoreboard descriptor: reads are the union of the
    halves' sources minus the first half's destination (forwarded inside
    the op); the write is the pair's architectural result — the
    higher-latency half decides readiness. *)

type plan
(** The static half of the pass for one image: per instruction index,
    the first rule matching [(i, i+1)] and the pair's merged descriptor. *)

val plan : rule list -> Repro_link.Link.image -> plan
(** Pattern-match every adjacent pair once.  Rules apply in list order
    (first match wins); an empty list yields a plan that never fuses. *)

val static_pairs : plan -> int
(** Textually-adjacent matches in the image (static, not weighted by
    execution). *)

(** {1 Counters} *)

type counters = {
  ic : int;  (** Executed instructions. *)
  fused : int;  (** Dynamically fused pairs. *)
  rule_hits : int array;  (** Per rule, in rule-list order; sums to [fused]. *)
  interlock_clock : int;  (** Fused issue clock: dynamic ops + bubbles. *)
  load_interlocks : int;
  fp_interlocks : int;
}

val dynamic_ops : counters -> int
(** Ops issued: [ic - fused] — the fused path length. *)

(** {1 Engine}

    One engine, fed from the committed-instruction stream of one
    {!Repro_sim.Machine.run} through its [on_insn] callback.  The
    differential suite gates it against an independent greedy pairing
    and, with an empty rule table, a plain scoreboard walk, both written
    in the test. *)

type stream
(** Streaming engine state. *)

val stream_start : plan -> stream

val stream_step : stream -> iaddr:int -> unit
(** Feed one executed instruction's (possibly wide-marked) address. *)

val stream_finish : stream -> counters
(** Flush the pairing buffer and read the totals. *)

(** {1 Pricing} *)

val charge : counters -> Repro_uarch.Pipeline.result -> Repro_uarch.Stalls.t
(** Price a fused run under the configuration [base] was measured with:
    fusion leaves every memory-side stall bucket unchanged (both halves
    are still fetched), so the fused cycle count is the fused interlock
    clock plus [base]'s fetch/data stalls. *)
