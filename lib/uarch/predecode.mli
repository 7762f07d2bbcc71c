(** Static per-instruction descriptors for the timing model.

    The pipeline model never computes values; per executed instruction it
    only needs to know which registers are read (in the order the
    architectural simulator reads them), which register is written, with
    what result latency, and whether a stall on that result is a delayed
    load or an FP-unit interlock.  Those facts are static, so they are
    precomputed into one table per image before stepping.

    The read order and the latencies mirror {!Repro_sim.Machine} exactly —
    including its quirks (DLXe [r0] writes still update the result
    scoreboard; traps read the argument register except [put_float]) — so
    that {!Scoreboard} reproduces the architectural interlock count
    cycle-for-cycle. *)

type rreg =
  | Rg of int  (** General register read. *)
  | Rf of int  (** FP register read. *)
  | Rstatus  (** FP status read ([rdsr]). *)

type wreg = Wg of int | Wf of int | Wstatus

type cause = Load | Fp
(** What a stall on the written result counts as.  Only meaningful for
    latencies > 0 (zero-latency results can never stall a consumer). *)

type write = { dst : wreg; latency : int; cause : cause }

type desc = { reads : rreg list; write : write option }

val of_insn : Repro_core.Insn.t -> desc

val table : Repro_link.Link.image -> desc array
(** Descriptor of every static instruction, in instruction-index order;
    map a trace address to its index with
    {!Repro_link.Link.index_at} — a constant-time array lookup on the
    pipeline's per-record path.

    Built afresh on every call, one pass over the image's instructions:
    a caller that steps many records holds the result.  Equal images
    give equal tables. *)
