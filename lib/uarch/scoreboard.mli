(** Result-readiness tracking: the interlock half of the pipeline clock.

    The scoreboard advances a clock in the same domain the architectural
    simulator uses for interlock accounting: one tick per issued
    instruction plus one per interlock bubble.  Memory stalls live outside
    this clock — the modelled machine freezes the whole pipeline on a
    memory wait, so producer-consumer distances in issue slots are
    unaffected and the two stall families compose additively (which is
    what makes the analytical formula exact, paper footnote 2).

    Stalls are attributed to the cause recorded for the producing
    register: {!Predecode.Load} bubbles are delayed-load interlocks,
    {!Predecode.Fp} bubbles are FP-latency interlocks; their sum equals
    {!Repro_sim.Machine.result.interlocks} exactly. *)

type t

val create : n_gpr:int -> n_fpr:int -> t

val step : t -> Predecode.desc -> unit
(** Stall for every not-yet-ready source (in read order), record the
    written result's readiness, advance the clock by the issue cycle. *)

val clock : t -> int
(** Issued instructions + interlock bubbles so far. *)

val load_stalls : t -> int
val fp_stalls : t -> int
