(** Drivers wiring the pipeline model to the architectural simulator.

    {!run} executes an image once and feeds every retired instruction to
    the timing model through {!Repro_sim.Machine.run}'s [on_insn] hook —
    no trace array is ever materialized, so memory stays flat regardless
    of path length.  {!run_many} times several memory configurations in
    one architectural execution.  Stepping the model over a stored trace
    instead is {!Repro_trace.Replay.Seq.pipelines} (sequential) or
    {!Repro_trace.Replay.run} (chunk-parallel). *)

val run :
  Uconfig.t ->
  Repro_link.Link.image ->
  Repro_sim.Machine.result * Pipeline.result

val run_many :
  Uconfig.t list ->
  Repro_link.Link.image ->
  Repro_sim.Machine.result * Pipeline.result list
(** One architectural execution feeding one pipeline per configuration;
    results are in configuration order. *)
