(** The end-to-end compilation pipeline: mini-C source to an executable
    image for a target, mirroring the paper's GCC-based flow (one compiler
    technology, retargeted by the experiment knobs). *)

exception Compile_error of string

type ablation = {
  opt_flags : Repro_ir.Opt.flags;
  fill_delay_slots : bool;
  schedule_loads : bool;
}
(** Switches for the ablation study (DESIGN.md design-choice benches). *)

val no_ablation : ablation

val describe_ablation : ablation -> string
(** Stable rendering of every switch, for persistent-cache keys. *)

val compile :
  ?optimize:int ->
  ?ablation:ablation ->
  ?with_runtime:bool ->
  Repro_core.Target.t ->
  string ->
  Repro_link.Link.image
(** [compile target source] parses, lowers, optimizes (default level 2),
    prepares for the target, allocates registers, selects instructions,
    schedules delay slots, and links (runtime library included unless
    [with_runtime] is false).
    @raise Compile_error wrapping any front/middle/back-end failure. *)

val compile_and_run :
  ?optimize:int ->
  ?ablation:ablation ->
  ?max_steps:int ->
  Repro_core.Target.t ->
  string ->
  Repro_link.Link.image * Repro_sim.Machine.result
