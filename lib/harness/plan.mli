(** Typed run requests: the measurements an experiment needs.

    A plan enumerates (benchmark, target, unit-of-work) triples as values,
    decoupling {e what} must be measured from {e how} it is executed — the
    {!Pool} scheduler runs a plan serially or across domains, and the
    results land in the {!Runs} memo either way.  Because plans are
    deduplicated and results are keyed, execution order never affects what
    any experiment later reads: parallel output is byte-identical to
    serial. *)

(** The unit of work: the {!Runs.stats} measurements (one streamed
    execution, no trace), the standard cache grid, the standard
    cycle-accurate pipeline sweep, both at once from a single execution,
    or a trace capture into the store ({!Runs.ensure_trace}), an export
    that no other kind reads.  [Grid], [Uarch] and [Fused] are the axis
    choices of the one sweep path, {!Runs.ensure_sweeps}: grid only,
    pipeline sweep only, or both. *)
type kind = Stats | Grid | Uarch | Fused | Trace

type spec = { bench : string; target : Repro_core.Target.t; kind : kind }
type t = spec list

val stats_specs :
  benches:string list -> targets:Repro_core.Target.t list -> t

val grid_specs :
  benches:string list -> targets:Repro_core.Target.t list -> t

val uarch_specs :
  benches:string list -> targets:Repro_core.Target.t list -> t

val fused_specs :
  benches:string list -> targets:Repro_core.Target.t list -> t

val union : t -> t -> t
(** Concatenation with first-occurrence dedup. *)

val dedup : t -> t

(** {2 Spec syntax}

    One canonical spelling per spec — ["kind:bench:target"], e.g.
    ["grid:queens:d16"] — shared by every front end (the report CLI, the
    {!Repro_serve} protocol, tests) so nobody hand-rolls plan
    construction.  [spec_of_string] validates all three fields (unknown
    kinds, benchmarks, and targets are [Error]s naming the valid
    choices) and round-trips [spec_to_string] exactly. *)

val kind_to_string : kind -> string
(** ["stats" | "grid" | "uarch" | "fused" | "trace"]. *)

val kind_of_string : string -> (kind, string) result

val spec_to_string : spec -> string
(** ["kind:bench:target"] with the target's canonical short name. *)

val spec_of_string : string -> (spec, string) result

val looks_like_spec : string -> bool
(** The word contains [':'] — cheap syntactic test for CLIs that mix
    spec arguments with other words. *)

val full : unit -> t
(** Everything {!Experiments.render_all} needs: fused grid+pipeline
    sweeps for the three cache benchmarks (one execution each feeds all
    25 geometries and the full configuration sweep), the pipeline-model
    sweeps for the remaining suite, then suite stats on every target —
    most expensive units first.  A pair's one execution fills whatever
    of it is cold, its stats (and D16 fusion counters) included, so the
    stats units of swept pairs find the memo warm.  No unit captures a
    trace. *)

val for_experiment : string -> t
(** The plan for one experiment id (empty for the two drivers that manage
    their own derived caches). *)

val execute : ?chunk_map:Repro_trace.Replay.map -> spec -> unit
(** Run one spec to completion through {!Runs} (memo + disk cache).
    A [Grid], [Uarch] or [Fused] spec is one {!Runs.ensure_sweeps} call
    with that kind's axes.  [?chunk_map] is forwarded to its chunk
    engine, which hands it each chunk as a one-element batch while the
    execution runs — a span hook that times every chunk. *)

val describe : spec -> string

val suite_names : string list
val cache_names : string list
