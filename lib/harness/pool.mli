(** Parallel run scheduler over OCaml 5 domains.

    A pool executes submitted thunks on [jobs] worker domains fed from a
    mutex/condition work queue.  With [jobs <= 1] nothing is spawned and
    tasks run inline, in submission order, when {!wait} is called — the
    historical serial behavior.  Determinism does not depend on the
    schedule: pool tasks only populate the keyed {!Runs} memo, and
    rendering afterwards is always serial, so parallel output is
    byte-identical to serial output.

    The job count for {!run_plan} and {!default_jobs} comes from, in
    order: the explicit [?jobs] argument, the [REPRO_JOBS] environment
    variable, then [Domain.recommended_domain_count] (capped at 16). *)

type t

val create : jobs:int -> t
val submit : t -> (unit -> unit) -> unit

val wait : t -> unit
(** Block until the queue drains and all workers are idle (or, serially,
    run every queued task now).  Re-raises the first exception any task
    raised. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Call after {!wait}. *)

val map : ?pool:t -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map; [tracedump --working-set] scans a
    stored trace's chunks with it.  With [?pool] the elements run
    on that pool's existing workers (the caller keeps ownership and must
    not be waiting on it concurrently); otherwise a throwaway pool of
    [jobs] workers is spawned ([jobs] defaults to 1 = plain [List.map]).
    Re-raises the first exception any element raised. *)

val default_jobs : unit -> int

val run_plan : ?jobs:int -> Plan.t -> unit
(** Deduplicate the plan, execute every spec (parallel for [jobs > 1]),
    wait, and shut the pool down. *)
