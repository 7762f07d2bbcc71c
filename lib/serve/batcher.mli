(** Request coalescing and bounded execution — the server core between
    the socket layer and the {!Repro_harness.Pool}.

    Two mechanisms, in the order a request meets them:

    - {b single-flight coalescing}: every job carries a key (a sweep's
      is {!Digests.key_of_spec} — the same keys the disk cache uses).
      A request whose key is already in flight attaches to that job
      instead of occupying a pool worker of its own; all attached
      requests receive the one result.  Each job is dispatched to the
      pool at once: a sweep runs {!Digests.of_spec}, so a [fused:] spec
      is one execution for both axes, and a grid and a uarch request
      for one pair serialise on the pair's {!Repro_harness.Memo} flight
      exactly as they do in a report.
    - {b bounded queue with load shedding}: at most [max_queue] jobs may
      be in flight; past that, submission fails fast with [Busy].
      {!await} never blocks past its deadline — an unfinished job
      answers [Timeout] (and keeps running server-side; a later
      identical request coalesces onto it and gets the warm result).

    All submission paths are safe from any thread; execution happens on
    the internal pool's worker domains. *)

type t

val create : ?jobs:int -> ?max_queue:int -> unit -> t
(** [jobs] worker domains (default {!Repro_harness.Pool.default_jobs},
    clamped to at least 2 — a pool with fewer workers only runs tasks at
    [wait], which a server never reaches); [max_queue] the job bound
    (default 64). *)

type ticket
(** One request's claim on a job's result. *)

val sweep : t -> Repro_harness.Plan.spec -> (ticket, Proto.error_code * string) result
(** Submit a measurement request: {!fn} under the spec's
    {!Digests.key_of_spec}, answering its {!Digests.of_spec}.  [Error]
    only on shed ([Busy]) or a stopping server ([Shutting_down]); never
    blocks. *)

val fn : t -> key:string -> (unit -> Proto.response) -> (ticket, Proto.error_code * string) result
(** Submit an arbitrary job under single-flight [key] (renders coalesce
    by experiment id; diagnostics pass a unique key). *)

val await : t -> ticket -> deadline:float -> Proto.response
(** Block until the job completes or [deadline] (absolute
    [Unix.gettimeofday] time) passes, whichever is first; a timeout
    yields [Error_r Timeout].  Completion is polled at millisecond
    granularity, so responses lag completion by at most ~2 ms. *)

val counters : t -> Proto.status
(** Live coalesce/batch/queue counters; the connection-level fields
    (uptime, accepted, completed, failed, disk hits) are zero — the
    {!Server} owns those and fills them in. *)

val quiesce : t -> unit
(** Stop accepting (new submissions fail with [Shutting_down]) and wait
    for every dispatched job to finish. *)

val shutdown : t -> unit
(** {!quiesce} then join the pool's domains. *)
