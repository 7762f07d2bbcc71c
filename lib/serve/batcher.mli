(** Request coalescing, window batching, and bounded execution — the
    server core between the socket layer and the {!Repro_harness.Pool}.

    Three mechanisms, in the order a request meets them:

    - {b single-flight coalescing}: every job carries a digest key
      ({!Digests.key_of_spec} — the same keys the disk cache uses).  A
      request whose key is already pending or executing attaches to that
      job instead of spawning another computation; all attached requests
      receive the one result.
    - {b window batching}: batchable sweeps (grid/uarch/fused) for the
      same (benchmark, target) that arrive within [window_ms] of each
      other merge into one group.  A group that mixes kinds or holds a
      fused request runs one {!Repro_harness.Runs.ensure_sweeps} call
      with both axes — one trace decode serves every request in the
      group — and each request's results are byte-equal to a
      directly-run plan (equal {!Digests.of_spec}).
    - {b bounded queue with load shedding}: at most [max_queue] jobs may
      be pending-or-executing; past that, submission fails fast with
      [Busy].  {!await} never blocks past its deadline — an unfinished
      job answers [Timeout] (and keeps running server-side; a later
      identical request coalesces onto it and gets the warm result).

    All submission paths are safe from any thread; execution happens on
    the internal pool's worker domains. *)

type t

val create : ?jobs:int -> ?window_ms:float -> ?max_queue:int -> unit -> t
(** [jobs] worker domains (default {!Repro_harness.Pool.default_jobs},
    clamped to at least 2 — a pool with fewer workers only runs tasks at
    [wait], which a server never reaches); [window_ms] the batching
    window (default 10); [max_queue] the job bound (default 64). *)

type ticket
(** One request's claim on a job's result. *)

val sweep : t -> Repro_harness.Plan.spec -> (ticket, Proto.error_code * string) result
(** Submit a measurement request.  [Error] only on shed ([Busy]) or a
    stopping server ([Shutting_down]); never blocks. *)

val fn : t -> key:string -> (unit -> Proto.response) -> (ticket, Proto.error_code * string) result
(** Submit an arbitrary job under single-flight [key] (renders coalesce
    by experiment id; diagnostics pass a unique key).  Dispatches
    immediately — no batching window. *)

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
(** Stop accepting (new submissions fail with [Shutting_down]), flush
    the batching window, and wait for every dispatched job to finish. *)

val shutdown : t -> unit
(** {!quiesce} then join the ticker thread and the pool's domains. *)
