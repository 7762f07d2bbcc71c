(** The `d16c serve` daemon: a long-running experiment server over a
    Unix-domain (and optionally TCP) socket.

    One {!Wire} frame in, one frame out, correlated by envelope id;
    concurrent clients each get a connection thread, measurement work
    runs on the {!Batcher}'s pool domains.  Every request goes straight
    to the pool; a duplicate in-flight request coalesces onto the one
    computation, a client that wants both sweep axes of a pair from one
    execution asks for a [fused:] spec, and overload answers a typed
    [Busy] (queue full) or [Timeout] (deadline passed) — a client is
    always answered, never left on a hung socket.

    Lifecycle: {!start} binds and accepts in background threads;
    {!stop} (or a client's [Shutdown] request) begins a graceful stop —
    in-flight jobs finish and are answered, new work is refused with
    [Shutting_down]; {!wait} blocks until the stop completes and every
    resource (threads, sockets, the socket file) is released.  {!run}
    is [start] + [wait]. *)

type config = {
  unix_path : string option;  (** Unix-domain socket path. *)
  tcp : (string * int) option;  (** Optional TCP listener (host, port). *)
  jobs : int option;  (** Worker domains; default {!Repro_harness.Pool.default_jobs}. *)
  max_queue : int;  (** Job bound before [Busy]; 64 default. *)
  default_deadline_ms : float;
      (** Deadline for requests that carry none; 60 s default. *)
  log : string -> unit;  (** Log sink; default stderr. *)
  log_interval_s : float;
      (** Period of the observability log line; 0 disables it. *)
}

val default_config : unit -> config
(** Unix socket at [_runs_cache/d16c.sock] (under the current
    {!Repro_harness.Diskcache.dir}), no TCP, default pool width, queue
    bound 64, 60 s deadline, stderr logging every 10 s. *)

type handle

val start : config -> (handle, string) result
(** Bind the listeners and start serving.  [Error] if no listener was
    requested or a bind fails. *)

val stop : handle -> unit
(** Begin a graceful stop (idempotent, safe from any thread). *)

val wait : handle -> unit
(** Block until the server has stopped and torn down. *)

val run : config -> (unit, string) result
(** {!start} then {!wait}: serve until a [Shutdown] request or {!stop}
    from another thread (e.g. a signal handler). *)

val status_of : handle -> Proto.status
(** Live counters — what a [Status] request returns. *)
