(** The service plane's typed wire protocol.

    One JSON object per line in both directions (see {!Wire}).  A client
    sends an {!envelope} — a client-chosen correlation id, an optional
    per-request deadline, and a {!request} — and receives exactly one
    {!envelope} carrying the same id and a {!response}.  Ids let a
    client pipeline requests on one connection; the server may answer
    out of submission order.

    Encoding and decoding are total: {!request_of_json} and
    {!response_of_json} return [Error] on anything malformed (unknown
    ops, missing or ill-typed fields), never an exception, and both
    round-trip their [to_json] counterparts exactly — the property
    [test/t_serve.ml] gates on.  Experiment specs ride as
    {!Repro_harness.Plan} spec strings (["grid:queens:d16"]), the same
    spelling the report CLI takes, so every front end shares one
    parser. *)

type request =
  | Ping
  | Status  (** Observability counters ({!status}). *)
  | Shutdown  (** Graceful: answered, then the server stops accepting. *)
  | Sweep of Repro_harness.Plan.spec
      (** Ensure one measurement unit (stats/grid/uarch/fused/trace) and
          return a digest of its results. *)
  | Render of string
      (** Render one experiment artifact (table/figure) by id. *)
  | Sleep of float
      (** Hold a worker for [ms] — a diagnostic op the timeout and
          load-shed tests (and nothing else) rely on. *)

type error_code =
  | Busy  (** Bounded request queue is full — shed, retry later. *)
  | Timeout  (** Deadline passed; the work may still complete server-side. *)
  | Bad_request
  | Server_error
  | Shutting_down

type status = {
  uptime_s : float;
  accepted : int;  (** Requests received (all ops). *)
  completed : int;
  failed : int;  (** Error responses sent (all codes). *)
  coalesced : int;
      (** Requests that joined an identical job already in flight instead
          of spawning their own computation. *)
  batches : int;
      (** Finished executions that answered more than one request (the
          first plus coalesced joins), i.e. whose responses carry
          [batch > 1]. *)
  batched : int;  (** Requests answered by those executions. *)
  max_batch : int;  (** The largest [batch] any execution answered. *)
  runs : int;  (** Underlying executions actually dispatched. *)
  queue_depth : int;  (** Jobs dispatched to the pool, not yet finished. *)
  timeouts : int;
  shed : int;
  disk_hits : int;  (** {!Repro_harness.Diskcache} counters. *)
  disk_misses : int;
  latency_ms_sum : float;  (** Over completed requests. *)
  latency_ms_max : float;
}

type response =
  | Pong
  | Status_r of status
  | Sweep_r of {
      spec : Repro_harness.Plan.spec;
      digest : string;
          (** Checksum of the marshaled results ({!Digests.of_spec}) —
              equal digests mean byte-equal measurements.  Compared
              only for equality; the scheme (crc32c hex) is an
              implementation detail of the server generation. *)
      batch : int;
          (** How many requests the same underlying execution answered
              (1 = this one ran alone, more = identical requests
              coalesced onto it). *)
      ms : float;  (** Server-side latency of this request. *)
    }
  | Render_r of { id : string; text : string }
  | Slept
  | Bye  (** Shutdown acknowledged. *)
  | Error_r of { code : error_code; message : string }

type 'a envelope = { id : int; deadline_ms : float option; payload : 'a }
(** [deadline_ms] is meaningful on requests only (absent = the server's
    default); it is preserved but ignored on responses. *)

val error_code_to_string : error_code -> string
(** ["busy" | "timeout" | "bad-request" | "server-error" |
    "shutting-down"]. *)

val error_code_of_string : string -> (error_code, string) result
val request_to_json : request envelope -> Repro_util.Json.t
val request_of_json : Repro_util.Json.t -> (request envelope, string) result
val response_to_json : response envelope -> Repro_util.Json.t
val response_of_json : Repro_util.Json.t -> (response envelope, string) result

val describe_request : request -> string
(** One-word-ish rendering for log lines. *)
