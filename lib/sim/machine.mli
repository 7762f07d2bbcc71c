(** Architectural simulator for the shared five-stage pipeline.

    Executes a linked image and produces the paper's per-program raw
    measurements: path length (IC), loads/stores and interlock cycles
    (delayed loads and FPU latencies, Table 10).  The reference stream the
    memory-system models replay (fetch buffering, caches) leaves through
    the [on_insn] hook, one record per retired instruction.

    Pipeline timing model: one instruction per cycle; a delayed load's
    result is available one cycle late; FP results after the unit latency
    (add/sub/convert 2, multiply 4, divide 8, compare-to-status 2);
    consumers stall and the stalls are counted as interlocks.  Branches and
    jumps execute their delay slot (the following instruction) before
    control transfers — the code generator guarantees a slot after every
    transfer. *)

val decode_daccess : int -> (bool * int * int) option
(** [Some (is_write, addr, bytes)] for a nonzero packed [dinfo] (see
    {!run}). *)

type result = {
  exit_code : int;
  output : string;
  ic : int;  (** Path length. *)
  loads : int;
  stores : int;
  load_words : int;  (** Words of data read (doubles count 2). *)
  store_words : int;
  interlocks : int;
}

exception Runtime_error of string

val run :
  ?trace:bool ->
  ?on_insn:(iaddr:int -> dinfo:int -> unit) ->
  ?max_steps:int ->
  Repro_link.Link.image ->
  result
(** [on_insn] is called once per retired instruction, in execution order,
    with its byte address [iaddr] (bit 0 set on a wide instruction of a
    mixed-width target) and its packed data access [dinfo]: [0] for none,
    else [(addr lsl 5) lor (bytes lsl 1) lor is_write].  This is the one
    way to observe an execution: the trace writer, the stats counters, the
    {!Repro_uarch} pipeline model and the profiler all read it.
    [trace] is ignored.  It stays only because the end-to-end benchmark
    ([e2ebench/sim_wl.ml]) still passes [~trace:false]; it goes when that
    benchmark next changes.
    [max_steps] defaults to 400 million.
    @raise Runtime_error on invalid memory access, unaligned access,
    division issues, or step overrun.

    Internally [run] executes via a threaded-dispatch loop over a dense
    per-image operand table (memoized per image); {!run_ref} is the
    plain structural interpreter it must agree with. *)

val run_ref :
  ?on_insn:(iaddr:int -> dinfo:int -> unit) ->
  ?max_steps:int ->
  Repro_link.Link.image ->
  result
(** The reference interpreter: direct match dispatch over the image's
    instruction array, no predecoded table.  Semantically identical to
    {!run} (same trap codes, counters, output and [on_insn] stream,
    including runtime-error messages) and kept as the differential oracle for the
    threaded fast path — test/t_machine.ml gates [run = run_ref] over
    the whole suite on every target. *)

val fp_latency_add : int
val fp_latency_mul : int
val fp_latency_div : int
val fp_latency_cmp : int
val load_latency : int
