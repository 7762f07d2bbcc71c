(** Compressed binary architectural traces (the paper's dinero
    methodology, persisted).

    A trace records one entry per retired instruction — byte address and
    packed data access, exactly the stream {!Repro_sim.Machine.run}'s
    [on_insn] hook delivers — delta+varint encoded into fixed-record-count
    chunks.  Each chunk restarts its delta predictors, so any chunk
    decodes independently of the others; a footer index (per-chunk start
    pc, record count, byte offset, checksum) makes traces seekable and
    corruption-detectable.  One captured execution then drives
    arbitrarily many memory-system configurations at replay speed
    ({!Replay}), chunk by chunk.

    File layout (all integers LEB128 varints unless noted; signed values
    zigzag-coded):

    {v
    header   "REPROTRC" | version u8 (= 2) | insn_bytes u8 | chunk_records
    chunks   per record: Δpc | dtag ((bytes<<1)|is_write, 0 = no access)
                       | Δdaddr (only when dtag <> 0)
    footer   n_chunks | n_records
             per chunk: byte_offset | n_records | start_pc | crc32c u32 LE
             footer_crc u32 LE (crc32c of the footer bytes above)
    trailer  footer_offset u64 LE | "REPROEND"
    v}

    Checksums are CRC-32C ({!Repro_util.Crc32c}).  The footer's own crc
    is checked at {!Reader.open_file}, which therefore costs O(footer);
    each chunk's payload crc is checked at that chunk's first decode.
    There is one format: a file with any other version byte does not
    open, and the trace store re-captures it. *)

val format_version : int
(** The version {!Writer} emits and {!Reader} accepts: [2].  Feeds the
    trace-store key ({!Repro_harness.Runs}), so bumping it orphans stored
    traces and they regenerate in the new format.  Mirrored in the CI
    cache key. *)

val default_chunk_records : int

(** Streaming encoder.  Each record is encoded inline by {!Writer.step};
    each full chunk is checksummed and appended before [step] returns.
    Writes to [path ^ ".tmp.<pid>.<domain>"] and renames on
    {!Writer.close}, so a crash mid-capture never leaves a half-written
    trace at the target path and concurrent captures of the same key, by
    domains of one process or by several processes, are safe (last
    rename wins, both files valid). *)
module Writer : sig
  type t

  val create : ?chunk_records:int -> insn_bytes:int -> string -> t
  (** @raise Invalid_argument if [chunk_records < 1] or [insn_bytes] is
      not 2 or 4. *)

  val step : t -> pc:int -> dinfo:int -> unit
  (** One retired instruction: byte address and packed data access in the
      encoding of {!Repro_sim.Machine.run}'s [on_insn] hook ([0] for
      none) — the hook's signature too. *)

  val close : t -> unit
  (** Flush the last chunk, write footer and trailer, rename into
      place. *)

  val abort : t -> unit
  (** Close and remove the temporary file. *)
end

(** Decoder over a memory-mapped image of the file.  Magic, version and
    the crc-sealed footer index are verified at {!Reader.open_file}; each
    chunk's payload crc is verified at its first decode (CRC-32C over the
    mapped bytes), raising {!Reader.Corrupt} on mismatch.  Concurrent
    domains may share one reader (decoding is per-cursor, the underlying
    bytes are never mutated; the first-touch flags race only into
    redundant re-verification). *)
module Reader : sig
  type t

  exception Corrupt of string
  (** Raised by {!iter} / {!iter_chunk} when a chunk payload fails its
      deferred checksum.  A reader that has fully verified (after
      {!verify} or a complete iteration) cannot raise it. *)

  val open_file : string -> (t, string) result
  (** [Error reason] for anything but a well-formed current-version
      trace: missing file, truncation, structural or footer corruption,
      foreign, older or future format.  Callers treat it as a cache miss
      and re-capture. *)

  val insn_bytes : t -> int
  val chunk_records : t -> int
  val n_records : t -> int
  val n_chunks : t -> int
  val byte_size : t -> int

  val verify : t -> (unit, string) result
  (** Force every chunk's payload checksum now.  No-op on
      already-verified chunks. *)

  type chunk = {
    start_pc : int;  (** pc of the chunk's first record. *)
    n_records : int;
    byte_offset : int;
    byte_length : int;
  }

  val chunk : t -> int -> chunk

  val iter : t -> (pc:int -> dinfo:int -> unit) -> unit
  (** All records in execution order.  @raise Corrupt (see above). *)

  val iter_chunk : t -> int -> (pc:int -> dinfo:int -> unit) -> unit
  (** The per-chunk cursor: records of chunk [i] only.  Independent of
      every other chunk, so chunks can be scanned in parallel
      ([tracedump --working-set]).
      Verifies the chunk's checksum on first touch.
      @raise Corrupt (see above). *)
end
