module Crc32c = Repro_util.Crc32c

let format_version = 2
let supported_versions = [ 1; 2 ]
let default_chunk_records = 1 lsl 16
let magic = "REPROTRC"
let magic_end = "REPROEND"
let header_bytes = String.length magic + 2 (* + chunk_records varint *)
let trailer_bytes = 8 + String.length magic_end

(* LEB128 varints; signed values zigzag-coded (OCaml's 63-bit ints). *)

let put_uvarint buf n =
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      go (n lsr 7)
    end
  in
  go n

let put_u32_le buf n =
  Buffer.add_char buf (Char.chr (n land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF))

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))

(* Worst-case encoded record: 9-byte Δpc + 1-byte dtag + 9-byte Δdaddr. *)
let max_record_bytes = 19

(* Per-chunk payload checksum, by format version: v1 footers carry a
   16-byte MD5 per chunk, v2 footers a 4-byte CRC-32C (an order of
   magnitude cheaper per byte, and small enough that the whole footer
   stays a few dozen bytes per chunk). *)
type check = Md5 of string | Crc of int

module Writer = struct
  type pending = {
    start_pc : int;
    n_records : int;
    byte_offset : int;
    check : check;
  }

  (* Two capture modes, byte-identical output (a differential test and
     the golden v1 fixture pin this):

     - direct (single-core boxes): [step] delta/varint-encodes into
       [scratch] inline and each full chunk is checksummed and appended
       synchronously — the classic writer.
     - flusher (when a spare core exists): [step] only appends raw
       (pc, dinfo) pairs to [raw]; encoding, the chunk checksum, and
       the file append all run on a shared background domain, so the
       capture domain pays two array stores per record.  Sound because
       chunks restart the delta predictors — each chunk's payload is a
       pure function of its own raw records — and the flusher drains
       jobs FIFO, so one writer's chunks land in file order.  [close]
       waits for the writer's outstanding chunks.

     On a 1-CPU host the flusher cannot overlap with simulation and
     only adds stop-the-world GC synchronization, so the default is
     [Domain.recommended_domain_count () > 1] (overridable per writer
     or via REPRO_TRACE_FLUSHER=0/1). *)
  type t = {
    path : string;
    tmp : string;
    oc : Out_channel.t;  (* flusher-owned between create and close *)
    version : int;
    chunk_records : int;
    flusher : bool;
    (* shared *)
    mutable cur_n : int;
    mutable index : pending list;  (* reversed *)
    mutable offset : int;  (* of the next chunk, from file start *)
    mutable scratch : Bytes.t;  (* encode buffer for the active mode *)
    (* direct mode: inline encode state *)
    mutable pos : int;  (* current chunk payload is scratch[0, pos) *)
    mutable limit : int;  (* scratch length - max_record_bytes headroom *)
    mutable cur_start_pc : int;
    mutable prev_pc : int;
    mutable prev_daddr : int;
    (* flusher mode *)
    mutable raw : int array;  (* 2 * chunk_records: pc, dinfo pairs *)
    lock : Mutex.t;  (* guards the four fields below *)
    drained : Condition.t;
    mutable spare : int array option;  (* double buffer, recycled *)
    mutable outstanding : int;  (* chunks enqueued, not yet written *)
    mutable error : exn option;  (* first flusher failure, for close *)
  }

  (* Unchecked emit into [s] at [pos]; the caller reserved
     [max_record_bytes] of headroom for the whole record. *)
  let rec put_uvarint_at s pos n =
    if n < 0x80 then begin
      Bytes.unsafe_set s pos (Char.unsafe_chr n);
      pos + 1
    end
    else begin
      Bytes.unsafe_set s pos (Char.unsafe_chr (0x80 lor (n land 0x7F)));
      put_uvarint_at s (pos + 1) (n lsr 7)
    end

  (* Encode [n] raw records into [w.scratch] (growing it as needed) and
     return the payload length.  Runs on the flusher domain; [w.scratch]
     is touched by no one else while a chunk is outstanding. *)
  let encode_chunk w raw n =
    if Bytes.length w.scratch < n * max_record_bytes then
      w.scratch <-
        Bytes.create (max (n * max_record_bytes) (2 * Bytes.length w.scratch));
    let s = w.scratch in
    let pos = ref 0 in
    let prev_pc = ref 0 in
    let prev_daddr = ref 0 in
    for i = 0 to n - 1 do
      let pc = Array.unsafe_get raw (2 * i) in
      let dinfo = Array.unsafe_get raw ((2 * i) + 1) in
      (* Sequential code makes almost every Δpc a single varint byte. *)
      let z = zigzag (pc - !prev_pc) in
      let p =
        if z < 0x80 then begin
          Bytes.unsafe_set s !pos (Char.unsafe_chr z);
          !pos + 1
        end
        else put_uvarint_at s !pos z
      in
      prev_pc := pc;
      let p =
        if dinfo = 0 then begin
          Bytes.unsafe_set s p '\000';
          p + 1
        end
        else begin
          (* dtag = (bytes << 1) | is_write: nonzero, < 0x80, one byte. *)
          Bytes.unsafe_set s p (Char.unsafe_chr (dinfo land 0x1F));
          let addr = dinfo lsr 5 in
          let p = put_uvarint_at s (p + 1) (zigzag (addr - !prev_daddr)) in
          prev_daddr := addr;
          p
        end
      in
      pos := p
    done;
    !pos

  let payload_check w len =
    if w.version = 1 then Md5 (Digest.subbytes w.scratch 0 len)
    else Crc (Crc32c.bytes w.scratch 0 len)

  (* Checksum + append one chunk; always decrements [outstanding], even
     on failure, so [close]/[abort] never hang.  The first failure is
     parked in [w.error] and re-raised by [close]. *)
  let run_job w raw n =
    (try
       if w.error = None then begin
         let len = encode_chunk w raw n in
         let check = payload_check w len in
         Out_channel.output w.oc w.scratch 0 len;
         Mutex.lock w.lock;
         w.index <-
           {
             start_pc = Array.unsafe_get raw 0;
             n_records = n;
             byte_offset = w.offset;
             check;
           }
           :: w.index;
         w.offset <- w.offset + len;
         Mutex.unlock w.lock
       end
     with e ->
       Mutex.lock w.lock;
       if w.error = None then w.error <- Some e;
       Mutex.unlock w.lock);
    Mutex.lock w.lock;
    if w.spare = None then w.spare <- Some raw;
    w.outstanding <- w.outstanding - 1;
    Condition.broadcast w.drained;
    Mutex.unlock w.lock

  type job = { jw : t; jraw : int array; jn : int }

  (* One daemon domain serves every writer in the process; capture is
     rare and a chunk's work (~0.7ms at the default size) is far smaller
     than the simulation time that produces one, so a single consumer
     keeps up and FIFO order is exactly file order. *)
  let jobs : job Queue.t = Queue.create ()
  let jobs_lock = Mutex.create ()
  let jobs_cond = Condition.create ()

  let flusher_loop () =
    while true do
      Mutex.lock jobs_lock;
      while Queue.is_empty jobs do
        Condition.wait jobs_cond jobs_lock
      done;
      let j = Queue.pop jobs in
      Mutex.unlock jobs_lock;
      run_job j.jw j.jraw j.jn
    done

  (* Guarded by [jobs_lock]: the first enqueue spawns the flusher, once,
     however many domains hand off at the same moment.  Not a [lazy]: a
     second domain forcing one mid-spawn raises
     [CamlinternalLazy.Undefined].  The flag is set only after the spawn
     succeeds, so a failed spawn is retried by the next enqueue. *)
  let flusher_started = ref false

  let enqueue j =
    Mutex.protect jobs_lock (fun () ->
        if not !flusher_started then begin
          ignore (Domain.spawn flusher_loop);
          flusher_started := true
        end;
        Queue.push j jobs;
        Condition.signal jobs_cond)

  (* Read at every [create]: no shared state, so no initialisation race. *)
  let default_flusher () =
    match Sys.getenv_opt "REPRO_TRACE_FLUSHER" with
    | Some "0" -> false
    | Some _ -> true
    | None -> Domain.recommended_domain_count () > 1

  let create ?(version = format_version) ?(chunk_records = default_chunk_records)
      ?flusher ~insn_bytes path =
    if not (List.mem version supported_versions) then
      invalid_arg "Trace.Writer.create: unsupported format version";
    if chunk_records < 1 then
      invalid_arg "Trace.Writer.create: chunk_records < 1";
    if insn_bytes <> 2 && insn_bytes <> 4 then
      invalid_arg "Trace.Writer.create: insn_bytes must be 2 or 4";
    let flusher =
      match flusher with Some b -> b | None -> default_flusher ()
    in
    let tmp = Printf.sprintf "%s.tmp.%d" path (Domain.self () :> int) in
    let oc = Out_channel.open_bin tmp in
    let header = Buffer.create 16 in
    Buffer.add_string header magic;
    Buffer.add_char header (Char.chr version);
    Buffer.add_char header (Char.chr insn_bytes);
    put_uvarint header chunk_records;
    Out_channel.output_string oc (Buffer.contents header);
    (* A full chunk of typical records fits without growing; the scratch
       doubles in the (adversarial) worst case of large deltas. *)
    let initial = min (max (chunk_records * 4) 1024) (1 lsl 20) in
    {
      path;
      tmp;
      oc;
      version;
      chunk_records;
      flusher;
      cur_n = 0;
      index = [];
      offset = Buffer.length header;
      scratch = Bytes.create initial;
      pos = 0;
      limit = initial - max_record_bytes;
      cur_start_pc = 0;
      prev_pc = 0;
      prev_daddr = 0;
      raw = (if flusher then Array.make (2 * chunk_records) 0 else [||]);
      lock = Mutex.create ();
      drained = Condition.create ();
      spare = None;
      outstanding = 0;
      error = None;
    }

  let grow w =
    let s' = Bytes.create (2 * Bytes.length w.scratch) in
    Bytes.blit w.scratch 0 s' 0 w.pos;
    w.scratch <- s';
    w.limit <- Bytes.length s' - max_record_bytes

  (* Direct mode: checksum + append the inline-encoded chunk now. *)
  let flush_chunk w =
    if w.cur_n > 0 then begin
      w.index <-
        {
          start_pc = w.cur_start_pc;
          n_records = w.cur_n;
          byte_offset = w.offset;
          check = payload_check w w.pos;
        }
        :: w.index;
      Out_channel.output w.oc w.scratch 0 w.pos;
      w.offset <- w.offset + w.pos;
      w.pos <- 0;
      w.cur_n <- 0;
      (* Each chunk restarts the delta predictors so it decodes alone. *)
      w.prev_pc <- 0;
      w.prev_daddr <- 0
    end

  (* Flusher mode: hand the full raw buffer to the flusher and swap in
     the spare (or a fresh one the first time) — the capture domain
     never blocks on encode, checksum, or I/O.  A chunk is counted
     outstanding before it is queued (the flusher may finish it at
     once); if queueing fails the count is taken back, so [close] and
     [abort] never wait for a chunk no one will write. *)
  let hand_off w =
    let raw = w.raw and n = w.cur_n in
    w.cur_n <- 0;
    Mutex.lock w.lock;
    w.outstanding <- w.outstanding + 1;
    let next =
      match w.spare with
      | Some a ->
          w.spare <- None;
          a
      | None -> Array.make (2 * w.chunk_records) 0
    in
    Mutex.unlock w.lock;
    w.raw <- next;
    match enqueue { jw = w; jraw = raw; jn = n } with
    | () -> ()
    | exception e ->
        Mutex.lock w.lock;
        w.outstanding <- w.outstanding - 1;
        Condition.broadcast w.drained;
        Mutex.unlock w.lock;
        raise e

  let step_direct w ~pc ~dinfo =
    if w.cur_n = 0 then w.cur_start_pc <- pc;
    if w.pos > w.limit then grow w;
    let s = w.scratch in
    (* Fast path inline: sequential code makes almost every Δpc a single
       varint byte. *)
    let z = zigzag (pc - w.prev_pc) in
    let pos =
      if z < 0x80 then begin
        Bytes.unsafe_set s w.pos (Char.unsafe_chr z);
        w.pos + 1
      end
      else put_uvarint_at s w.pos z
    in
    w.prev_pc <- pc;
    let pos =
      if dinfo = 0 then begin
        Bytes.unsafe_set s pos '\000';
        pos + 1
      end
      else begin
        (* dtag = (bytes << 1) | is_write: nonzero, < 0x80, one byte. *)
        Bytes.unsafe_set s pos (Char.unsafe_chr (dinfo land 0x1F));
        let addr = dinfo lsr 5 in
        let pos = put_uvarint_at s (pos + 1) (zigzag (addr - w.prev_daddr)) in
        w.prev_daddr <- addr;
        pos
      end
    in
    w.pos <- pos;
    w.cur_n <- w.cur_n + 1;
    if w.cur_n = w.chunk_records then flush_chunk w

  let step w ~pc ~dinfo =
    if not w.flusher then step_direct w ~pc ~dinfo
    else begin
      let raw = w.raw in
      let i = 2 * w.cur_n in
      Array.unsafe_set raw i pc;
      Array.unsafe_set raw (i + 1) dinfo;
      let n = w.cur_n + 1 in
      w.cur_n <- n;
      if n = w.chunk_records then hand_off w
    end

  let drain w =
    Mutex.lock w.lock;
    while w.outstanding > 0 do
      Condition.wait w.drained w.lock
    done;
    Mutex.unlock w.lock

  let close w =
    if w.cur_n > 0 then if w.flusher then hand_off w else flush_chunk w;
    drain w;
    (match w.error with
    | Some e ->
        (try Out_channel.close w.oc with Sys_error _ -> ());
        (try Sys.remove w.tmp with Sys_error _ -> ());
        raise e
    | None -> ());
    let footer_offset = w.offset in
    let footer = Buffer.create 256 in
    let chunks = List.rev w.index in
    put_uvarint footer (List.length chunks);
    put_uvarint footer
      (List.fold_left (fun acc c -> acc + c.n_records) 0 chunks);
    List.iter
      (fun c ->
        put_uvarint footer c.byte_offset;
        put_uvarint footer c.n_records;
        put_uvarint footer c.start_pc;
        match c.check with
        | Md5 d -> Buffer.add_string footer d
        | Crc crc -> put_u32_le footer crc)
      chunks;
    (* v2 seals the footer itself with a CRC, so open-time validation is
       one pass over these few bytes and never touches the payload. *)
    if w.version <> 1 then
      put_u32_le footer (Crc32c.string (Buffer.contents footer));
    let tl = Bytes.create 8 in
    Bytes.set_int64_le tl 0 (Int64.of_int footer_offset);
    Buffer.add_bytes footer tl;
    Buffer.add_string footer magic_end;
    Out_channel.output_string w.oc (Buffer.contents footer);
    Out_channel.close w.oc;
    Sys.rename w.tmp w.path

  let abort w =
    (* Outstanding chunks still reference [oc]; let them finish (their
       bytes go to the tmp file we are about to delete). *)
    drain w;
    (try Out_channel.close w.oc with Sys_error _ -> ());
    try Sys.remove w.tmp with Sys_error _ -> ()
end

module Reader = struct
  type chunk = {
    start_pc : int;
    n_records : int;
    byte_offset : int;
    byte_length : int;
  }

  (* The file is mapped read-only and shared: decode reads straight from
     the page cache, so opening a trace costs structural validation (one
     pass over the footer index) and no heap copy of the payload.
     Writers never mutate a published trace (they write a temp file and
     rename), so the mapping is stable; unlinking a mapped trace is safe
     on POSIX (the pages stay valid until unmap). *)
  type buf =
    (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    data : buf;  (* whole structurally-validated file; never mutated *)
    version : int;
    insn_bytes : int;
    chunk_records : int;
    total : int;
    chunks : chunk array;
    crcs : int array;  (* v2: per-chunk CRC-32C; [||] for v1 *)
    (* First-touch verification state (v2): slot i flips to '\001' once
       chunk i's payload CRC has been checked against the footer.  v1
       verifies every chunk at open (MD5 over the whole file), so its
       slots start verified.  Writes are idempotent single-byte stores
       of the same value, so concurrent domains sharing a reader race
       only into redundant verification, never into skipping one. *)
    verified : Bytes.t;
  }

  exception Bad of string
  exception Corrupt of string

  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt
  let ba_get (data : buf) i = Bigarray.Array1.get data i

  let sub_string (data : buf) pos len =
    String.init len (fun i -> ba_get data (pos + i))

  let get_int64_le (data : buf) pos =
    let b = Bytes.create 8 in
    for i = 0 to 7 do
      Bytes.unsafe_set b i (ba_get data (pos + i))
    done;
    Bytes.get_int64_le b 0

  let get_u32_le (data : buf) pos =
    Char.code (ba_get data pos)
    lor (Char.code (ba_get data (pos + 1)) lsl 8)
    lor (Char.code (ba_get data (pos + 2)) lsl 16)
    lor (Char.code (ba_get data (pos + 3)) lsl 24)

  let get_uvarint (data : buf) pos =
    let rec go shift acc =
      if shift > 56 then invalid_arg "varint overflow";
      let c = Char.code (ba_get data !pos) in
      incr pos;
      let acc = acc lor ((c land 0x7F) lsl shift) in
      if c < 0x80 then acc else go (shift + 7) acc
    in
    go 0 0

  (* Fold the raw per-version index entries into validated chunk
     descriptors: offsets in order and in range, no empty chunks, record
     counts summing to the advertised total. *)
  let build_chunks ~header_end ~footer_offset raw =
    let n_chunks = Array.length raw in
    Array.mapi
      (fun i (byte_offset, n_records, start_pc) ->
        let next =
          if i + 1 < n_chunks then
            let o, _, _ = raw.(i + 1) in
            o
          else footer_offset
        in
        if byte_offset < header_end || next < byte_offset then
          bad "chunk %d offsets out of order" i;
        if n_records < 1 then bad "chunk %d empty" i;
        { start_pc; n_records; byte_offset; byte_length = next - byte_offset })
      raw

  (* [digest_chunk off len] checksums a byte range of the underlying
     file (v1 open-time verification).  It reads through the file
     descriptor rather than the mapping: Digest.channel runs the MD5 C
     stub straight over the channel buffer (page-cache speed), where
     hand-copying bytes out of the Bigarray first costs a per-byte OCaml
     loop — measurably slower at open time for multi-megabyte traces. *)
  let validate ~digest_chunk (data : buf) =
    let len = Bigarray.Array1.dim data in
    if len < header_bytes + trailer_bytes then bad "truncated (%d bytes)" len;
    if sub_string data 0 (String.length magic) <> magic then bad "bad magic";
    let version = Char.code (ba_get data (String.length magic)) in
    if not (List.mem version supported_versions) then
      bad "format version %d (want one of 1, 2)" version;
    let insn_bytes = Char.code (ba_get data (String.length magic + 1)) in
    if insn_bytes <> 2 && insn_bytes <> 4 then
      bad "bad insn_bytes %d" insn_bytes;
    let pos = ref header_bytes in
    let chunk_records = get_uvarint data pos in
    let header_end = !pos in
    if
      sub_string data (len - String.length magic_end) (String.length magic_end)
      <> magic_end
    then bad "bad end magic";
    let footer_offset = Int64.to_int (get_int64_le data (len - trailer_bytes)) in
    if footer_offset < header_end || footer_offset > len - trailer_bytes then
      bad "footer offset out of range";
    let pos = ref footer_offset in
    let n_chunks = get_uvarint data pos in
    let total = get_uvarint data pos in
    (* Each index entry is >= 19 (v1) / 7 (v2) bytes; a corrupt count
       cannot pass this, so no giant allocation happens below. *)
    let min_entry = if version = 1 then 19 else 7 in
    if n_chunks < 0 || n_chunks * min_entry > len - footer_offset then
      bad "implausible chunk count %d" n_chunks;
    let chunks, crcs, verified =
      if version = 1 then begin
        (* v1: 16-byte MD5 per entry, verified right here — open time is
           O(file), exactly the historical semantics. *)
        let raw =
          Array.init n_chunks (fun _ ->
              let byte_offset = get_uvarint data pos in
              let n_records = get_uvarint data pos in
              let start_pc = get_uvarint data pos in
              if !pos + 16 > len then bad "truncated index";
              let digest = sub_string data !pos 16 in
              pos := !pos + 16;
              (byte_offset, n_records, start_pc, digest))
        in
        if !pos <> len - trailer_bytes then bad "index size mismatch";
        let chunks =
          build_chunks ~header_end ~footer_offset
            (Array.map (fun (o, n, s, _) -> (o, n, s)) raw)
        in
        Array.iteri
          (fun i c ->
            let _, _, _, digest = raw.(i) in
            if digest_chunk c.byte_offset c.byte_length <> digest then
              bad "chunk %d checksum mismatch" i)
          chunks;
        (chunks, [||], Bytes.make (max n_chunks 1) '\001')
      end
      else begin
        (* v2: 4-byte CRC-32C per entry plus a CRC over the footer
           itself.  Only the footer is read at open — payload CRCs are
           deferred to each chunk's first decode — so open time is
           O(footer), not O(file). *)
        let raw =
          Array.init n_chunks (fun _ ->
              let byte_offset = get_uvarint data pos in
              let n_records = get_uvarint data pos in
              let start_pc = get_uvarint data pos in
              if !pos + 4 > len then bad "truncated index";
              let crc = get_u32_le data !pos in
              pos := !pos + 4;
              (byte_offset, n_records, start_pc, crc))
        in
        if !pos + 4 <> len - trailer_bytes then bad "index size mismatch";
        let footer_crc = get_u32_le data !pos in
        if Crc32c.bigstring data footer_offset (!pos - footer_offset)
           <> footer_crc
        then bad "footer checksum mismatch";
        let chunks =
          build_chunks ~header_end ~footer_offset
            (Array.map (fun (o, n, s, _) -> (o, n, s)) raw)
        in
        ( chunks,
          Array.map (fun (_, _, _, crc) -> crc) raw,
          Bytes.make (max n_chunks 1) '\000' )
      end
    in
    let sum = Array.fold_left (fun acc c -> acc + c.n_records) 0 chunks in
    if sum <> total then bad "record count mismatch";
    { data; version; insn_bytes; chunk_records; total; chunks; crcs; verified }

  let open_file path =
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error (e, _, _) ->
      Error (path ^ ": " ^ Unix.error_message e)
    | exception Sys_error e -> Error e
    | fd ->
      (* The channel adopts the fd; closing it at the end closes the fd.
         The mapping taken below outlives both. *)
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> In_channel.close ic)
        (fun () ->
          match
            let size = (Unix.fstat fd).Unix.st_size in
            if size < header_bytes + trailer_bytes then
              (* Too small to be a trace — and zero bytes cannot be
                 mapped. *)
              bad "truncated (%d bytes)" size;
            let data =
              Bigarray.array1_of_genarray
                (Unix.map_file fd Bigarray.char Bigarray.c_layout false
                   [| size |])
            in
            let digest_chunk off len =
              In_channel.seek ic (Int64.of_int off);
              Digest.channel ic len
            in
            validate ~digest_chunk data
          with
          | t -> Ok t
          | exception Unix.Unix_error (e, _, _) ->
            Error (path ^ ": " ^ Unix.error_message e)
          | exception Bad reason -> Error (path ^ ": " ^ reason)
          | exception Invalid_argument _ -> Error (path ^ ": truncated")
          | exception End_of_file -> Error (path ^ ": truncated"))

  let version t = t.version
  let insn_bytes t = t.insn_bytes
  let chunk_records t = t.chunk_records
  let n_records t = t.total
  let n_chunks t = Array.length t.chunks
  let byte_size t = Bigarray.Array1.dim t.data
  let chunk t i = t.chunks.(i)

  (* First-touch payload verification (v2; v1 slots are pre-set).  The
     CRC runs over the mapping, so it stays valid after the file is
     unlinked, and a chunk that replays n times is checksummed once. *)
  let ensure_verified t i =
    if Bytes.unsafe_get t.verified i = '\000' then begin
      let c = Array.unsafe_get t.chunks i in
      if Crc32c.bigstring t.data c.byte_offset c.byte_length
         <> Array.unsafe_get t.crcs i
      then
        raise
          (Corrupt (Printf.sprintf "chunk %d crc32c mismatch" i));
      Bytes.unsafe_set t.verified i '\001'
    end

  let verify t =
    match
      for i = 0 to Array.length t.chunks - 1 do
        ensure_verified t i
      done
    with
    | () -> Ok ()
    | exception Corrupt reason -> Error reason

  let iter_chunk t i f =
    ensure_verified t i;
    let c = t.chunks.(i) in
    let data = t.data in
    (* Replay is the hot loop, so decode with unchecked reads and a
       single-byte fast path: the chunk checksum has been verified (at
       open for v1, just above for v2), so the payload is byte-identical
       to what the writer emitted and the decoder cannot run past it. *)
    let pos = ref c.byte_offset in
    let uvarint () =
      let b = Char.code (Bigarray.Array1.unsafe_get data !pos) in
      incr pos;
      if b < 0x80 then b
      else begin
        let acc = ref (b land 0x7F) in
        let shift = ref 7 in
        let cont = ref true in
        while !cont do
          if !shift > 56 then invalid_arg "varint overflow";
          let b = Char.code (Bigarray.Array1.unsafe_get data !pos) in
          incr pos;
          acc := !acc lor ((b land 0x7F) lsl !shift);
          shift := !shift + 7;
          cont := b >= 0x80
        done;
        !acc
      end
    in
    let pc = ref 0 in
    let daddr = ref 0 in
    for _ = 1 to c.n_records do
      pc := !pc + unzigzag (uvarint ());
      let dtag = uvarint () in
      let dinfo =
        if dtag = 0 then 0
        else begin
          daddr := !daddr + unzigzag (uvarint ());
          (!daddr lsl 5) lor dtag
        end
      in
      f ~pc:!pc ~dinfo
    done

  let iter t f =
    for i = 0 to Array.length t.chunks - 1 do
      iter_chunk t i f
    done
end

(* In-place migration of a stored v1 trace to the current format.  The
   chunk payload encoding is version-independent — only the header's
   version byte and the footer change — so the payload bytes are copied
   verbatim from the (MD5-verified) mapping and a fresh CRC-32C footer
   is computed over them.  tmp + rename like the writer, and the
   migrated file is re-opened and fully re-verified before it replaces
   the original. *)
let migrate path =
  match Reader.open_file path with
  | Error e -> Error e
  | Ok rd ->
    if rd.Reader.version = format_version then Ok false
    else begin
      let tmp = Printf.sprintf "%s.migrate.%d" path (Domain.self () :> int) in
      let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
      match
        Out_channel.with_open_bin tmp (fun oc ->
            let header = Buffer.create 16 in
            Buffer.add_string header magic;
            Buffer.add_char header (Char.chr format_version);
            Buffer.add_char header (Char.chr rd.Reader.insn_bytes);
            put_uvarint header rd.Reader.chunk_records;
            Out_channel.output_string oc (Buffer.contents header);
            let offset = ref (Buffer.length header) in
            let footer = Buffer.create 256 in
            put_uvarint footer (Array.length rd.Reader.chunks);
            put_uvarint footer rd.Reader.total;
            Array.iter
              (fun (c : Reader.chunk) ->
                Out_channel.output_string oc
                  (Reader.sub_string rd.Reader.data c.Reader.byte_offset
                     c.Reader.byte_length);
                put_uvarint footer !offset;
                put_uvarint footer c.Reader.n_records;
                put_uvarint footer c.Reader.start_pc;
                put_u32_le footer
                  (Crc32c.bigstring rd.Reader.data c.Reader.byte_offset
                     c.Reader.byte_length);
                offset := !offset + c.Reader.byte_length)
              rd.Reader.chunks;
            put_u32_le footer (Crc32c.string (Buffer.contents footer));
            let tl = Bytes.create 8 in
            Bytes.set_int64_le tl 0 (Int64.of_int !offset);
            Buffer.add_bytes footer tl;
            Buffer.add_string footer magic_end;
            Out_channel.output_string oc (Buffer.contents footer))
      with
      | exception Sys_error e ->
        cleanup ();
        Error e
      | () -> (
        match Reader.open_file tmp with
        | Error e ->
          cleanup ();
          Error ("migrated file invalid: " ^ e)
        | Ok rd2 -> (
          match Reader.verify rd2 with
          | Error e ->
            cleanup ();
            Error ("migrated file invalid: " ^ e)
          | Ok () -> (
            match Sys.rename tmp path with
            | () -> Ok true
            | exception Sys_error e ->
              cleanup ();
              Error e)))
    end
