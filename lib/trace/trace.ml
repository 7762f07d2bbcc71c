module Crc32c = Repro_util.Crc32c

let format_version = 2
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

module Writer = struct
  type pending = {
    start_pc : int;
    n_records : int;
    byte_offset : int;
    crc : int;  (* CRC-32C of the chunk payload *)
  }

  (* [step] delta/varint-encodes each record into [scratch] inline; each
     full chunk is checksummed and appended synchronously. *)
  type t = {
    path : string;
    tmp : string;
    oc : Out_channel.t;
    chunk_records : int;
    mutable cur_n : int;
    mutable index : pending list;  (* reversed *)
    mutable offset : int;  (* of the next chunk, from file start *)
    mutable scratch : Bytes.t;
    mutable pos : int;  (* current chunk payload is scratch[0, pos) *)
    mutable limit : int;  (* scratch length - max_record_bytes headroom *)
    mutable cur_start_pc : int;
    mutable prev_pc : int;
    mutable prev_daddr : int;
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

  let create ?(chunk_records = default_chunk_records) ~insn_bytes path =
    if chunk_records < 1 then
      invalid_arg "Trace.Writer.create: chunk_records < 1";
    if insn_bytes <> 2 && insn_bytes <> 4 then
      invalid_arg "Trace.Writer.create: insn_bytes must be 2 or 4";
    (* Unique per process and domain: two processes sharing one cache
       both run on domain 0. *)
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Domain.self () :> int)
    in
    let oc = Out_channel.open_bin tmp in
    let header = Buffer.create 16 in
    Buffer.add_string header magic;
    Buffer.add_char header (Char.chr format_version);
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
      chunk_records;
      cur_n = 0;
      index = [];
      offset = Buffer.length header;
      scratch = Bytes.create initial;
      pos = 0;
      limit = initial - max_record_bytes;
      cur_start_pc = 0;
      prev_pc = 0;
      prev_daddr = 0;
    }

  let grow w =
    let s' = Bytes.create (2 * Bytes.length w.scratch) in
    Bytes.blit w.scratch 0 s' 0 w.pos;
    w.scratch <- s';
    w.limit <- Bytes.length s' - max_record_bytes

  let flush_chunk w =
    if w.cur_n > 0 then begin
      w.index <-
        {
          start_pc = w.cur_start_pc;
          n_records = w.cur_n;
          byte_offset = w.offset;
          crc = Crc32c.bytes w.scratch 0 w.pos;
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

  let step w ~pc ~dinfo =
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

  let close w =
    flush_chunk w;
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
        put_u32_le footer c.crc)
      chunks;
    (* The footer is sealed with its own CRC, so open-time validation is
       one pass over these few bytes and never touches the payload. *)
    put_u32_le footer (Crc32c.string (Buffer.contents footer));
    let tl = Bytes.create 8 in
    Bytes.set_int64_le tl 0 (Int64.of_int footer_offset);
    Buffer.add_bytes footer tl;
    Buffer.add_string footer magic_end;
    Out_channel.output_string w.oc (Buffer.contents footer);
    Out_channel.close w.oc;
    Sys.rename w.tmp w.path

  let abort w =
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
    insn_bytes : int;
    chunk_records : int;
    total : int;
    chunks : chunk array;
    crcs : int array;  (* per-chunk payload CRC-32C, from the footer *)
    (* First-touch verification state: slot i flips to '\001' once chunk
       i's payload CRC has been checked against the footer.  Writes are
       idempotent single-byte stores of the same value, so concurrent
       domains sharing a reader race only into redundant verification,
       never into skipping one. *)
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

  (* Only the footer is read at open — payload CRCs are deferred to each
     chunk's first decode — so open time is O(footer), not O(file). *)
  let validate (data : buf) =
    let len = Bigarray.Array1.dim data in
    if len < header_bytes + trailer_bytes then bad "truncated (%d bytes)" len;
    if sub_string data 0 (String.length magic) <> magic then bad "bad magic";
    let version = Char.code (ba_get data (String.length magic)) in
    if version <> format_version then
      bad "format version %d (want %d)" version format_version;
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
    (* Each index entry is >= 7 bytes; a corrupt count cannot pass this,
       so no giant allocation happens below. *)
    if n_chunks < 0 || n_chunks * 7 > len - footer_offset then
      bad "implausible chunk count %d" n_chunks;
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
    if Crc32c.bigstring data footer_offset (!pos - footer_offset) <> footer_crc
    then bad "footer checksum mismatch";
    (* Offsets in order and in range, no empty chunks, record counts
       summing to the advertised total. *)
    let chunks =
      Array.mapi
        (fun i (byte_offset, n_records, start_pc, _) ->
          let next =
            if i + 1 < n_chunks then
              let o, _, _, _ = raw.(i + 1) in
              o
            else footer_offset
          in
          if byte_offset < header_end || next < byte_offset then
            bad "chunk %d offsets out of order" i;
          if n_records < 1 then bad "chunk %d empty" i;
          { start_pc; n_records; byte_offset; byte_length = next - byte_offset })
        raw
    in
    let sum = Array.fold_left (fun acc c -> acc + c.n_records) 0 chunks in
    if sum <> total then bad "record count mismatch";
    {
      data;
      insn_bytes;
      chunk_records;
      total;
      chunks;
      crcs = Array.map (fun (_, _, _, crc) -> crc) raw;
      verified = Bytes.make (max n_chunks 1) '\000';
    }

  let open_file path =
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error (e, _, _) ->
      Error (path ^ ": " ^ Unix.error_message e)
    | fd ->
      (* The mapping taken below outlives the descriptor. *)
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          match
            let size = (Unix.fstat fd).Unix.st_size in
            if size < header_bytes + trailer_bytes then
              (* Too small to be a trace — and zero bytes cannot be
                 mapped. *)
              bad "truncated (%d bytes)" size;
            validate
              (Bigarray.array1_of_genarray
                 (Unix.map_file fd Bigarray.char Bigarray.c_layout false
                    [| size |]))
          with
          | t -> Ok t
          | exception Unix.Unix_error (e, _, _) ->
            Error (path ^ ": " ^ Unix.error_message e)
          | exception Bad reason -> Error (path ^ ": " ^ reason)
          | exception Invalid_argument _ -> Error (path ^ ": truncated"))

  let insn_bytes t = t.insn_bytes
  let chunk_records t = t.chunk_records
  let n_records t = t.total
  let n_chunks t = Array.length t.chunks
  let byte_size t = Bigarray.Array1.dim t.data
  let chunk t i = t.chunks.(i)

  (* First-touch payload verification.  The CRC runs over the mapping, so
     it stays valid after the file is unlinked, and a chunk that replays
     n times is checksummed once. *)
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
       single-byte fast path: the chunk checksum has just been verified,
       so the payload is byte-identical to what the writer emitted and
       the decoder cannot run past it. *)
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
