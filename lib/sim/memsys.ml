type cache_config = {
  size_bytes : int;
  block_bytes : int;
  sub_block_bytes : int;
}

let cache_config ~size ~block ~sub =
  let pow2 n = n > 0 && n land (n - 1) = 0 in
  let fail fmt = Printf.ksprintf invalid_arg ("Memsys.cache_config: " ^^ fmt) in
  if not (pow2 size) then fail "size %d is not a positive power of two" size;
  if not (pow2 block) then fail "block %d is not a positive power of two" block;
  if not (pow2 sub) then
    fail "sub-block %d is not a positive power of two" sub;
  if sub > block then fail "sub-block %d exceeds block %d" sub block;
  if block > size then fail "block %d exceeds cache size %d" block size;
  { size_bytes = size; block_bytes = block; sub_block_bytes = sub }

type cache_stats = { accesses : int; misses : int; words_transferred : int }

let miss_rate s =
  if s.accesses = 0 then 0. else float_of_int s.misses /. float_of_int s.accesses

type nocache = { irequests : int; drequests : int }

(* The cacheless machine's one-block instruction buffer (paper Section
   4.2), shared by the replay engine, its sequential oracle and the
   cycle-accurate pipeline. *)
module Fetchbuf = struct
  type t = { shift : int; mutable block : int; mutable requests : int }

  let make ~bus_bytes =
    if not (Repro_util.Bitops.is_pow2 bus_bytes) then
      invalid_arg "Memsys.Fetchbuf.make: bus width is not a power of two";
    { shift = Repro_util.Bitops.log2 bus_bytes; block = -1; requests = 0 }

  (* Divides where [fetch_events] shifts: the sequential oracle fetches
     through this one, so the two stay independent. *)
  let fetch b ~addr =
    let block = addr / (1 lsl b.shift) in
    if block = b.block then false
    else begin
      b.block <- block;
      b.requests <- b.requests + 1;
      true
    end

  (* One fetch per traced pc; bit 0 marks a wide (4-byte) instruction,
     whose tail halfword may need a second request. *)
  let fetch_events b pcs =
    let shift = b.shift in
    let block = ref b.block in
    let requests = ref b.requests in
    for k = 0 to Array.length pcs - 1 do
      let pc = Array.unsafe_get pcs k in
      let addr = pc land lnot 1 in
      let first = addr lsr shift in
      if first <> !block then begin
        block := first;
        incr requests
      end;
      if pc land 1 <> 0 then begin
        let tail = (addr + 2) lsr shift in
        if tail <> !block then begin
          block := tail;
          incr requests
        end
      end
    done;
    b.block <- !block;
    b.requests <- !requests

  let requests b = b.requests
end

let data_requests ~bus_bytes ~bytes = (bytes + bus_bytes - 1) / bus_bytes

let nocache_cycles ~wait_states (r : Machine.result) nc =
  r.Machine.ic + r.Machine.interlocks
  + (wait_states * (nc.irequests + nc.drequests))

(* Instruction-fetch events. -------------------------------------------------

   A chunk's instruction stream reaches the replay engine as an int array
   of events.  Under [count_bits = k], word [w] is the traced pc [w lsr k]
   (bit 0 the wide mark) followed by [w land (2^k - 1)] repeat fetches in
   the same aligned granule; with [k = 0] the raw traced pcs are an event
   array of one fetch per word. *)

let fetch_event_bits = 8

(* A fetch whose span lies in one aligned granule extends the open run
   there (while the count field holds it) or opens a new run at its
   wide-stripped pc; a fetch whose span crosses a granule boundary is a
   straddle event of its own, at its traced pc, and closes the run.  The
   count is stored minus one, so extending a run adds 1 to its word. *)
let fetch_events ~insn_bytes ~granule pcs =
  let shift = if granule = 8 then 3 else 2 in
  let n = Array.length pcs in
  let ev = Array.make (max n 1) 0 in
  let m = ref 0 in
  let run_g = ref (-1) in
  let run_n = ref 0 in
  let max_count = 1 lsl fetch_event_bits in
  (* Nonzero iff some pc is negative or too wide to pack exactly. *)
  let too_wide = ref 0 in
  for k = 0 to n - 1 do
    let pc = Array.unsafe_get pcs k in
    too_wide := !too_wide lor (pc lsr (Sys.int_size - 1 - fetch_event_bits));
    let addr = pc land lnot 1 in
    let g = addr lsr shift in
    if (addr + (if pc land 1 <> 0 then 4 else insn_bytes) - 1) lsr shift <> g
    then begin
      Array.unsafe_set ev !m (pc lsl fetch_event_bits);
      incr m;
      run_g := -1
    end
    else if g = !run_g && !run_n < max_count then begin
      Array.unsafe_set ev (!m - 1) (Array.unsafe_get ev (!m - 1) + 1);
      incr run_n
    end
    else begin
      Array.unsafe_set ev !m (addr lsl fetch_event_bits);
      incr m;
      run_g := g;
      run_n := 1
    end
  done;
  if !too_wide <> 0 then [||] else Array.sub ev 0 !m

(* Direct-mapped sub-blocked cache. ----------------------------------------- *)

module Cache = struct
  (* All three geometry parameters are powers of two (enforced by
     {!cache_config}), so addressing is pure shift/mask: for byte address
     [a], the global sub-block number is [a lsr sub_shift], the block is
     [gs lsr sub_bits], the set is [block land set_mask] and the
     sub-block-within-block is [gs land sub_mask].  The per-set valid
     bits live in one flat bitset (bit [(set lsl sub_bits) lor sub]). *)
  type t = {
    cfg : cache_config;
    sets : int;
    subs_per_block : int;
    block_shift : int;  (* log2 block_bytes *)
    sub_shift : int;  (* log2 sub_block_bytes *)
    sub_bits : int;  (* log2 subs_per_block *)
    set_mask : int;  (* sets - 1 *)
    sub_mask : int;  (* subs_per_block - 1 *)
    sub_words : int;  (* words fetched per sub-block fill *)
    tags : int array;
    valid : Bytes.t;  (* flat valid bitset, subs_per_block bits per set *)
    mutable accesses : int;
    mutable misses : int;
    mutable words : int;
  }

  let ilog2 n =
    let rec go k n = if n <= 1 then k else go (k + 1) (n lsr 1) in
    go 0 n

  let make cfg =
    let sets = max 1 (cfg.size_bytes / cfg.block_bytes) in
    let subs = max 1 (cfg.block_bytes / cfg.sub_block_bytes) in
    {
      cfg;
      sets;
      subs_per_block = subs;
      block_shift = ilog2 cfg.block_bytes;
      sub_shift = ilog2 cfg.sub_block_bytes;
      sub_bits = ilog2 subs;
      set_mask = sets - 1;
      sub_mask = subs - 1;
      sub_words = cfg.sub_block_bytes / 4;
      tags = Array.make sets (-1);
      valid = Bytes.make (((sets * subs) + 7) lsr 3) '\000';
      accesses = 0;
      misses = 0;
      words = 0;
    }

  (* Flat bitset helpers. *)
  let[@inline] bit_is_set v i =
    Char.code (Bytes.unsafe_get v (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let[@inline] set_bit v i =
    let byte = i lsr 3 in
    Bytes.unsafe_set v byte
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get v byte) lor (1 lsl (i land 7))))

  (* Invalidate every sub-block bit of one set.  With >= 8 subs the set's
     bits are whole bytes (the bit base is subs-aligned); with fewer they
     are a contiguous field inside one byte. *)
  let clear_set c set =
    let base = set lsl c.sub_bits in
    if c.subs_per_block >= 8 then
      Bytes.fill c.valid (base lsr 3) (c.subs_per_block lsr 3) '\000'
    else begin
      let byte = base lsr 3 in
      let mask =
        lnot (((1 lsl c.subs_per_block) - 1) lsl (base land 7)) land 0xFF
      in
      Bytes.unsafe_set c.valid byte
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get c.valid byte) land mask))
    end

  let fetch_sub c base sub =
    let i = base lor sub in
    if not (bit_is_set c.valid i) then begin
      set_bit c.valid i;
      c.words <- c.words + c.sub_words
    end

  (* One sub-block touch of a wider access: replace on tag mismatch, fill
     the touched sub (plus the wrap-around prefetch on reads) when
     invalid. *)
  let touch c ~is_read gs missed =
    let block = gs lsr c.sub_bits in
    let set = block land c.set_mask in
    let sub = gs land c.sub_mask in
    let base = set lsl c.sub_bits in
    if Array.unsafe_get c.tags set <> block then begin
      Array.unsafe_set c.tags set block;
      clear_set c set;
      missed := true;
      fetch_sub c base sub;
      if is_read then fetch_sub c base ((sub + 1) land c.sub_mask)
    end
    else if not (bit_is_set c.valid (base lor sub)) then begin
      missed := true;
      fetch_sub c base sub;
      if is_read then fetch_sub c base ((sub + 1) land c.sub_mask)
    end

  (* One access event covering [addr, addr+bytes); a read miss prefetches
     the following sub-block (wrapping within the block).  The common case
     — the event inside one sub-block — takes the branch-free address
     path; spans fall back to the per-sub loop. *)
  let access c ~is_read ~addr ~bytes =
    c.accesses <- c.accesses + 1;
    let g0 = addr lsr c.sub_shift in
    let g1 = (addr + bytes - 1) lsr c.sub_shift in
    if g0 = g1 then begin
      let block = g0 lsr c.sub_bits in
      let set = block land c.set_mask in
      let sub = g0 land c.sub_mask in
      let base = set lsl c.sub_bits in
      if Array.unsafe_get c.tags set = block && bit_is_set c.valid (base lor sub)
      then false
      else begin
        if Array.unsafe_get c.tags set <> block then begin
          Array.unsafe_set c.tags set block;
          clear_set c set
        end;
        fetch_sub c base sub;
        if is_read then fetch_sub c base ((sub + 1) land c.sub_mask);
        c.misses <- c.misses + 1;
        true
      end
    end
    else begin
      let missed = ref false in
      for gs = g0 to g1 do
        touch c ~is_read gs missed
      done;
      if !missed then c.misses <- c.misses + 1;
      !missed
    end

  let stats c =
    { accesses = c.accesses; misses = c.misses; words_transferred = c.words }

  let[@inline] hit ~tags ~valid ~sub_bits ~set_mask ~sub_mask gs =
    let block = gs lsr sub_bits in
    let set = block land set_mask in
    Array.unsafe_get tags set = block
    && bit_is_set valid ((set lsl sub_bits) lor (gs land sub_mask))

  (* The warm batch loops.  The geometry is hoisted out of the loop and
     an access inside one sub-block whose tag and valid bit are in place
     is a hit counted locally; a miss or a span takes {!access}. *)

  (* An event's first fetch is a full access; its repeats lie in the
     same sub-block (the builder only forms runs inside one aligned
     granule no larger than the sub-block), which that first access left
     valid, so they are hits and only count. *)
  let fetch_events c events ~count_bits ~insn_bytes =
    let tags = c.tags and valid = c.valid in
    let sub_shift = c.sub_shift and sub_bits = c.sub_bits in
    let set_mask = c.set_mask and sub_mask = c.sub_mask in
    let repeat_mask = (1 lsl count_bits) - 1 in
    let hits = ref 0 in
    for k = 0 to Array.length events - 1 do
      let w = Array.unsafe_get events k in
      let pc = w lsr count_bits in
      hits := !hits + (w land repeat_mask);
      (* Bit 0 of a traced pc marks a wide (4-byte) instruction. *)
      let addr = pc land lnot 1 in
      let bytes = if pc land 1 <> 0 then 4 else insn_bytes in
      let g0 = addr lsr sub_shift in
      if
        (addr + bytes - 1) lsr sub_shift = g0
        && hit ~tags ~valid ~sub_bits ~set_mask ~sub_mask g0
      then incr hits
      else ignore (access c ~is_read:true ~addr ~bytes)
    done;
    c.accesses <- c.accesses + !hits

  type data_counts = {
    mutable reads : int;
    mutable read_misses : int;
    mutable writes : int;
    mutable write_misses : int;
  }

  let data_counts () =
    { reads = 0; read_misses = 0; writes = 0; write_misses = 0 }

  let data c (n : data_counts) dinfos =
    let tags = c.tags and valid = c.valid in
    let sub_shift = c.sub_shift and sub_bits = c.sub_bits in
    let set_mask = c.set_mask and sub_mask = c.sub_mask in
    let hits = ref 0 and writes = ref 0 in
    for k = 0 to Array.length dinfos - 1 do
      let d = Array.unsafe_get dinfos k in
      let is_write = d land 1 in
      writes := !writes + is_write;
      let bytes = (d lsr 1) land 0xF in
      let addr = d lsr 5 in
      let g0 = addr lsr sub_shift in
      if
        (addr + bytes - 1) lsr sub_shift = g0
        && hit ~tags ~valid ~sub_bits ~set_mask ~sub_mask g0
      then incr hits
      else if access c ~is_read:(is_write = 0) ~addr ~bytes then
        if is_write = 1 then n.write_misses <- n.write_misses + 1
        else n.read_misses <- n.read_misses + 1
    done;
    c.accesses <- c.accesses + !hits;
    n.writes <- n.writes + !writes;
    n.reads <- n.reads + Array.length dinfos - !writes
end

type cached = {
  icache : cache_stats;
  dcache_read : cache_stats;
  dcache_write : cache_stats;
}

let cached_cycles ~miss_penalty (r : Machine.result) (c : cached) =
  r.Machine.ic + r.Machine.interlocks
  + miss_penalty
    * (c.icache.misses + c.dcache_read.misses + c.dcache_write.misses)

let cpi ~cycles ~ic = float_of_int cycles /. float_of_int ic

let normalized_cpi ~cycles ~reference_ic =
  float_of_int cycles /. float_of_int reference_ic
