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
   4.2), shared by the chunk engine, its sequential oracle and the
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
  let last_block b = b.block
end

let data_requests ~bus_bytes ~bytes = (bytes + bus_bytes - 1) / bus_bytes

let nocache_cycles ~wait_states (r : Machine.result) nc =
  r.Machine.ic + r.Machine.interlocks
  + (wait_states * (nc.irequests + nc.drequests))

(* Instruction-fetch events. -------------------------------------------------

   A chunk's instruction stream reaches the chunk engines as an int array
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

  (* Flat bitset helpers (also used for the chunk engine's per-set and
     per-sub side bitsets). *)
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

  (* Chunk-parallel engine. -------------------------------------------------

     A chunk automaton simulates its slice of the access stream cold (tags
     -1, all valid bits clear) and logs just enough for a later sequential
     merge to reconstruct the exact warm-start counters:

     - [known] (per set): a genuine replacement happened — the set's first
       in-chunk touch pinned cold tag == true tag, so when a later touch
       replaces that tag both worlds replace identically and the set's
       cold state equals its true state from then on.
     - [direct] (per set x sub): the sub-block was touched directly.  On an
       unknown set no replacement has happened, so a directly-touched bit
       is valid in both worlds and a repeat touch is a hit in both.

     A touch whose outcome could still depend on the carried-in state is
     exactly one with [not known(set) && not direct(set, sub)]; events
     containing such a touch are logged (packed 3 ints: the access word,
     recompute/cold-miss masks, cold-fetch masks).  The merge replays only
     the logged events against the true carried state, recomputing the
     flagged touches and trusting the recorded cold outcome for the rest,
     then overwrites the carried state of every [known] set with the
     chunk's cold end state.  Unknown sets are exact without overwrite:
     every true-state-changing touch on them was recomputed. *)

  type split = {
    mutable racc : int;
    mutable rmiss : int;
    mutable wacc : int;
    mutable wmiss : int;
    mutable fwords : int;
  }

  let split_make () = { racc = 0; rmiss = 0; wacc = 0; wmiss = 0; fwords = 0 }

  type auto = {
    a : t;  (* cold automaton; its own counters stay unused *)
    known : Bytes.t;  (* per-set: cold state equals true state *)
    direct : Bytes.t;  (* per (set, sub): touched directly this chunk *)
    asp : split;
    mutable log : int array;
    mutable log_n : int;
  }

  let chunk_start cfg =
    let a = make cfg in
    {
      a;
      known = Bytes.make ((a.sets + 7) lsr 3) '\000';
      direct = Bytes.make (Bytes.length a.valid) '\000';
      asp = split_make ();
      log = Array.make 256 0;
      log_n = 0;
    }

  let log_push au w0 w1 w2 =
    let n = au.log_n in
    if n + 3 > Array.length au.log then begin
      let bigger = Array.make (2 * Array.length au.log) 0 in
      Array.blit au.log 0 bigger 0 n;
      au.log <- bigger
    end;
    au.log.(n) <- w0;
    au.log.(n + 1) <- w1;
    au.log.(n + 2) <- w2;
    au.log_n <- n + 3

  (* Cold-simulate the part of one event the settled fast path below does
     not cover (the access itself is counted by the caller), recording
     per-touch masks.  Touch k of the event gets bit [1 lsl k] in: [need]
     (outcome depends on carried state; merge recomputes), [miss] (cold
     miss), [f0]/[f1] (cold filled the touched / the prefetched
     sub-block). *)
  let chunk_touch au ~is_read ~addr ~bytes g0 g1 =
    let c = au.a in
    let sp = au.asp in
    let need = ref 0 in
    let miss = ref 0 in
    let f0 = ref 0 in
    let f1 = ref 0 in
    for k = 0 to g1 - g0 do
      let gs = g0 + k in
      let block = gs lsr c.sub_bits in
      let set = block land c.set_mask in
      let sub = gs land c.sub_mask in
      let base = set lsl c.sub_bits in
      let bit = base lor sub in
      if not (bit_is_set au.known set || bit_is_set au.direct bit) then
        need := !need lor (1 lsl k);
      set_bit au.direct bit;
      if Array.unsafe_get c.tags set <> block then begin
        (* A replacement of a tag the chunk itself installed pins the set:
           cold == true from here on. *)
        if Array.unsafe_get c.tags set >= 0 then set_bit au.known set;
        Array.unsafe_set c.tags set block;
        clear_set c set;
        miss := !miss lor (1 lsl k);
        set_bit c.valid bit;
        sp.fwords <- sp.fwords + c.sub_words;
        f0 := !f0 lor (1 lsl k);
        if is_read then begin
          let p = base lor ((sub + 1) land c.sub_mask) in
          if not (bit_is_set c.valid p) then begin
            set_bit c.valid p;
            sp.fwords <- sp.fwords + c.sub_words;
            f1 := !f1 lor (1 lsl k)
          end
        end
      end
      else if not (bit_is_set c.valid bit) then begin
        miss := !miss lor (1 lsl k);
        set_bit c.valid bit;
        sp.fwords <- sp.fwords + c.sub_words;
        f0 := !f0 lor (1 lsl k);
        if is_read then begin
          let p = base lor ((sub + 1) land c.sub_mask) in
          if not (bit_is_set c.valid p) then begin
            set_bit c.valid p;
            sp.fwords <- sp.fwords + c.sub_words;
            f1 := !f1 lor (1 lsl k)
          end
        end
      end
    done;
    if !miss <> 0 then
      if is_read then sp.rmiss <- sp.rmiss + 1 else sp.wmiss <- sp.wmiss + 1;
    if !need <> 0 then
      log_push au
        ((addr lsl 5) lor (bytes lsl 1) lor (if is_read then 1 else 0))
        (!need lor (!miss lsl 16))
        (!f0 lor (!f1 lsl 16))

  (* Settled: sub-block [gs] has its tag and valid bit in place, and its
     set is pinned ([known]) or the sub-block was already touched directly
     this chunk — a touch is a hit with no state change in both the cold
     and the true world.  An access whose one or two sub-blocks are all
     settled moves neither counters (beyond the access) nor the log. *)
  let[@inline] settled ~tags ~valid ~direct ~known ~sub_bits ~set_mask
      ~sub_mask gs =
    let block = gs lsr sub_bits in
    let set = block land set_mask in
    let bit = (set lsl sub_bits) lor (gs land sub_mask) in
    Array.unsafe_get tags set = block
    && bit_is_set valid bit
    && (bit_is_set direct bit || bit_is_set known set)

  let[@inline] settled_span ~tags ~valid ~direct ~known ~sub_bits ~set_mask
      ~sub_mask g0 g1 =
    settled ~tags ~valid ~direct ~known ~sub_bits ~set_mask ~sub_mask g0
    && (g1 = g0
       || g1 = g0 + 1
          && settled ~tags ~valid ~direct ~known ~sub_bits ~set_mask ~sub_mask
               g1)

  (* The instruction stream of one chunk, as fetch events (see
     {!fetch_event_bits}).  An event's first fetch is a full access; its
     repeats lie in the same sub-block (the builder only forms runs inside
     one aligned granule no larger than the sub-block), so after the first
     touch validated the bit and pinned the tag they are hits in both
     worlds and only count.  The geometry is hoisted out of the loop and
     the read count accumulates locally. *)
  let chunk_fetch_events au events ~count_bits ~insn_bytes =
    let c = au.a in
    let tags = c.tags and valid = c.valid in
    let direct = au.direct and known = au.known in
    let sub_shift = c.sub_shift and sub_bits = c.sub_bits in
    let set_mask = c.set_mask and sub_mask = c.sub_mask in
    let repeat_mask = (1 lsl count_bits) - 1 in
    let reads = ref 0 in
    for k = 0 to Array.length events - 1 do
      let w = Array.unsafe_get events k in
      let pc = w lsr count_bits in
      reads := !reads + 1 + (w land repeat_mask);
      (* Bit 0 of a traced pc marks a wide (4-byte) instruction. *)
      let addr = pc land lnot 1 in
      let bytes = if pc land 1 <> 0 then 4 else insn_bytes in
      let g0 = addr lsr sub_shift in
      let g1 = (addr + bytes - 1) lsr sub_shift in
      if
        not
          (settled_span ~tags ~valid ~direct ~known ~sub_bits ~set_mask
             ~sub_mask g0 g1)
      then chunk_touch au ~is_read:true ~addr ~bytes g0 g1
    done;
    au.asp.racc <- au.asp.racc + !reads

  (* The data stream of one chunk: nonzero packed records
     [(addr lsl 5) lor (bytes lsl 1) lor is_write], same loop shape. *)
  let chunk_data au dinfos =
    let c = au.a in
    let tags = c.tags and valid = c.valid in
    let direct = au.direct and known = au.known in
    let sub_shift = c.sub_shift and sub_bits = c.sub_bits in
    let set_mask = c.set_mask and sub_mask = c.sub_mask in
    let writes = ref 0 in
    for k = 0 to Array.length dinfos - 1 do
      let d = Array.unsafe_get dinfos k in
      let is_write = d land 1 in
      writes := !writes + is_write;
      let bytes = (d lsr 1) land 0xF in
      let addr = d lsr 5 in
      let g0 = addr lsr sub_shift in
      let g1 = (addr + bytes - 1) lsr sub_shift in
      if
        not
          (settled_span ~tags ~valid ~direct ~known ~sub_bits ~set_mask
             ~sub_mask g0 g1)
      then chunk_touch au ~is_read:(is_write = 0) ~addr ~bytes g0 g1
    done;
    let sp = au.asp in
    sp.wacc <- sp.wacc + !writes;
    sp.racc <- sp.racc + Array.length dinfos - !writes

  type summary = {
    s_sp : split;
    s_log : int array;
    s_known_sets : int array;  (* sets whose cold end state is the truth *)
    s_known_tags : int array;
    s_valid : Bytes.t;  (* cold valid bitset at chunk end *)
  }

  let chunk_finish au =
    let c = au.a in
    let ks = ref [] in
    let nk = ref 0 in
    for set = c.sets - 1 downto 0 do
      if bit_is_set au.known set then begin
        ks := set :: !ks;
        incr nk
      end
    done;
    let s_known_sets = Array.make !nk 0 in
    let s_known_tags = Array.make !nk 0 in
    List.iteri
      (fun j set ->
        s_known_sets.(j) <- set;
        s_known_tags.(j) <- c.tags.(set))
      !ks;
    {
      s_sp = au.asp;
      s_log = Array.sub au.log 0 au.log_n;
      s_known_sets;
      s_known_tags;
      s_valid = Bytes.copy c.valid;
    }

  type carry = { c : t; csp : split }

  let carry_start cfg = { c = make cfg; csp = split_make () }

  (* Copy one set's valid bits from a chunk's cold end state into the
     carried state. *)
  let copy_set_bits c ~src ~dst set =
    let base = set lsl c.sub_bits in
    if c.subs_per_block >= 8 then
      Bytes.blit src (base lsr 3) dst (base lsr 3) (c.subs_per_block lsr 3)
    else begin
      let byte = base lsr 3 in
      let m = ((1 lsl c.subs_per_block) - 1) lsl (base land 7) in
      let sv = Char.code (Bytes.get src byte) land m in
      let dv = Char.code (Bytes.get dst byte) land lnot m land 0xFF in
      Bytes.set dst byte (Char.unsafe_chr (dv lor sv))
    end

  let absorb cr (s : summary) =
    let c = cr.c in
    let sp = cr.csp in
    sp.racc <- sp.racc + s.s_sp.racc;
    sp.rmiss <- sp.rmiss + s.s_sp.rmiss;
    sp.wacc <- sp.wacc + s.s_sp.wacc;
    sp.wmiss <- sp.wmiss + s.s_sp.wmiss;
    sp.fwords <- sp.fwords + s.s_sp.fwords;
    (* Replay the prefix log against the carried (true) state: recompute
       the flagged touches, trust the recorded cold outcome elsewhere,
       and adjust the miss/word totals by the difference. *)
    let log = s.s_log in
    let n = Array.length log in
    let i = ref 0 in
    while !i < n do
      let w0 = log.(!i) in
      let w1 = log.(!i + 1) in
      let w2 = log.(!i + 2) in
      i := !i + 3;
      let is_read = w0 land 1 = 1 in
      let bytes = (w0 lsr 1) land 0xF in
      let addr = w0 lsr 5 in
      let need = w1 land 0xFFFF in
      let cold_miss = w1 lsr 16 in
      let cf0 = w2 land 0xFFFF in
      let cf1 = w2 lsr 16 in
      let g0 = addr lsr c.sub_shift in
      let g1 = (addr + bytes - 1) lsr c.sub_shift in
      let true_missed = ref false in
      let dwords = ref 0 in
      for k = 0 to g1 - g0 do
        let b = 1 lsl k in
        if need land b <> 0 then begin
          let gs = g0 + k in
          let block = gs lsr c.sub_bits in
          let set = block land c.set_mask in
          let sub = gs land c.sub_mask in
          let base = set lsl c.sub_bits in
          let cold_fetches =
            (if cf0 land b <> 0 then 1 else 0)
            + if cf1 land b <> 0 then 1 else 0
          in
          let fetches = ref 0 in
          let fetch idx =
            if not (bit_is_set c.valid idx) then begin
              set_bit c.valid idx;
              incr fetches
            end
          in
          if c.tags.(set) <> block then begin
            c.tags.(set) <- block;
            clear_set c set;
            true_missed := true;
            fetch (base lor sub);
            if is_read then fetch (base lor ((sub + 1) land c.sub_mask))
          end
          else if not (bit_is_set c.valid (base lor sub)) then begin
            true_missed := true;
            fetch (base lor sub);
            if is_read then fetch (base lor ((sub + 1) land c.sub_mask))
          end;
          dwords := !dwords + (c.sub_words * (!fetches - cold_fetches))
        end
        else if cold_miss land b <> 0 then true_missed := true
      done;
      if !true_missed <> (cold_miss <> 0) then begin
        let d = if !true_missed then 1 else -1 in
        if is_read then sp.rmiss <- sp.rmiss + d else sp.wmiss <- sp.wmiss + d
      end;
      sp.fwords <- sp.fwords + !dwords
    done;
    (* Known sets: the chunk's cold end state is the true end state. *)
    Array.iteri
      (fun j set ->
        c.tags.(set) <- s.s_known_tags.(j);
        copy_set_bits c ~src:s.s_valid ~dst:c.valid set)
      s.s_known_sets

  type totals = {
    reads : int;
    read_misses : int;
    writes : int;
    write_misses : int;
    fetch_words : int;
  }

  let carry_totals cr =
    {
      reads = cr.csp.racc;
      read_misses = cr.csp.rmiss;
      writes = cr.csp.wacc;
      write_misses = cr.csp.wmiss;
      fetch_words = cr.csp.fwords;
    }
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
