module Memsys = Repro_sim.Memsys
module Link = Repro_link.Link
module Target = Repro_core.Target

type dcounts = {
  mutable reads : int;
  mutable read_misses : int;
  mutable writes : int;
  mutable write_misses : int;
}

type mem_state =
  | Mnocache of { bus_bytes : int; wait_states : int; mutable buffer : int }
  | Mcached of {
      icache : Memsys.Cache.t;
      dcache : Memsys.Cache.t;
      penalty : int;
      dc : dcounts;
    }

type t = {
  img : Link.image;
  descs : Predecode.desc array;  (* by instruction index, via Link.index_at *)
  insn_bytes : int;
  sb : Scoreboard.t;
  mem : mem_state;
  mutable ic : int;
  mutable fetch_stalls : int;
  mutable dmiss_stalls : int;
  mutable wmiss_stalls : int;
}

type result = { stalls : Stalls.t; caches : Memsys.cached option }

let create (cfg : Uconfig.t) (img : Link.image) =
  let target = img.Link.target in
  let mem =
    match cfg with
    | Uconfig.Nocache { bus_bytes; wait_states } ->
      Mnocache { bus_bytes; wait_states; buffer = -1 }
    | Uconfig.Cached { icache; dcache; miss_penalty } ->
      Mcached
        {
          icache = Memsys.Cache.make icache;
          dcache = Memsys.Cache.make dcache;
          penalty = miss_penalty;
          dc = { reads = 0; read_misses = 0; writes = 0; write_misses = 0 };
        }
  in
  {
    img;
    descs = Predecode.table img;
    insn_bytes = Target.insn_bytes target;
    sb =
      Scoreboard.create ~n_gpr:target.Target.n_gpr ~n_fpr:target.Target.n_fpr;
    mem;
    ic = 0;
    fetch_stalls = 0;
    dmiss_stalls = 0;
    wmiss_stalls = 0;
  }

let step t ~iaddr ~dinfo =
  (* Bit 0 of the traced address marks a wide (4-byte) instruction on a
     mixed-width target; addresses proper are always even. *)
  let wide = iaddr land 1 <> 0 in
  let iaddr = iaddr land lnot 1 in
  (* IF. *)
  (match t.mem with
  | Mnocache m ->
    let block = iaddr / m.bus_bytes in
    if block <> m.buffer then begin
      t.fetch_stalls <- t.fetch_stalls + m.wait_states;
      m.buffer <- block
    end;
    if wide then begin
      let tail = (iaddr + 2) / m.bus_bytes in
      if tail <> m.buffer then begin
        t.fetch_stalls <- t.fetch_stalls + m.wait_states;
        m.buffer <- tail
      end
    end
  | Mcached m ->
    if
      Memsys.Cache.access m.icache ~is_read:true ~addr:iaddr
        ~bytes:(if wide then 4 else t.insn_bytes)
    then t.fetch_stalls <- t.fetch_stalls + m.penalty);
  (* ID/EX. *)
  Scoreboard.step t.sb t.descs.(Link.index_at t.img iaddr);
  (* MEM. *)
  if dinfo <> 0 then begin
    let is_write = dinfo land 1 = 1 in
    let bytes = (dinfo lsr 1) land 0xF in
    let addr = dinfo lsr 5 in
    match t.mem with
    | Mnocache m ->
      let transactions = (bytes + m.bus_bytes - 1) / m.bus_bytes in
      let cost = transactions * m.wait_states in
      if is_write then t.wmiss_stalls <- t.wmiss_stalls + cost
      else t.dmiss_stalls <- t.dmiss_stalls + cost
    | Mcached m ->
      let missed =
        Memsys.Cache.access m.dcache ~is_read:(not is_write) ~addr ~bytes
      in
      if is_write then begin
        m.dc.writes <- m.dc.writes + 1;
        if missed then begin
          m.dc.write_misses <- m.dc.write_misses + 1;
          t.wmiss_stalls <- t.wmiss_stalls + m.penalty
        end
      end
      else begin
        m.dc.reads <- m.dc.reads + 1;
        if missed then begin
          m.dc.read_misses <- m.dc.read_misses + 1;
          t.dmiss_stalls <- t.dmiss_stalls + m.penalty
        end
      end
  end;
  t.ic <- t.ic + 1

let result t =
  let stalls =
    Stalls.of_parts ~ic:t.ic ~interlock_clock:(Scoreboard.clock t.sb)
      ~load_interlocks:(Scoreboard.load_stalls t.sb)
      ~fp_interlocks:(Scoreboard.fp_stalls t.sb) ~fetch_stalls:t.fetch_stalls
      ~dmiss_stalls:t.dmiss_stalls ~wmiss_stalls:t.wmiss_stalls
  in
  let caches =
    match t.mem with
    | Mnocache _ -> None
    | Mcached m ->
      Some
        {
          Memsys.icache = Memsys.Cache.stats m.icache;
          dcache_read =
            {
              Memsys.accesses = m.dc.reads;
              misses = m.dc.read_misses;
              words_transferred = 0;
            };
          dcache_write =
            {
              Memsys.accesses = m.dc.writes;
              misses = m.dc.write_misses;
              words_transferred = 0;
            };
        }
  in
  { stalls; caches }

(* Memory-side chunk engine. ------------------------------------------------

   The memory-facing stages depend on the configuration only through a
   coarser equivalence class: a cacheless machine's fetch buffer and bus
   transaction counts depend on the bus width alone (the wait states just
   scale the counts at result time), and a cached machine's miss counts
   depend on the two cache geometries alone (the miss penalty likewise
   scales).  [Mem.key] names the class, so a sweep deduplicates its
   memory automatons: the standard ten-configuration sweep runs two
   fetch-buffer passes and one I/D cache-pair automaton pair per distinct
   geometry instead of ten full pipelines. *)

module Mem = struct
  module Cache = Memsys.Cache
  module Fetchbuf = Memsys.Fetchbuf

  type key =
    | Knocache of { bus_bytes : int }
    | Kcached of { icache : Memsys.cache_config; dcache : Memsys.cache_config }

  let key (cfg : Uconfig.t) =
    match cfg with
    | Uconfig.Nocache { bus_bytes; _ } -> Knocache { bus_bytes }
    | Uconfig.Cached { icache; dcache; _ } -> Kcached { icache; dcache }

  (* Whether a run of consecutive fetches inside one 4-byte granule may be
     fed as a single event plus a count.  Cacheless: only the start
     address matters (block = addr / bus), and a granule lies in one block
     whenever the bus is at least granule-sized — alignment is irrelevant.
     Cached: the whole [addr, addr + insn_bytes) span is accessed, so the
     trace must be granule-aligned and the sub-block at least
     granule-sized.  Both classes also
     need the trace granule-aligned so a wide (marked) fetch never leaks
     into the next granule; traces without wide marks are always
     granule-aligned, so the extra conjunct changes nothing for them. *)
  let fetch_run_ok ~aligned = function
    | Knocache { bus_bytes } -> aligned && bus_bytes >= 4
    | Kcached { icache; _ } -> aligned && icache.Memsys.sub_block_bytes >= 4

  type auto =
    | Anocache of {
        buf : Fetchbuf.t;
        bus_bytes : int;
        mutable first_block : int;
        mutable dread : int;  (* data bus transactions; state-free *)
        mutable dwrite : int;
      }
    | Acached of { ia : Cache.auto; da : Cache.auto; insn_bytes : int }

  let chunk_start ~insn_bytes = function
    | Knocache { bus_bytes } ->
      Anocache
        {
          buf = Fetchbuf.make ~bus_bytes;
          bus_bytes;
          first_block = -1;
          dread = 0;
          dwrite = 0;
        }
    | Kcached { icache; dcache } ->
      Acached
        { ia = Cache.chunk_start icache; da = Cache.chunk_start dcache;
          insn_bytes }

  let fetch a ~addr =
    let wide = addr land 1 <> 0 in
    let addr = addr land lnot 1 in
    match a with
    | Anocache m ->
      ignore (Fetchbuf.fetch m.buf ~addr);
      if m.first_block < 0 then m.first_block <- addr / m.bus_bytes;
      if wide then ignore (Fetchbuf.fetch m.buf ~addr:(addr + 2))
    | Acached m ->
      Cache.chunk_access m.ia ~is_read:true ~addr
        ~bytes:(if wide then 4 else m.insn_bytes)

  let fetch_run a ~addr ~count =
    match a with
    | Anocache _ -> fetch a ~addr  (* one block: the first fetch decides *)
    | Acached m -> Cache.chunk_iread_run m.ia ~addr ~count

  let data a ~dinfo =
    let is_write = dinfo land 1 = 1 in
    let bytes = (dinfo lsr 1) land 0xF in
    match a with
    | Anocache m ->
      let requests = Memsys.data_requests ~bus_bytes:m.bus_bytes ~bytes in
      if is_write then m.dwrite <- m.dwrite + requests
      else m.dread <- m.dread + requests
    | Acached m ->
      Cache.chunk_access m.da ~is_read:(not is_write) ~addr:(dinfo lsr 5)
        ~bytes

  type summary =
    | Snocache of {
        cold_irequests : int;
        first_block : int;
        last_block : int;
        dread : int;
        dwrite : int;
      }
    | Scached of { ic : Cache.summary; dc : Cache.summary }

  let chunk_finish = function
    | Anocache m ->
      Snocache
        {
          cold_irequests = Fetchbuf.requests m.buf;
          first_block = m.first_block;
          last_block = Fetchbuf.last_block m.buf;
          dread = m.dread;
          dwrite = m.dwrite;
        }
    | Acached m ->
      Scached { ic = Cache.chunk_finish m.ia; dc = Cache.chunk_finish m.da }

  type carry =
    | Cnocache of {
        mutable irequests : int;
        mutable block : int;
        mutable dread : int;
        mutable dwrite : int;
      }
    | Ccached of { icar : Cache.carry; dcar : Cache.carry }

  let carry_start = function
    | Knocache _ -> Cnocache { irequests = 0; block = -1; dread = 0; dwrite = 0 }
    | Kcached { icache; dcache } ->
      Ccached { icar = Cache.carry_start icache; dcar = Cache.carry_start dcache }

  let absorb c s =
    match (c, s) with
    | Cnocache c, Snocache s ->
      c.dread <- c.dread + s.dread;
      c.dwrite <- c.dwrite + s.dwrite;
      (* Only the chunk's first fetch is boundary-sensitive: cold, it
         always misses the (empty) buffer; warm, it hits iff the carried
         buffer already holds its block. *)
      if s.first_block >= 0 then begin
        c.irequests <-
          c.irequests + s.cold_irequests
          - (if s.first_block = c.block then 1 else 0);
        c.block <- s.last_block
      end
    | Ccached c, Scached s ->
      Cache.absorb c.icar s.ic;
      Cache.absorb c.dcar s.dc
    | _ -> invalid_arg "Pipeline.Mem.absorb: summary from a different key"

  (* The carried request/miss totals as the plain memory-system counter
     records: a cacheless carry is exactly {!Memsys.replay_nocache}'s
     output, a cached carry exactly {!Memsys.replay_cached}'s.  These are
     what the penalty-free replays ({!Repro_trace.Replay}) read off a
     sweep — {!charge} prices the same totals for one configuration. *)

  let nocache_counters = function
    | Cnocache c ->
      { Memsys.irequests = c.irequests; drequests = c.dread + c.dwrite }
    | Ccached _ -> invalid_arg "Pipeline.Mem.nocache_counters: cached carry"

  let cached_counters = function
    | Ccached c ->
      let it = Cache.carry_totals c.icar in
      let dt = Cache.carry_totals c.dcar in
      {
        Memsys.icache =
          {
            Memsys.accesses = it.Cache.reads + it.Cache.writes;
            misses = it.Cache.read_misses + it.Cache.write_misses;
            words_transferred = it.Cache.fetch_words;
          };
        dcache_read =
          {
            Memsys.accesses = dt.Cache.reads;
            misses = dt.Cache.read_misses;
            words_transferred = 0;
          };
        dcache_write =
          {
            Memsys.accesses = dt.Cache.writes;
            misses = dt.Cache.write_misses;
            words_transferred = 0;
          };
      }
    | Cnocache _ -> invalid_arg "Pipeline.Mem.cached_counters: cacheless carry"

  let charge c (cfg : Uconfig.t) ~ic ~interlock_clock ~load_interlocks
      ~fp_interlocks =
    match (c, cfg) with
    | Cnocache c, Uconfig.Nocache { wait_states; _ } ->
      let stalls =
        Stalls.of_parts ~ic ~interlock_clock ~load_interlocks ~fp_interlocks
          ~fetch_stalls:(wait_states * c.irequests)
          ~dmiss_stalls:(wait_states * c.dread)
          ~wmiss_stalls:(wait_states * c.dwrite)
      in
      { stalls; caches = None }
    | Ccached _, Uconfig.Cached { miss_penalty; _ } ->
      let counters = cached_counters c in
      let stalls =
        Stalls.of_parts ~ic ~interlock_clock ~load_interlocks ~fp_interlocks
          ~fetch_stalls:(miss_penalty * counters.Memsys.icache.Memsys.misses)
          ~dmiss_stalls:
            (miss_penalty * counters.Memsys.dcache_read.Memsys.misses)
          ~wmiss_stalls:
            (miss_penalty * counters.Memsys.dcache_write.Memsys.misses)
      in
      { stalls; caches = Some counters }
    | _ -> invalid_arg "Pipeline.Mem.charge: carry from a different key"
end
