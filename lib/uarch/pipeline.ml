module Memsys = Repro_sim.Memsys
module Link = Repro_link.Link
module Target = Repro_core.Target

type mem_state =
  | Mnocache of { bus_bytes : int; wait_states : int; mutable buffer : int }
  | Mcached of {
      icache : Memsys.Cache.t;
      dcache : Memsys.Cache.t;
      penalty : int;
      dc : Memsys.Cache.data_counts;
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
          dc = Memsys.Cache.data_counts ();
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

(* Memory-side replay engine. -------------------------------------------------

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

  (* The fetch-event granule a key replays from (see
     {!Memsys.fetch_event_bits}): for a cache, the largest of 8 and 4 bytes
     that fits in one sub-block, so every run of fetches inside one
     aligned granule lies in one sub-block and its first fetch decides.
     0 means the raw pcs: a sub-block under 4 bytes, or a fetch buffer,
     which steps a pc for less than packing it costs. *)
  let event_bytes = function
    | Knocache _ -> 0
    | Kcached { icache; _ } ->
      let sub = icache.Memsys.sub_block_bytes in
      if sub >= 8 then 8 else if sub >= 4 then 4 else 0

  type t =
    | Nocache of {
        buf : Fetchbuf.t;
        requests : int array;  (* bus transactions per data access size *)
        mutable dread : int;
        mutable dwrite : int;
      }
    | Cached of {
        icache : Cache.t;
        dcache : Cache.t;
        dc : Cache.data_counts;
        insn_bytes : int;
      }

  let create ~insn_bytes = function
    | Knocache { bus_bytes } ->
      Nocache
        {
          buf = Fetchbuf.make ~bus_bytes;
          requests =
            Array.init 16 (fun bytes -> Memsys.data_requests ~bus_bytes ~bytes);
          dread = 0;
          dwrite = 0;
        }
    | Kcached { icache; dcache } ->
      Cached
        {
          icache = Cache.make icache;
          dcache = Cache.make dcache;
          dc = Cache.data_counts ();
          insn_bytes;
        }

  (* One chunk: the instruction stream as fetch events under [count_bits]
     (the raw pcs when 0, always for a fetch buffer), then the nonzero
     data records.  Cacheless data traffic is state-free: a per-size
     table of bus transactions. *)
  let step t events ~count_bits ~dinfos =
    match t with
    | Nocache m ->
      Fetchbuf.fetch_events m.buf events;
      let dread = ref 0 and dwrite = ref 0 in
      for k = 0 to Array.length dinfos - 1 do
        let dinfo = Array.unsafe_get dinfos k in
        let r = Array.unsafe_get m.requests ((dinfo lsr 1) land 0xF) in
        if dinfo land 1 = 1 then dwrite := !dwrite + r
        else dread := !dread + r
      done;
      m.dread <- m.dread + !dread;
      m.dwrite <- m.dwrite + !dwrite
    | Cached m ->
      Cache.fetch_events m.icache events ~count_bits ~insn_bytes:m.insn_bytes;
      Cache.data m.dcache m.dc dinfos

  (* The totals as the plain memory-system counter records: a cacheless
     [t] is exactly [Replay.Seq.nocache]'s output, a cached one exactly
     [Replay.Seq.cached]'s.  These are what the penalty-free replays
     ({!Repro_trace.Replay}) read off a sweep; {!charge} prices the same
     totals for one configuration. *)

  let nocache_counters = function
    | Nocache m ->
      {
        Memsys.irequests = Fetchbuf.requests m.buf;
        drequests = m.dread + m.dwrite;
      }
    | Cached _ -> invalid_arg "Pipeline.Mem.nocache_counters: cached key"

  let cached_counters = function
    | Cached m ->
      {
        Memsys.icache = Cache.stats m.icache;
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
    | Nocache _ -> invalid_arg "Pipeline.Mem.cached_counters: cacheless key"

  let charge t (cfg : Uconfig.t) ~ic ~interlock_clock ~load_interlocks
      ~fp_interlocks =
    match (t, cfg) with
    | Nocache m, Uconfig.Nocache { wait_states; _ } ->
      let stalls =
        Stalls.of_parts ~ic ~interlock_clock ~load_interlocks ~fp_interlocks
          ~fetch_stalls:(wait_states * Fetchbuf.requests m.buf)
          ~dmiss_stalls:(wait_states * m.dread)
          ~wmiss_stalls:(wait_states * m.dwrite)
      in
      { stalls; caches = None }
    | Cached _, Uconfig.Cached { miss_penalty; _ } ->
      let counters = cached_counters t in
      let stalls =
        Stalls.of_parts ~ic ~interlock_clock ~load_interlocks ~fp_interlocks
          ~fetch_stalls:(miss_penalty * counters.Memsys.icache.Memsys.misses)
          ~dmiss_stalls:
            (miss_penalty * counters.Memsys.dcache_read.Memsys.misses)
          ~wmiss_stalls:
            (miss_penalty * counters.Memsys.dcache_write.Memsys.misses)
      in
      { stalls; caches = Some counters }
    | _ -> invalid_arg "Pipeline.Mem.charge: configuration of a different key"
end
