module Memsys = Repro_sim.Memsys
module Pipeline = Repro_uarch.Pipeline
module Uconfig = Repro_uarch.Uconfig
module Scoreboard = Repro_uarch.Scoreboard
module Predecode = Repro_uarch.Predecode
module Link = Repro_link.Link
module Target = Repro_core.Target
module Mem = Pipeline.Mem

(* Shared chunk decode. ------------------------------------------------------

   One decode per chunk feeds every automaton (caches, fetch buffers,
   scoreboard).  Decoded chunks are cached: the varint stream is
   LEB128+zigzag and costs more to walk than the automata cost to step,
   so a second replay of the same reader must not pay the decode again.
   Harness and serve sweeps stream from the execution ({!stream}) and
   never come here; the bench's repeated replays are the repeat caller.
   The cache is a small MRU of recently-replayed readers (keyed by
   physical reader identity) with one atomic slot per chunk: the slot is
   filled outside any lock (decoding is deterministic, so a racing
   double-decode is just redundant work, never wrong), and readers
   evicted from the MRU drop all their arrays at once. *)

module Decoded = struct
  type t = {
    pcs : int array;  (* every record's fetch address, in order *)
    dinfos : int array;  (* the nonzero packed data records, in order *)
    ev4 : int array;  (* fetch events at 4-byte granules, or empty *)
    ev8 : int array;  (* fetch events at 8-byte granules, or empty *)
    insn_bytes : int;
  }

  let of_chunk rd i =
    let insn_bytes = Trace.Reader.insn_bytes rd in
    let info = Trace.Reader.chunk rd i in
    let n = info.Trace.Reader.n_records in
    let pcs = Array.make (max n 1) 0 in
    let dinfos = Array.make (max n 1) 0 in
    let nd = ref 0 in
    let np = ref 0 in
    Trace.Reader.iter_chunk rd i (fun ~pc ~dinfo ->
        pcs.(!np) <- pc;
        incr np;
        if dinfo <> 0 then begin
          dinfos.(!nd) <- dinfo;
          incr nd
        end);
    let pcs = Array.sub pcs 0 !np in
    {
      pcs;
      dinfos = Array.sub dinfos 0 !nd;
      ev4 = Memsys.fetch_events ~insn_bytes ~granule:4 pcs;
      ev8 = Memsys.fetch_events ~insn_bytes ~granule:8 pcs;
      insn_bytes;
    }

  (* The i-stream to replay at a fetch-event granule, with its count
     bits: the packed events at 4 or 8 bytes, else (or when the chunk's
     pcs do not pack, or were not packed there) the raw pcs. *)
  let fetches d ~granule =
    let packed =
      if granule = 8 then d.ev8 else if granule = 4 then d.ev4 else [||]
    in
    if Array.length packed > 0 then (packed, Memsys.fetch_event_bits)
    else (d.pcs, 0)

  let cache_readers = 4
  let cache_lock = Mutex.create ()

  let cache : (Trace.Reader.t * t option Atomic.t array) list ref = ref []

  let slots rd =
    Mutex.protect cache_lock (fun () ->
        match List.assq_opt rd !cache with
        | Some slots ->
          (match !cache with
          | (r, _) :: _ when r == rd -> ()  (* already most recent *)
          | _ ->
            cache :=
              (rd, slots) :: List.filter (fun (r, _) -> r != rd) !cache);
          slots
        | None ->
          let slots =
            Array.init (Trace.Reader.n_chunks rd) (fun _ -> Atomic.make None)
          in
          cache :=
            (rd, slots)
            :: List.filteri (fun j _ -> j < cache_readers - 1) !cache;
          slots)

  let get rd i =
    let slot = (slots rd).(i) in
    match Atomic.get slot with
    | Some d -> d
    | None ->
      let d = of_chunk rd i in
      Atomic.set slot (Some d);
      d
end

(* The engine. ----------------------------------------------------------------

   One pass serves every axis of a spec.  Each chunk is filled once —
   decoded from a stored trace, or written by the execution's hook — and
   simulated cold, independently of every other chunk (so chunks fan out
   across domains): the scoreboard, when pipelines are asked for, plus
   one memory automaton per distinct behaviour class.  The chunk
   summaries are then absorbed sequentially, in chunk order, into the
   true carried state — the memory models replay their logged
   boundary-sensitive prefix ({!Mem.absorb}), the scoreboard re-steps its
   pre-convergence prefix warm and adopts the cold suffix
   ({!Scoreboard.absorb}) — which reconstructs exactly the sequential
   outcome. *)

type chunk_result = {
  score : Scoreboard.summary option;  (* iff pipelines were asked for *)
  mems : Mem.summary array;  (* per distinct memory key *)
}

type map = (int -> chunk_result) -> int list -> chunk_result list

type cache_pair = { icache : Memsys.cache_config; dcache : Memsys.cache_config }

type spec = {
  buses : int list;
  caches : cache_pair list;
  pipelines : Uconfig.t list;
}

type result = {
  nocaches : Memsys.nocache list;
  cacheds : Memsys.cached list;
  pipes : Pipeline.result list;
}

let empty = { buses = []; caches = []; pipelines = [] }

(* Memory-behaviour classes for the bus and cache axes: the wait states /
   miss penalty are irrelevant to the counters, so any priced value works
   as a key carrier — 0 keeps the smart constructors happy. *)
let nocache_key bus_bytes = Mem.key (Uconfig.nocache ~bus_bytes ~wait_states:0)

let cached_key (p : cache_pair) =
  Mem.key (Uconfig.cached ~icache:p.icache ~dcache:p.dcache ~miss_penalty:0)

(* Distinct memory-behaviour classes in first-appearance order, plus each
   item's class index.  A sweep runs one memory automaton per distinct
   class — the standard ten-configuration pipeline sweep needs four, not
   ten — and a pipeline configuration whose class also appears as a bus
   or cache pair shares that automaton. *)
let dedup_keys keys =
  let seen = ref [] and n = ref 0 in
  let of_item =
    List.map
      (fun k ->
        match List.assoc_opt k !seen with
        | Some j -> j
        | None ->
          let j = !n in
          seen := (k, j) :: !seen;
          incr n;
          j)
      keys
  in
  (Array.of_list (List.rev_map fst !seen), Array.of_list of_item)

let n_regs (img : Link.image) =
  let t = img.Link.target in
  (t.Target.n_gpr, t.Target.n_fpr)

(* Cold-simulate one decoded chunk: independent of every other chunk. *)
let chunk ~score ~insn_bytes keys (d : Decoded.t) =
  let score =
    Option.map
      (fun (img, descs) ->
        let n_gpr, n_fpr = n_regs img in
        let ch = Scoreboard.chunk_start ~n_gpr ~n_fpr in
        let pcs = d.Decoded.pcs in
        for k = 0 to Array.length pcs - 1 do
          (* Strip the wide-instruction mark (bit 0) before the index
             lookup; the scoreboard itself is size-blind. *)
          let idx = Link.index_at img (Array.unsafe_get pcs k land lnot 1) in
          Scoreboard.chunk_step ch ~index:idx (Array.unsafe_get descs idx)
        done;
        Scoreboard.chunk_finish ch)
      score
  in
  let mems =
    Array.map
      (fun key ->
        let a = Mem.chunk_start ~insn_bytes key in
        let events, count_bits =
          Decoded.fetches d ~granule:(Mem.event_bytes key)
        in
        Mem.step a events ~count_bits ~dinfos:d.Decoded.dinfos;
        Mem.chunk_finish a)
      keys
  in
  { score; mems }

let no_result = { nocaches = []; cacheds = []; pipes = [] }

let is_empty = function
  | { buses = []; caches = []; pipelines = [] } -> true
  | _ -> false

(* The engine core, shared by both chunk sources: key dedup, scoreboard
   set-up, the cold [chunk] step over a decoded chunk, in-order [absorb]
   and the final charge over [ic] records.  Only where chunk i comes from
   differs: a stored trace ({!run}) or the execution itself ({!stream}). *)
type engine = {
  step : Decoded.t -> chunk_result;
  absorb : chunk_result -> unit;
  finish : ic:int -> result;
  pack : granule:int -> int array -> int array;  (* [||]: no key needs it *)
}

let engine ?img ~insn_bytes caller spec =
  (* The scoreboard, when pipelines are asked for, is shared by all of
     them: interlocks depend only on the instruction stream. *)
  let score =
    match (spec.pipelines, img) with
    | [], _ -> None
    | _ :: _, Some img -> Some (img, Predecode.table img)
    | _ :: _, None ->
      invalid_arg (caller ^ ": pipeline configurations need ~img")
  in
  let keys, of_item =
    dedup_keys
      (List.map nocache_key spec.buses
      @ List.map cached_key spec.caches
      @ List.map Mem.key spec.pipelines)
  in
  let warm =
    Option.map
      (fun (img, descs) ->
        let n_gpr, n_fpr = n_regs img in
        (Scoreboard.create ~n_gpr ~n_fpr, descs))
      score
  in
  let carries = Array.map Mem.carry_start keys in
  let absorb r =
    (match (warm, r.score) with
    | Some (sb, descs), Some s -> Scoreboard.absorb sb descs s
    | _ -> ());
    Array.iteri (fun j s -> Mem.absorb carries.(j) s) r.mems
  in
  let finish ~ic =
    let carry_of i = carries.(of_item.(i)) in
    let nb = List.length spec.buses in
    let nc = List.length spec.caches in
    let pipes =
      match warm with
      | None -> []
      | Some (sb, _) ->
        List.mapi
          (fun i cfg ->
            Mem.charge (carry_of (nb + nc + i)) cfg ~ic
              ~interlock_clock:(Scoreboard.clock sb)
              ~load_interlocks:(Scoreboard.load_stalls sb)
              ~fp_interlocks:(Scoreboard.fp_stalls sb))
          spec.pipelines
    in
    {
      nocaches =
        List.mapi (fun i _ -> Mem.nocache_counters (carry_of i)) spec.buses;
      cacheds =
        List.mapi
          (fun i _ -> Mem.cached_counters (carry_of (nb + i)))
          spec.caches;
      pipes;
    }
  in
  let pack ~granule pcs =
    if Array.exists (fun k -> Mem.event_bytes k = granule) keys then
      Memsys.fetch_events ~insn_bytes ~granule pcs
    else [||]
  in
  { step = chunk ~score ~insn_bytes keys; absorb; finish; pack }

let run ?map ?img rd spec =
  if is_empty spec then no_result
  else begin
    let e =
      engine ?img ~insn_bytes:(Trace.Reader.insn_bytes rd) "Replay.run" spec
    in
    let step i = e.step (Decoded.get rd i) in
    let ids = List.init (Trace.Reader.n_chunks rd) Fun.id in
    (match map with
    | Some m -> List.iter e.absorb (m step ids)
    | None ->
      (* Sequential replay absorbs each chunk as it is produced: the same
         chunk order as absorbing the full list, but the summaries —
         per-key prefix logs included — die young instead of
         accumulating across the whole trace.  At wide sweeps (16 cache
         geometries) the retained list's live set scaled as chunks x
         keys and dominated the run in GC work. *)
      List.iter (fun i -> e.absorb (step i)) ids);
    e.finish ~ic:(Trace.Reader.n_records rd)
  end

(* The execution as the chunk source.  The hook fills one chunk's pcs and
   data records in place; a full chunk is packed into fetch events at the
   granules the spec's keys replay at, stepped and absorbed before the
   hook returns, so the buffers are reused and no record outlives its
   chunk.  [?map] sees each chunk as a one-element
   batch: a span hook still times every chunk, and a pool map of one
   element runs it on the calling domain. *)
let stream ?map ?img ?(chunk_records = Trace.default_chunk_records)
    ~insn_bytes spec drive =
  if chunk_records < 1 then invalid_arg "Replay.stream: chunk_records < 1";
  if is_empty spec then (drive (fun ~pc:_ ~dinfo:_ -> ()), no_result)
  else begin
    let e = engine ?img ~insn_bytes "Replay.stream" spec in
    let pcs = Array.make chunk_records 0 in
    let dinfos = Array.make chunk_records 0 in
    let np = ref 0 and nd = ref 0 and ic = ref 0 and i = ref 0 in
    let flush () =
      let pcs = if !np = chunk_records then pcs else Array.sub pcs 0 !np in
      let d =
        {
          Decoded.pcs;
          dinfos = Array.sub dinfos 0 !nd;
          ev4 = e.pack ~granule:4 pcs;
          ev8 = e.pack ~granule:8 pcs;
          insn_bytes;
        }
      in
      let r =
        match map with
        | None -> e.step d
        | Some m -> List.hd (m (fun _ -> e.step d) [ !i ])
      in
      e.absorb r;
      ic := !ic + !np;
      incr i;
      np := 0;
      nd := 0
    in
    let hook ~pc ~dinfo =
      Array.unsafe_set pcs !np pc;
      incr np;
      if dinfo <> 0 then begin
        Array.unsafe_set dinfos !nd dinfo;
        incr nd
      end;
      if !np = chunk_records then flush ()
    in
    let a = drive hook in
    if !np > 0 then flush ();
    (a, e.finish ~ic:!ic)
  end

(* Reference implementations: plain sequential per-record loops, kept as
   independent baselines for the differential suite (they share no code
   with the chunk engine above). *)

module Seq = struct
  let nocache rd ~bus_bytes =
    let buf = Memsys.Fetchbuf.make ~bus_bytes in
    let dreq = ref 0 in
    Trace.Reader.iter rd (fun ~pc ~dinfo ->
        let wide = pc land 1 <> 0 in
        let pc = pc land lnot 1 in
        ignore (Memsys.Fetchbuf.fetch buf ~addr:pc);
        if wide then ignore (Memsys.Fetchbuf.fetch buf ~addr:(pc + 2));
        if dinfo <> 0 then begin
          let bytes = (dinfo lsr 1) land 0xF in
          dreq := !dreq + Memsys.data_requests ~bus_bytes ~bytes
        end);
    { Memsys.irequests = Memsys.Fetchbuf.requests buf; drequests = !dreq }

  let cached ~icache ~dcache rd =
    let insn_bytes = Trace.Reader.insn_bytes rd in
    let ic = Memsys.Cache.make icache in
    let dc = Memsys.Cache.make dcache in
    let dreads = ref 0 in
    let dread_miss = ref 0 in
    let dwrites = ref 0 in
    let dwrite_miss = ref 0 in
    Trace.Reader.iter rd (fun ~pc ~dinfo ->
        let wide = pc land 1 <> 0 in
        let pc = pc land lnot 1 in
        ignore
          (Memsys.Cache.access ic ~is_read:true ~addr:pc
             ~bytes:(if wide then 4 else insn_bytes));
        if dinfo <> 0 then begin
          let is_write = dinfo land 1 = 1 in
          let bytes = (dinfo lsr 1) land 0xF in
          let addr = dinfo lsr 5 in
          let missed =
            Memsys.Cache.access dc ~is_read:(not is_write) ~addr ~bytes
          in
          if is_write then begin
            incr dwrites;
            if missed then incr dwrite_miss
          end
          else begin
            incr dreads;
            if missed then incr dread_miss
          end
        end);
    {
      Memsys.icache = Memsys.Cache.stats ic;
      dcache_read =
        { Memsys.accesses = !dreads; misses = !dread_miss; words_transferred = 0 };
      dcache_write =
        {
          Memsys.accesses = !dwrites;
          misses = !dwrite_miss;
          words_transferred = 0;
        };
    }

  let pipelines rd cfgs img =
    let pipes =
      Array.of_list (List.map (fun cfg -> Pipeline.create cfg img) cfgs)
    in
    let n = Array.length pipes in
    Trace.Reader.iter rd (fun ~pc ~dinfo ->
        for k = 0 to n - 1 do
          Pipeline.step (Array.unsafe_get pipes k) ~iaddr:pc ~dinfo
        done);
    Array.to_list (Array.map Pipeline.result pipes)
end
