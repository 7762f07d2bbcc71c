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
   scoreboards).  Decoded chunks are cached: the varint stream is
   LEB128+zigzag and costs more to walk than the automata cost to step,
   so a sweep that touches the same chunk from several engines — or a
   parallel replay re-fanning the same chunks out per bench iteration —
   must not pay the decode repeatedly.  The cache is a small MRU of
   recently-replayed readers (keyed by physical reader identity) with one
   atomic slot per chunk: the slot is filled outside any lock (decoding
   is deterministic, so a racing double-decode is just redundant work,
   never wrong), and readers evicted from the MRU drop all their arrays
   at once. *)

module Decoded = struct
  type t = {
    pcs : int array;  (* every record's fetch address, in order *)
    dinfos : int array;  (* the nonzero packed data records, in order *)
    gran : int array;  (* run-length compressed i-stream: 4-byte granules *)
    cnt : int array;
    aligned : bool;  (* no fetch straddles a granule *)
    insn_bytes : int;
  }

  let of_chunk rd i =
    let insn_bytes = Trace.Reader.insn_bytes rd in
    let info = Trace.Reader.chunk rd i in
    let n = info.Trace.Reader.n_records in
    let gran = Array.make (max n 1) 0 in
    let cnt = Array.make (max n 1) 0 in
    let pcs = Array.make (max n 1) 0 in
    let dinfos = Array.make (max n 1) 0 in
    let ng = ref 0 in
    let nd = ref 0 in
    let np = ref 0 in
    let prev = ref min_int in
    let aligned = ref true in
    Trace.Reader.iter_chunk rd i (fun ~pc ~dinfo ->
        pcs.(!np) <- pc;
        incr np;
        if pc land 3 + insn_bytes > 4 then aligned := false;
        let g = pc lsr 2 in
        if g = !prev then cnt.(!ng - 1) <- cnt.(!ng - 1) + 1
        else begin
          gran.(!ng) <- g;
          cnt.(!ng) <- 1;
          incr ng;
          prev := g
        end;
        if dinfo <> 0 then begin
          dinfos.(!nd) <- dinfo;
          incr nd
        end);
    {
      pcs = Array.sub pcs 0 !np;
      dinfos = Array.sub dinfos 0 !nd;
      gran = Array.sub gran 0 !ng;
      cnt = Array.sub cnt 0 !ng;
      aligned = !aligned;
      insn_bytes;
    }

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

(* The Automaton framework. ------------------------------------------------- *)

module type Automaton = sig
  type cfg
  type auto
  type summary
  type carry

  val chunk_start : cfg -> auto
  val step : auto -> Decoded.t -> unit
  val snapshot : auto -> summary
  val converged : summary -> bool
  val carry : cfg -> carry
  val absorb : carry -> summary -> unit
end

module Chunked (A : Automaton) = struct
  type chunk_result = A.summary array

  let chunk (cfgs : A.cfg array) rd i =
    let d = Decoded.get rd i in
    Array.map
      (fun cfg ->
        let a = A.chunk_start cfg in
        A.step a d;
        A.snapshot a)
      cfgs

  let merge (cfgs : A.cfg array) (chunks : chunk_result list) =
    let carries = Array.map A.carry cfgs in
    List.iter
      (fun (r : chunk_result) -> Array.iteri (fun j s -> A.absorb carries.(j) s) r)
      chunks;
    carries

  let run ?map rd (cfgs : A.cfg array) =
    let ids = List.init (Trace.Reader.n_chunks rd) Fun.id in
    match map with
    | Some m -> merge cfgs (m (chunk cfgs rd) ids)
    | None ->
      (* Sequential replay absorbs each chunk's summaries as they are
         produced: identical to [merge] over the full list (absorption
         happens in the same chunk order), but the per-chunk summary
         arrays — per-config prefix logs included — die young instead of
         accumulating across the whole trace.  At wide sweeps (16 cache
         geometries) the retained-list version's live set scaled as
         chunks x configs and dominated the run in GC work. *)
      let carries = Array.map A.carry cfgs in
      List.iter
        (fun i ->
          let r = chunk cfgs rd i in
          Array.iteri (fun j s -> A.absorb carries.(j) s) r)
        ids;
      carries
end

(* The unified engine. -------------------------------------------------------

   One automaton covers every shipped replay: the memory-facing models
   (fetch buffer, split I/D caches — both are {!Pipeline.Mem} behaviour
   classes, reconciled by boundary-fetch cancellation or the cache's
   prefix log) and the scoreboard (bounded-horizon convergence).  A
   configuration list mixing [Cmem] and [Cscore] entries is exactly the
   fused cross-product sweep, and {!run} below projects this engine's
   carries onto the axes of its spec. *)

module Engine = struct
  type cfg =
    | Cmem of { key : Mem.key; insn_bytes : int }
    | Cscore of { img : Link.image; descs : Predecode.desc array }

  type auto =
    | Amem of { a : Mem.auto; key : Mem.key }
    | Ascore of {
        ch : Scoreboard.chunk;
        img : Link.image;
        descs : Predecode.desc array;
      }

  type summary =
    | Smem of Mem.summary
    | Sscore of { s : Scoreboard.summary; converged : bool }

  type carry =
    | Kmem of Mem.carry
    | Kscore of { sb : Scoreboard.t; descs : Predecode.desc array }

  let chunk_start = function
    | Cmem { key; insn_bytes } -> Amem { a = Mem.chunk_start ~insn_bytes key; key }
    | Cscore { img; descs } ->
      let t = img.Link.target in
      Ascore
        {
          ch = Scoreboard.chunk_start ~n_gpr:t.Target.n_gpr ~n_fpr:t.Target.n_fpr;
          img;
          descs;
        }

  let step a (d : Decoded.t) =
    match a with
    | Amem { a; key } ->
      (if Mem.fetch_run_ok ~aligned:d.Decoded.aligned key then begin
         let gran = d.Decoded.gran and cnt = d.Decoded.cnt in
         for k = 0 to Array.length gran - 1 do
           Mem.fetch_run a
             ~addr:(Array.unsafe_get gran k lsl 2)
             ~count:(Array.unsafe_get cnt k)
         done
       end
       else begin
         let pcs = d.Decoded.pcs in
         for k = 0 to Array.length pcs - 1 do
           Mem.fetch a ~addr:(Array.unsafe_get pcs k)
         done
       end);
      let dinfos = d.Decoded.dinfos in
      for k = 0 to Array.length dinfos - 1 do
        Mem.data a ~dinfo:(Array.unsafe_get dinfos k)
      done
    | Ascore { ch; img; descs } ->
      let pcs = d.Decoded.pcs in
      for k = 0 to Array.length pcs - 1 do
        (* Strip the wide-instruction mark (bit 0) before the index
           lookup; the scoreboard itself is size-blind. *)
        let idx = Link.index_at img (Array.unsafe_get pcs k land lnot 1) in
        Scoreboard.chunk_step ch ~index:idx (Array.unsafe_get descs idx)
      done

  let snapshot = function
    | Amem { a; _ } -> Smem (Mem.chunk_finish a)
    | Ascore { ch; _ } ->
      let converged = Scoreboard.convergence ch <> None in
      Sscore { s = Scoreboard.chunk_finish ch; converged }

  let converged = function
    | Smem _ -> true  (* prefix-log reconciliation never re-steps whole *)
    | Sscore { converged; _ } -> converged

  let carry = function
    | Cmem { key; _ } -> Kmem (Mem.carry_start key)
    | Cscore { img; descs } ->
      let t = img.Link.target in
      Kscore
        { sb = Scoreboard.create ~n_gpr:t.Target.n_gpr ~n_fpr:t.Target.n_fpr;
          descs }

  let absorb c s =
    match (c, s) with
    | Kmem c, Smem s -> Mem.absorb c s
    | Kscore { sb; descs }, Sscore { s; _ } -> Scoreboard.absorb sb descs s
    | _ -> invalid_arg "Replay: summary from a different automaton kind"
end

module E = Chunked (Engine)

type chunk_result = E.chunk_result
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

let mem_carry = function
  | Engine.Kmem c -> c
  | Engine.Kscore _ -> assert false

let run ?map ?img rd spec =
  match spec with
  | { buses = []; caches = []; pipelines = [] } ->
    { nocaches = []; cacheds = []; pipes = [] }
  | _ ->
    (* The scoreboard, when pipelines are asked for, is configuration 0
       and shared by all of them (interlocks depend only on the
       instruction stream); memory classes follow in key order. *)
    let score_cfgs =
      match (spec.pipelines, img) with
      | [], _ -> [||]
      | _ :: _, Some img ->
        [| Engine.Cscore { img; descs = Predecode.table img } |]
      | _ :: _, None ->
        invalid_arg "Replay.run: pipeline configurations need ~img"
    in
    let keys, of_item =
      dedup_keys
        (List.map nocache_key spec.buses
        @ List.map cached_key spec.caches
        @ List.map Mem.key spec.pipelines)
    in
    let insn_bytes = Trace.Reader.insn_bytes rd in
    let carries =
      E.run ?map rd
        (Array.append score_cfgs
           (Array.map (fun key -> Engine.Cmem { key; insn_bytes }) keys))
    in
    let base = Array.length score_cfgs in
    let carry_of i = mem_carry carries.(base + of_item.(i)) in
    let nb = List.length spec.buses in
    let nc = List.length spec.caches in
    let pipes =
      if base = 0 then []
      else
        match carries.(0) with
        | Engine.Kscore { sb; _ } ->
          let ic = Trace.Reader.n_records rd in
          List.mapi
            (fun i cfg ->
              Mem.charge (carry_of (nb + nc + i)) cfg ~ic
                ~interlock_clock:(Scoreboard.clock sb)
                ~load_interlocks:(Scoreboard.load_stalls sb)
                ~fp_interlocks:(Scoreboard.fp_stalls sb))
            spec.pipelines
        | Engine.Kmem _ -> assert false
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

(* Reference implementations: the plain sequential per-record loops the
   chunk engines replaced, kept as independent baselines for the
   differential suite (they share no code with the framework above). *)

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
