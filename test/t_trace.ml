(* The trace subsystem (lib/trace): property-style roundtrips of the
   delta+varint chunked encoding, corruption detection, and the
   differential gate — trace-replayed memory-system counters and pipeline
   cycle totals must be EXACTLY equal to direct execution on every suite
   benchmark and both paper machines, with chunk-parallel replay equal to
   sequential replay. *)

module Machine = Repro_sim.Machine
module Memsys = Repro_sim.Memsys
module Target = Repro_core.Target
module Suite = Repro_workloads.Suite
module Compile = Repro_harness.Compile
module Pool = Repro_harness.Pool
module Uarch = Repro_uarch.Uarch
module Uconfig = Repro_uarch.Uconfig
module Pipeline = Repro_uarch.Pipeline
module Stalls = Repro_uarch.Stalls
module Trace = Repro_trace.Trace
module Replay = Repro_trace.Replay
module Reader = Repro_trace.Trace.Reader
module Link = Repro_link.Link
module Runs = Repro_harness.Runs

let temp_path () = Filename.temp_file "repro-t-trace" ".trc"

let with_temp f =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Write the record stream and read it back. *)
let roundtrip ?chunk_records ?(insn_bytes = 2) records path =
  let w = Trace.Writer.create ?chunk_records ~insn_bytes path in
  List.iter (fun (pc, dinfo) -> Trace.Writer.step w ~pc ~dinfo) records;
  Trace.Writer.close w;
  match Reader.open_file path with
  | Error e -> Alcotest.fail e
  | Ok rd ->
    let out = ref [] in
    Reader.iter rd (fun ~pc ~dinfo -> out := (pc, dinfo) :: !out);
    (rd, List.rev !out)

(* Synthetic streams: arbitrary non-monotonic pcs and data refs, so the
   zigzag deltas see negative jumps; tiny chunks force many boundaries. *)
let gen_record =
  let open QCheck.Gen in
  let* pc = int_bound 0xFF_FFFF in
  let* dinfo =
    frequency
      [
        (2, return 0);
        ( 3,
          let* addr = int_bound 0xF_FFFF in
          let* bytes = oneofl [ 1; 2; 4; 8 ] in
          let* w = bool in
          return ((addr lsl 5) lor (bytes lsl 1) lor Bool.to_int w) );
      ]
  in
  return (pc, dinfo)

let synthetic_roundtrip =
  QCheck.Test.make ~name:"synthetic streams roundtrip across chunk boundaries"
    ~count:60
    (QCheck.make
       QCheck.Gen.(list_size (int_bound 200) gen_record))
    (fun records ->
      with_temp (fun path ->
          let rd, out = roundtrip ~chunk_records:7 records path in
          let n = List.length records in
          out = records
          && Reader.n_records rd = n
          && Reader.n_chunks rd = ((n + 6) / 7)
          && (n = 0
             || (Reader.chunk rd 0).Reader.start_pc = fst (List.hd records))))

(* Degenerate chunking: one record per chunk maximizes boundaries (every
   record restarts the delta predictors and lands exactly on a flush). *)
let synthetic_roundtrip_chunk1 =
  QCheck.Test.make ~name:"chunk_records=1: every record its own chunk"
    ~count:40
    (QCheck.make QCheck.Gen.(list_size (int_bound 80) gen_record))
    (fun records ->
      with_temp (fun path ->
          let rd, out = roundtrip ~chunk_records:1 records path in
          out = records
          && Reader.n_chunks rd = List.length records
          && List.for_all
               (fun i -> (Reader.chunk rd i).Reader.n_records = 1)
               (List.init (Reader.n_chunks rd) Fun.id)))

(* Record counts that are exact multiples of chunk_records: the final
   record triggers the deferred flush itself, so close must not emit an
   empty trailing chunk (and one-off counts around the boundary must
   produce the extra chunk). *)
let test_exact_flush_boundary () =
  let record i = ((i * 6) land 0xFFFF, if i land 3 = 0 then 0 else (i lsl 5) lor 9) in
  List.iter
    (fun (n, chunk_records, want_chunks) ->
      with_temp (fun path ->
          let records = List.init n record in
          let rd, out = roundtrip ~chunk_records records path in
          let label = Printf.sprintf "n=%d cr=%d" n chunk_records in
          Alcotest.(check int) (label ^ " chunks") want_chunks
            (Reader.n_chunks rd);
          Alcotest.(check bool) (label ^ " identity") true (out = records)))
    [ (8, 8, 1); (16, 8, 2); (15, 8, 2); (17, 8, 3); (3, 1, 3); (24, 8, 3) ]

(* Worst-case records (alternating huge pc and data-address deltas, so
   nearly every varint runs 8-9 bytes) overflow the writer's preallocated
   scratch mid-chunk and force it to double — the growth path must be
   byte-transparent.  The adversarial stream mixes far pc jumps with
   sequential code and multi-byte data deltas (~4.7 bytes/record), so
   its 512-record chunks outgrow the 2 KiB scratch at an irregular
   point; tiny chunks take the same stream through many flushes. *)
let test_scratch_growth () =
  let big = 1 lsl 49 in
  let records =
    List.init 600 (fun i ->
        if i land 1 = 0 then (0, 0) else (big, (big lsl 5) lor (8 lsl 1)))
  in
  with_temp (fun path ->
      let rd, out = roundtrip ~chunk_records:512 records path in
      Alcotest.(check int) "chunks" 2 (Reader.n_chunks rd);
      Alcotest.(check bool) "identity" true (out = records));
  let adversarial =
    List.init 2_000 (fun i ->
        let pc = if i mod 5 = 0 then (i * 9931) land 0xFF_FFFF else i * 2 in
        let dinfo =
          if i mod 2 = 0 then 0
          else (((i * 7919) land 0xF_FFFF) lsl 5) lor (8 lsl 1) lor (i land 1)
        in
        (pc, dinfo))
  in
  List.iter
    (fun chunk_records ->
      with_temp (fun path ->
          let rd, out = roundtrip ~chunk_records adversarial path in
          Alcotest.(check bool)
            (Printf.sprintf "adversarial chunk_records=%d identity"
               chunk_records)
            true
            (out = adversarial && Reader.verify rd = Ok ())))
    [ 1; 7; 512 ]

(* The grid engine on synthetic streams: non-monotonic, unaligned pcs
   (forcing the raw i-stream path), tiny chunks forcing many
   reconciliation boundaries, and a sub-block smaller than a word.
   Sequential and chunk-parallel grid replay must both equal N
   independent per-geometry replays. *)
let cache_pair (size, block, sub) =
  let cfg = Memsys.cache_config ~size ~block ~sub in
  { Replay.icache = cfg; dcache = cfg }

let seq_cached rd (p : Replay.cache_pair) =
  Replay.Seq.cached ~icache:p.Replay.icache ~dcache:p.Replay.dcache rd

let grid_equals_cached rd geometries ~jobs =
  let caches = List.map cache_pair geometries in
  (* The expectation comes from the plain per-record reference loop
     ([Replay.Seq]), which shares nothing with the chunked framework. *)
  let expect = List.map (seq_cached rd) caches in
  let cacheds ?map caches =
    (Replay.run ?map rd { Replay.empty with caches }).Replay.cacheds
  in
  let single = List.concat_map (fun p -> cacheds [ p ]) caches in
  let seq = cacheds caches in
  let par = cacheds ~map:(fun f xs -> Pool.map ~jobs f xs) caches in
  (seq = expect && single = expect, par = expect)

let synthetic_grid =
  let geometries = [ (32, 4, 2); (64, 8, 8); (256, 16, 4); (1024, 32, 32) ] in
  QCheck.Test.make
    ~name:"grid replay equals per-geometry replay on synthetic streams"
    ~count:40
    (QCheck.make QCheck.Gen.(list_size (int_bound 300) gen_record))
    (fun records ->
      with_temp (fun path ->
          let rd, _ = roundtrip ~chunk_records:16 records path in
          let seq_ok, par_ok = grid_equals_cached rd geometries ~jobs:3 in
          seq_ok && par_ok))

(* The pipeline grid on synthetic traces: pcs are real instruction
   addresses of a compiled image (so descriptors exist) but in arbitrary
   generated order, and the chunk length (5) sits below the scoreboard's
   drain horizon, so no chunk can ever converge — every boundary takes
   the provably-exact sequential re-step fallback.  The config list
   stresses the raw fetch paths (2-byte bus, sub-word sub-blocks)
   alongside the run-length ones. *)
let synthetic_upipelines =
  let images =
    lazy
      (List.map
         (fun t -> (t, Compile.compile t (Suite.find "towers").Suite.source))
         [ Target.d16; Target.dlxe ])
  in
  let cfgs =
    [
      Uconfig.nocache ~bus_bytes:2 ~wait_states:3;
      Uconfig.nocache ~bus_bytes:8 ~wait_states:1;
      (let c = Memsys.cache_config ~size:256 ~block:16 ~sub:2 in
       Uconfig.cached ~icache:c ~dcache:c ~miss_penalty:5);
      (let c = Memsys.cache_config ~size:1024 ~block:32 ~sub:4 in
       Uconfig.cached ~icache:c ~dcache:c ~miss_penalty:8);
    ]
  in
  let all_axis_geos = [ (256, 16, 2); (1024, 32, 4); (64, 8, 8) ] in
  QCheck.Test.make
    ~name:"pipeline grid equals sequential replay on synthetic traces"
    ~count:25
    (QCheck.make QCheck.Gen.(list_size (int_bound 150) gen_record))
    (fun records ->
      List.for_all
        (fun ((t : Target.t), (img : Link.image)) ->
          let n = Array.length img.Link.addr_of in
          let records =
            List.map
              (fun (raw, dinfo) -> (img.Link.addr_of.(raw mod n), dinfo))
              records
          in
          with_temp (fun path ->
              let rd, _ =
                roundtrip ~chunk_records:5 ~insn_bytes:(Target.insn_bytes t)
                  records path
              in
              let expect = Replay.Seq.pipelines rd cfgs img in
              let run ?map spec = Replay.run ?map ~img rd spec in
              let par = Some (fun f xs -> Pool.map ~jobs:3 f xs) in
              (* Pipelines alone, and every axis at once: the caches
                 include both cached configurations' pairs, so those
                 automatons are shared between two axes. *)
              let pipes_only = { Replay.empty with pipelines = cfgs } in
              let all_axes =
                {
                  Replay.buses = [ 2; 8 ];
                  caches = List.map cache_pair all_axis_geos;
                  pipelines = cfgs;
                }
              in
              let all_expect =
                {
                  Replay.nocaches =
                    List.map
                      (fun bus -> Replay.Seq.nocache rd ~bus_bytes:bus)
                      all_axes.Replay.buses;
                  cacheds = List.map (seq_cached rd) all_axes.Replay.caches;
                  pipes = expect;
                }
              in
              List.for_all
                (fun map ->
                  (run ?map pipes_only).Replay.pipes = expect
                  && run ?map all_axes = all_expect)
                [ None; par ]))
        (Lazy.force images))

(* The Chunked functor itself, on a synthetic automaton with no
   microarchitecture behind it: a decaying stall counter.  Every record
   with positive slack stalls and decays it; any nonzero pc divisible by
   [period] resets slack to [horizon].  A cold chunk converges at the first reset
   (the state becomes carried-independent) or after [horizon] records
   (any warm slack has decayed away) — bounded-horizon reconciliation in
   miniature, with the no-convergence whole-chunk re-step fallback
   exercised by a period larger than any generated pc. *)
module Counter_auto = struct
  type cfg = { period : int; horizon : int }

  type auto = {
    c : cfg;
    mutable slack : int;
    mutable stalls : int;
    mutable seen : int;
    mutable conv : int option;
    mutable prefix : int list;  (* reversed pcs before convergence *)
    mutable stalls_at_conv : int;
  }

  type summary = {
    s_conv : int option;
    s_prefix : int array;
    s_stalls_at_conv : int;
    s_stalls : int;
    s_end_slack : int;
  }

  type carry = { k : cfg; mutable k_slack : int; mutable k_stalls : int }

  let resets (c : cfg) pc = pc <> 0 && pc mod c.period = 0

  let advance (c : cfg) ~slack ~stalls pc =
    let slack, stalls =
      if slack > 0 then (slack - 1, stalls + 1) else (slack, stalls)
    in
    ((if resets c pc then c.horizon else slack), stalls)

  let chunk_start c =
    {
      c; slack = 0; stalls = 0; seen = 0; conv = None; prefix = [];
      stalls_at_conv = 0;
    }

  let step a (d : Replay.Decoded.t) =
    Array.iter
      (fun pc ->
        if a.conv = None then a.prefix <- pc :: a.prefix;
        let slack, stalls = advance a.c ~slack:a.slack ~stalls:a.stalls pc in
        a.slack <- slack;
        a.stalls <- stalls;
        a.seen <- a.seen + 1;
        if a.conv = None && (resets a.c pc || a.seen >= a.c.horizon)
        then begin
          a.conv <- Some a.seen;
          a.stalls_at_conv <- a.stalls
        end)
      d.Replay.Decoded.pcs

  let snapshot a =
    {
      s_conv = a.conv;
      s_prefix = Array.of_list (List.rev a.prefix);
      s_stalls_at_conv =
        (match a.conv with Some _ -> a.stalls_at_conv | None -> a.stalls);
      s_stalls = a.stalls;
      s_end_slack = a.slack;
    }

  let converged s = s.s_conv <> None
  let carry c = { k = c; k_slack = 0; k_stalls = 0 }

  let absorb k s =
    (* Re-step the pre-convergence prefix warm (the whole chunk if it
       never converged), then adopt the cold suffix verbatim. *)
    Array.iter
      (fun pc ->
        let slack, stalls = advance k.k ~slack:k.k_slack ~stalls:k.k_stalls pc in
        k.k_slack <- slack;
        k.k_stalls <- stalls)
      s.s_prefix;
    match s.s_conv with
    | None -> ()
    | Some _ ->
      k.k_stalls <- k.k_stalls + (s.s_stalls - s.s_stalls_at_conv);
      k.k_slack <- s.s_end_slack
end

module Counter_chunked = Replay.Chunked (Counter_auto)

let counter_direct (c : Counter_auto.cfg) records =
  List.fold_left
    (fun (slack, stalls) (pc, _) -> Counter_auto.advance c ~slack ~stalls pc)
    (0, 0) records

let synthetic_counter =
  let cfgs =
    [|
      { Counter_auto.period = 5; horizon = 9 };
      { Counter_auto.period = 7; horizon = 3 };
      (* Larger than any generated pc: never resets, so only chunks long
         enough to outlive the horizon converge. *)
      { Counter_auto.period = 0x1FF_FFFF; horizon = 4 };
    |]
  in
  QCheck.Test.make
    ~name:"Chunked functor: synthetic counter, parallel = sequential = direct"
    ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_bound 200) gen_record))
    (fun records ->
      with_temp (fun path ->
          let rd, _ = roundtrip ~chunk_records:7 records path in
          let state (k : Counter_auto.carry) =
            (k.Counter_auto.k_slack, k.Counter_auto.k_stalls)
          in
          let seq = Array.map state (Counter_chunked.run rd cfgs) in
          let par =
            Array.map state
              (Counter_chunked.run
                 ~map:(fun f xs -> Pool.map ~jobs:3 f xs)
                 rd cfgs)
          in
          let direct = Array.map (fun c -> counter_direct c records) cfgs in
          (* The convergence hook: the never-resetting config converges
             exactly on chunks that outlive its horizon. *)
          let horizons_ok =
            List.for_all
              (fun i ->
                let s = (Counter_chunked.chunk cfgs rd i).(2) in
                Counter_auto.converged s
                = ((Reader.chunk rd i).Reader.n_records >= 4))
              (List.init (Reader.n_chunks rd) Fun.id)
          in
          seq = direct && par = direct && horizons_ok))

(* Real compiled programs, via the statement fuzzer's generator. *)
let progfuzz_roundtrip () =
  let progs =
    QCheck.Gen.generate ~n:6 ~rand:(Random.State.make [| 42 |])
      T_progfuzz.gen_stmts
  in
  List.iter
    (fun stmts ->
      let src = T_progfuzz.program_c stmts in
      List.iter
        (fun t ->
          let _, r = Compile.compile_and_run ~trace:true t src in
          let tr = Option.get r.Machine.trace in
          let records =
            Array.to_list
              (Array.mapi (fun i a -> (a, tr.Machine.dinfo.(i))) tr.Machine.iaddr)
          in
          with_temp (fun path ->
              let _, out =
                roundtrip ~chunk_records:512
                  ~insn_bytes:(Target.insn_bytes t) records path
              in
              Alcotest.(check int)
                (t.Target.name ^ " record count")
                (List.length records) (List.length out);
              Alcotest.(check bool) (t.Target.name ^ " identity") true
                (out = records)))
        [ Target.d16; Target.dlxe ])
    progs

let test_empty_trace () =
  with_temp (fun path ->
      let rd, out = roundtrip [] path in
      Alcotest.(check int) "no records" 0 (Reader.n_records rd);
      Alcotest.(check int) "no chunks" 0 (Reader.n_chunks rd);
      Alcotest.(check bool) "empty" true (out = []))

let test_writer_validation () =
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | w ->
      Trace.Writer.abort w;
      Alcotest.fail (name ^ " accepted")
  in
  with_temp (fun path ->
      rejects "chunk_records 0" (fun () ->
          Trace.Writer.create ~chunk_records:0 ~insn_bytes:2 path);
      rejects "insn_bytes 3" (fun () -> Trace.Writer.create ~insn_bytes:3 path))

(* Corruption: any tampering must read as an error or a Corrupt raise,
   never as records.  Structural and footer damage is detected at open,
   payload damage at the damaged chunk's first decode. *)

let corruption_records = List.init 1000 (fun i -> ((i * 2) land 0xFFFF, 0))

let mangle path f =
  let contents =
    In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string
  in
  let contents = f contents in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc contents)

let flip i b =
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  b

let expect_error name path =
  match Reader.open_file path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (name ^ ": corrupt trace opened")

(* Tampering that must refuse at open. *)
let corruption_common path =
  let records = corruption_records in
  let fresh () = ignore (roundtrip ~chunk_records:64 records path) in
  fresh ();
  (match Reader.open_file path with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Truncation (mid-chunk: half the file is inside the payload). *)
  mangle path (fun b -> Bytes.sub b 0 (Bytes.length b / 2));
  expect_error "truncation" path;
  (* Version skew: an unknown future version. *)
  fresh ();
  mangle path (fun b ->
      Bytes.set b 8 (Char.chr (Trace.format_version + 1));
      b);
  expect_error "future version" path;
  (* An older version: a valid file relabelled as version 1 (the retired
     MD5-footer format) must refuse, so the trace store re-captures. *)
  fresh ();
  mangle path (fun b ->
      Bytes.set b 8 '\001';
      b);
  expect_error "relabelled as version 1" path;
  (* Bit flip inside the footer index varints. *)
  fresh ();
  mangle path (fun b ->
      let contents = Bytes.to_string b in
      let footer_offset =
        Int64.to_int
          (Bytes.get_int64_le (Bytes.of_string contents)
             (String.length contents - 16))
      in
      flip (footer_offset + 2) b);
  expect_error "index bit flip" path;
  (* Degenerate sizes: a zero-byte file cannot even be mapped, and a few
     stray bytes are shorter than the header — errors, not crashes. *)
  mangle path (fun _ -> Bytes.empty);
  expect_error "empty file" path;
  mangle path (fun _ -> Bytes.of_string "REPRO");
  expect_error "tiny file" path;
  expect_error "missing file" (path ^ ".does-not-exist")

(* Footer damage (index varints, a chunk's stored crc field, the
   footer's own crc) refuses at open; payload damage opens — open is
   O(footer) by design — and is caught at the damaged chunk's first
   decode, by iteration ([Corrupt]) and by [verify]. *)
let test_corruption () =
  with_temp (fun path ->
      corruption_common path;
      let fresh () =
        ignore (roundtrip ~chunk_records:64 corruption_records path)
      in
      (* Stored chunk-crc field flip: the last index entry's 4-byte crc
         sits immediately before the footer crc (4) and trailer (16). *)
      fresh ();
      mangle path (fun b -> flip (Bytes.length b - 21) b);
      expect_error "v2 chunk-crc field flip" path;
      (* Footer-crc field flip. *)
      fresh ();
      mangle path (fun b -> flip (Bytes.length b - 17) b);
      expect_error "v2 footer-crc flip" path;
      (* Payload flip: opens, then the damaged chunk refuses on first
         touch while undamaged chunks keep decoding. *)
      fresh ();
      mangle path (fun b -> flip (Bytes.length b / 2) b);
      (match Reader.open_file path with
      | Error e -> Alcotest.fail ("v2 payload flip should open: " ^ e)
      | Ok rd ->
        let bad =
          (* Locate the damaged chunk from the flip position. *)
          let size = Reader.byte_size rd in
          let rec find i =
            if i >= Reader.n_chunks rd then Alcotest.fail "flip not in payload"
            else
              let c = Reader.chunk rd i in
              if
                size / 2 >= c.Reader.byte_offset
                && size / 2 < c.Reader.byte_offset + c.Reader.byte_length
              then i
              else find (i + 1)
          in
          find 0
        in
        Alcotest.(check bool) "undamaged chunk decodes" true
          (let good = if bad = 0 then Reader.n_chunks rd - 1 else 0 in
           match Reader.iter_chunk rd good (fun ~pc:_ ~dinfo:_ -> ()) with
           | () -> true
           | exception Reader.Corrupt _ -> false);
        (match Reader.iter_chunk rd bad (fun ~pc:_ ~dinfo:_ -> ()) with
        | () -> Alcotest.fail "damaged chunk decoded"
        | exception Reader.Corrupt _ -> ());
        (match Reader.iter rd (fun ~pc:_ ~dinfo:_ -> ()) with
        | () -> Alcotest.fail "full iteration over damaged trace succeeded"
        | exception Reader.Corrupt _ -> ());
        (* An empty replay spec asks for nothing, so it must not decode
           (and trip over) the damaged chunk; one bus must. *)
        Alcotest.(check bool) "empty spec replays nothing" true
          (Replay.run rd Replay.empty
          = { Replay.nocaches = []; cacheds = []; pipes = [] });
        (match Replay.run rd { Replay.empty with buses = [ 4 ] } with
        | _ -> Alcotest.fail "one-bus replay over damaged trace succeeded"
        | exception Reader.Corrupt _ -> ());
        match Reader.verify rd with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "verify passed a damaged payload");
      (* And a pristine v2 file fully verifies on demand. *)
      fresh ();
      match Reader.open_file path with
      | Error e -> Alcotest.fail e
      | Ok rd ->
        Alcotest.(check (result unit string)) "pristine verifies" (Ok ())
          (Reader.verify rd))

(* Published traces are immutable (temp file + rename), so the reader
   maps the file and trusts the pages.  Unlinking a mapped trace must not
   disturb an open reader: POSIX keeps the pages valid until unmap.  The
   property store's eviction relies on this. *)
let test_unlink_while_mapped () =
  let records = List.init 5_000 (fun i -> ((i * 2) land 0xFFFF, 0)) in
  with_temp (fun path ->
      let w = Trace.Writer.create ~chunk_records:512 ~insn_bytes:2 path in
      List.iter (fun (pc, dinfo) -> Trace.Writer.step w ~pc ~dinfo) records;
      Trace.Writer.close w;
      let rd =
        match Reader.open_file path with
        | Ok rd -> rd
        | Error e -> Alcotest.fail e
      in
      Sys.remove path;
      let out = ref [] in
      Reader.iter rd (fun ~pc ~dinfo -> out := (pc, dinfo) :: !out);
      Alcotest.(check bool)
        "decodes after unlink" true
        (List.rev !out = records))

(* The differential gate (acceptance criterion): replayed Memsys counters
   and pipeline totals exactly equal direct execution, chunk-parallel
   equals sequential. *)

let cache_points = [ (1024, 32, 4, 8); (4096, 64, 8, 12) ]

let differential bench (t : Target.t) =
  let src = (Suite.find bench).Suite.source in
  let img = Compile.compile t src in
  with_temp (fun path ->
      (* One execution: materialized arrays for the direct path and a
         streamed capture for the trace path. *)
      let w =
        Trace.Writer.create ~chunk_records:10_000
          ~insn_bytes:(Target.insn_bytes t) path
      in
      let r =
        Machine.run ~trace:true
          ~on_insn:(fun ~iaddr ~dinfo -> Trace.Writer.step w ~pc:iaddr ~dinfo)
          img
      in
      Trace.Writer.close w;
      let rd =
        match Reader.open_file path with
        | Ok rd -> rd
        | Error e -> Alcotest.fail e
      in
      let name fmt =
        Printf.ksprintf (fun s -> bench ^ " " ^ t.Target.name ^ " " ^ s) fmt
      in
      Alcotest.(check int) (name "records = ic") r.Machine.ic
        (Reader.n_records rd);
      (* Fetch-buffer counters: the reference per-record loop, the chunked
         engine sequential, and the chunked engine parallel all equal
         direct execution. *)
      List.iter
        (fun bus ->
          let direct = Memsys.replay_nocache ~bus_bytes:bus r in
          let reference = Replay.Seq.nocache rd ~bus_bytes:bus in
          let nocache ?map () =
            List.hd
              (Replay.run ?map rd { Replay.empty with buses = [ bus ] })
                .Replay.nocaches
          in
          let seq = nocache () in
          let par = nocache ~map:(fun f xs -> Pool.map ~jobs:3 f xs) () in
          Alcotest.(check int)
            (name "bus=%d ireq ref" bus)
            direct.Memsys.irequests reference.Memsys.irequests;
          Alcotest.(check int)
            (name "bus=%d dreq ref" bus)
            direct.Memsys.drequests reference.Memsys.drequests;
          Alcotest.(check int)
            (name "bus=%d ireq seq" bus)
            direct.Memsys.irequests seq.Memsys.irequests;
          Alcotest.(check int)
            (name "bus=%d dreq seq" bus)
            direct.Memsys.drequests seq.Memsys.drequests;
          Alcotest.(check int)
            (name "bus=%d ireq par" bus)
            direct.Memsys.irequests par.Memsys.irequests;
          Alcotest.(check int)
            (name "bus=%d dreq par" bus)
            direct.Memsys.drequests par.Memsys.drequests)
        [ 4; 8 ];
      (* Cache replay: counters field-for-field, cycles via the paper's
         formula. *)
      List.iter
        (fun (size, block, sub, penalty) ->
          let cfg = Memsys.cache_config ~size ~block ~sub in
          let direct =
            Memsys.replay_cached
              ~insn_bytes:(Target.insn_bytes t)
              ~icache:cfg ~dcache:cfg r
          in
          let replayed =
            List.hd
              (Replay.run rd
                 {
                   Replay.empty with
                   caches = [ cache_pair (size, block, sub) ];
                 })
                .Replay.cacheds
          in
          let geo = Printf.sprintf "%d/%d/%d" size block sub in
          Alcotest.(check bool) (name "%s cached equal" geo) true
            (direct = replayed);
          Alcotest.(check int)
            (name "%s cycles" geo)
            (Memsys.cached_cycles ~miss_penalty:penalty r direct)
            (Memsys.cached_cycles ~miss_penalty:penalty r replayed))
        cache_points;
      (* Grid engine: one decode feeding every geometry — sequential and
         chunk-parallel both equal to independent per-geometry replays.
         The list stresses the automaton's edges: sub == block (whole-block
         fills), a single-set cache, a sub-block smaller than a word
         (raw i-stream path), and tiny blocks.  The last two are the
         standard sweep's cache pairs, so in the all-axis run below they
         share their automatons with pipeline configurations. *)
      let grid_geos =
        [
          (1024, 32, 4); (4096, 64, 8); (1024, 32, 32); (64, 64, 8);
          (64, 64, 64); (128, 8, 4); (64, 4, 2); (4096, 32, 4);
          (16384, 32, 4);
        ]
      in
      let seq_ok, par_ok = grid_equals_cached rd grid_geos ~jobs:3 in
      Alcotest.(check bool) (name "grid sequential equal") true seq_ok;
      Alcotest.(check bool) (name "grid parallel equal") true par_ok;
      (* Pipeline model: the streamed run, the sequential per-config trace
         replay and the multi-config grid engine (sequential and
         chunk-parallel) all integer-equal on the standard sweep. *)
      let cfgs = Runs.standard_uarch_configs in
      let _, streamed = Uarch.run_many cfgs img in
      let replayed = Replay.Seq.pipelines rd cfgs img in
      let pipes ?map () =
        (Replay.run ?map ~img rd { Replay.empty with pipelines = cfgs })
          .Replay.pipes
      in
      let useq = pipes () in
      let upar = pipes ~map:(fun f xs -> Pool.map ~jobs:3 f xs) () in
      List.iteri
        (fun i (s : Pipeline.result) ->
          let d = Uconfig.describe (List.nth cfgs i) in
          let against what (p : Pipeline.result) =
            Alcotest.(check string)
              (name "%s %s stalls" d what)
              (Stalls.to_string s.Pipeline.stalls)
              (Stalls.to_string p.Pipeline.stalls);
            Alcotest.(check bool)
              (name "%s %s caches" d what)
              true
              (s.Pipeline.caches = p.Pipeline.caches)
          in
          against "replay" (List.nth replayed i);
          against "grid seq" (List.nth useq i);
          against "grid par" (List.nth upar i))
        streamed;
      (* Every axis at once from one decode: each sub-result byte-equal
         to direct execution / the reference loops, sequential and
         chunk-parallel. *)
      let spec =
        {
          Replay.buses = [ 4; 8 ];
          caches = List.map cache_pair grid_geos;
          pipelines = cfgs;
        }
      in
      let check_all what (f : Replay.result) =
        List.iter2
          (fun bus nc ->
            Alcotest.(check bool)
              (name "all-axis %s bus=%d" what bus)
              true
              (nc = Memsys.replay_nocache ~bus_bytes:bus r))
          spec.Replay.buses f.Replay.nocaches;
        List.iter2
          (fun p c ->
            Alcotest.(check bool)
              (name "all-axis %s cached" what)
              true
              (c = seq_cached rd p))
          spec.Replay.caches f.Replay.cacheds;
        List.iteri
          (fun i (p : Pipeline.result) ->
            let s = List.nth streamed i in
            Alcotest.(check string)
              (name "all-axis %s pipe %d stalls" what i)
              (Stalls.to_string s.Pipeline.stalls)
              (Stalls.to_string p.Pipeline.stalls);
            Alcotest.(check bool)
              (name "all-axis %s pipe %d caches" what i)
              true
              (s.Pipeline.caches = p.Pipeline.caches))
          f.Replay.pipes
      in
      check_all "seq" (Replay.run ~img rd spec);
      check_all "par"
        (Replay.run ~map:(fun f xs -> Pool.map ~jobs:3 f xs) ~img rd spec);
      (match Replay.run rd { spec with Replay.buses = [ 4 ] } with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (name "Replay.run without ~img accepted")))

(* Two domains capture the same path at the same moment, many rounds
   over: each writes its own temp file, the last rename wins, and the
   file left behind is a complete, verifying trace. *)
let test_two_domains_capture () =
  with_temp (fun path ->
      for round = 1 to 12 do
        let one () =
          let w = Trace.Writer.create ~chunk_records:1 ~insn_bytes:4 path in
          Trace.Writer.step w ~pc:0 ~dinfo:0;
          Trace.Writer.close w
        in
        let d1 = Domain.spawn one and d2 = Domain.spawn one in
        Domain.join d1;
        Domain.join d2;
        match Reader.open_file path with
        | Ok rd when Reader.n_records rd = 1 && Reader.verify rd = Ok () -> ()
        | Ok _ -> Alcotest.failf "round %d: wrong or unverified trace" round
        | Error e -> Alcotest.failf "round %d: %s" round e
      done)

(* Two processes capture the same path: a second process
   (test/writer_race.ml, started with [create_process] rather than [fork]
   because the suite runs domains) writes and closes its own capture
   while this process's writer is still open.  Both run on domain 0, so
   only the process id keeps their temp files apart.  Both closes must
   succeed, and the file left behind is this process's capture (the
   last rename), complete and verifying. *)
let test_two_processes_capture () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "writer_race.exe"
  in
  with_temp (fun path ->
      let w = Trace.Writer.create ~chunk_records:64 ~insn_bytes:4 path in
      for i = 0 to 299 do
        Trace.Writer.step w ~pc:(4 * i) ~dinfo:0
      done;
      let pid =
        Unix.create_process exe [| exe; path |] Unix.stdin Unix.stdout
          Unix.stderr
      in
      (match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "second process exited %d" n
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
        Alcotest.failf "second process killed by signal %d" s);
      for i = 300 to 599 do
        Trace.Writer.step w ~pc:(4 * i) ~dinfo:0
      done;
      Trace.Writer.close w;
      match Reader.open_file path with
      | Error e -> Alcotest.fail e
      | Ok rd ->
        Alcotest.(check int) "last capture wins" 600 (Reader.n_records rd);
        Alcotest.(check (result unit string)) "verifies" (Ok ())
          (Reader.verify rd))

let differential_case bench =
  Alcotest.test_case ("differential " ^ bench) `Slow (fun () ->
      List.iter (differential bench) [ Target.d16; Target.dlxe ])

let tests =
  [
    QCheck_alcotest.to_alcotest synthetic_roundtrip;
    QCheck_alcotest.to_alcotest synthetic_roundtrip_chunk1;
    Alcotest.test_case "exact flush boundaries" `Quick test_exact_flush_boundary;
    Alcotest.test_case "scratch growth" `Quick test_scratch_growth;
    QCheck_alcotest.to_alcotest synthetic_grid;
    QCheck_alcotest.to_alcotest synthetic_upipelines;
    QCheck_alcotest.to_alcotest synthetic_counter;
    Alcotest.test_case "compiled programs roundtrip" `Slow progfuzz_roundtrip;
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    Alcotest.test_case "writer validation" `Quick test_writer_validation;
    Alcotest.test_case "corruption detected (v2)" `Quick test_corruption;
    Alcotest.test_case "unlink while mapped" `Quick test_unlink_while_mapped;
    Alcotest.test_case "two domains capture at once" `Quick
      test_two_domains_capture;
    Alcotest.test_case "two processes capture at once" `Quick
      test_two_processes_capture;
  ]
  @ List.map
      (fun (b : Suite.benchmark) -> differential_case b.Suite.name)
      Suite.all
