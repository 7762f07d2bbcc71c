(* Memory-system model tests: fetch buffering, cache hit/miss behaviour
   with sub-blocks and wrap-around prefetch, and the cycle formulas, each
   over hand-written traces replayed by both the sequential oracle and
   the chunked engine. *)

module Machine = Repro_sim.Machine
module Memsys = Repro_sim.Memsys
module Target = Repro_core.Target
module Compile = Repro_harness.Compile
module Replay = Repro_trace.Replay

(* A hand-written trace: per record its fetch address and optional data
   access [(is_write, addr, bytes)].  Three records per chunk, so the
   chunked engine reconciles across chunk boundaries even here. *)
let mk_trace ?(insn_bytes = 4) iaddrs daccs =
  let dinfo = function
    | None -> 0
    | Some (w, a, b) -> (a lsl 5) lor (b lsl 1) lor (if w then 1 else 0)
  in
  Capture.of_records ~chunk_records:3 ~insn_bytes
    (Array.to_list (Array.map2 (fun pc d -> (pc, dinfo d)) iaddrs daccs))

(* Each case's counters from both replays: the sequential oracle and the
   chunked engine. *)
let nocaches rd ~bus_bytes =
  [
    ("seq", Replay.Seq.nocache rd ~bus_bytes);
    ( "run",
      List.hd
        (Replay.run rd { Replay.empty with buses = [ bus_bytes ] })
          .Replay.nocaches );
  ]

let cacheds rd cfg =
  [
    ("seq", Replay.Seq.cached ~icache:cfg ~dcache:cfg rd);
    ( "run",
      List.hd
        (Replay.run rd
           { Replay.empty with caches = [ { Replay.icache = cfg; dcache = cfg } ] })
          .Replay.cacheds );
  ]

let check_each name expected get results =
  List.iter
    (fun (engine, c) ->
      Alcotest.(check int) (Printf.sprintf "%s (%s)" name engine) expected (get c))
    results

let irequests (nc : Memsys.nocache) = nc.Memsys.irequests
let drequests (nc : Memsys.nocache) = nc.Memsys.drequests
let imisses (c : Memsys.cached) = c.Memsys.icache.Memsys.misses

let no_data n = Array.make n None

let test_fetch_buffer () =
  (* Sequential 2-byte instructions on a 4-byte bus: one request per pair. *)
  let iaddrs = Array.init 8 (fun i -> 0x1000 + (2 * i)) in
  let rd = mk_trace ~insn_bytes:2 iaddrs (no_data 8) in
  check_each "k=2 halves requests" 4 irequests (nocaches rd ~bus_bytes:4);
  check_each "k=4 quarters requests" 2 irequests (nocaches rd ~bus_bytes:8);
  (* 4-byte instructions on a 4-byte bus: one request each. *)
  let iaddrs32 = Array.init 8 (fun i -> 0x1000 + (4 * i)) in
  check_each "k=1 is one per instruction" 8 irequests
    (nocaches (mk_trace iaddrs32 (no_data 8)) ~bus_bytes:4)

let test_fetch_buffer_branchy () =
  (* A taken branch to a new block forces a refetch even when returning. *)
  let iaddrs = [| 0x1000; 0x1002; 0x2000; 0x1000 |] in
  check_each "branch thrashes buffer" 3 irequests
    (nocaches (mk_trace ~insn_bytes:2 iaddrs (no_data 4)) ~bus_bytes:4)

let test_data_requests () =
  (* A double costs two transactions on a 32-bit bus, one on 64-bit. *)
  let iaddrs = [| 0x1000; 0x1004 |] in
  let d = [| Some (false, 0x8000, 8); Some (true, 0x8000, 4) |] in
  let rd = mk_trace iaddrs d in
  check_each "dreq 32-bit" 3 drequests (nocaches rd ~bus_bytes:4);
  check_each "dreq 64-bit" 2 drequests (nocaches rd ~bus_bytes:8)

let icfg size block sub = Memsys.cache_config ~size ~block ~sub

let test_cache_config_validation () =
  let cfg = Memsys.cache_config ~size:4096 ~block:32 ~sub:4 in
  Alcotest.(check int) "size" 4096 cfg.Memsys.size_bytes;
  Alcotest.(check int) "block" 32 cfg.Memsys.block_bytes;
  Alcotest.(check int) "sub" 4 cfg.Memsys.sub_block_bytes;
  let rejects name f =
    match f () with
    | exception Invalid_argument m ->
      Alcotest.(check bool)
        (name ^ " error is descriptive")
        true
        (String.length m > String.length "Memsys.cache_config: ")
    | _ -> Alcotest.fail (name ^ " accepted")
  in
  rejects "non-power-of-two size" (fun () ->
      Memsys.cache_config ~size:3000 ~block:32 ~sub:4);
  rejects "non-power-of-two block" (fun () ->
      Memsys.cache_config ~size:4096 ~block:24 ~sub:4);
  rejects "non-power-of-two sub" (fun () ->
      Memsys.cache_config ~size:4096 ~block:32 ~sub:3);
  rejects "zero sub" (fun () -> Memsys.cache_config ~size:4096 ~block:32 ~sub:0);
  rejects "sub > block" (fun () ->
      Memsys.cache_config ~size:4096 ~block:32 ~sub:64);
  rejects "block > size" (fun () ->
      Memsys.cache_config ~size:16 ~block:32 ~sub:4)

let test_cache_basic () =
  (* Two instructions in the same sub-block: one miss. *)
  let rd = mk_trace ~insn_bytes:2 [| 0x1000; 0x1002; 0x1000 |] (no_data 3) in
  let cs = cacheds rd (icfg 1024 32 4) in
  check_each "one miss for colocated fetches" 1 imisses cs;
  check_each "three accesses" 3
    (fun c -> c.Memsys.icache.Memsys.accesses)
    cs

let test_cache_prefetch () =
  (* Wrap-around prefetch: a read miss fetches the next sub-block too, so a
     sequential walk misses every other sub-block. *)
  let iaddrs = Array.init 8 (fun i -> 0x1000 + (4 * i)) in
  let cs = cacheds (mk_trace iaddrs (no_data 8)) (icfg 1024 32 4) in
  check_each "every other sub-block misses" 4 imisses cs;
  (* Each miss transfers 2 sub-blocks of one word. *)
  check_each "words transferred" 8
    (fun c -> c.Memsys.icache.Memsys.words_transferred)
    cs

let test_cache_conflict () =
  (* Two blocks that map to the same set alternate: every access misses. *)
  let a = 0x1000 in
  let b = 0x1000 + 1024 in
  let rd = mk_trace [| a; b; a; b |] (no_data 4) in
  check_each "conflict thrash" 4 imisses (cacheds rd (icfg 1024 32 4));
  (* A larger cache separates them. *)
  check_each "no thrash when separated" 2 imisses (cacheds rd (icfg 4096 32 4))

let test_cache_write_no_prefetch () =
  (* Writes allocate but do not prefetch the next sub-block. *)
  let iaddrs = [| 0x1000; 0x1004 |] in
  let d = [| Some (true, 0x8000, 4); Some (false, 0x8004, 4) |] in
  let cs = cacheds (mk_trace iaddrs d) (icfg 1024 32 4) in
  check_each "write misses" 1 (fun c -> c.Memsys.dcache_write.Memsys.misses) cs;
  (* The following read of the next word misses (no prefetch on write). *)
  check_each "read after write still misses" 1
    (fun c -> c.Memsys.dcache_read.Memsys.misses)
    cs

let test_cache_sub_equals_block () =
  (* Degenerate sub-blocking: one sub-block per block.  A read miss fills
     the whole block (the wrap-around prefetch lands on the sub-block just
     fetched), so a sequential walk misses once per block. *)
  let iaddrs = Array.init 16 (fun i -> 0x1000 + (4 * i)) in
  let cs = cacheds (mk_trace iaddrs (no_data 16)) (icfg 1024 32 32) in
  check_each "one miss per 32B block" 2 imisses cs;
  (* Each miss transfers exactly one 32-byte sub-block = 8 words: the
     prefetch of (sub+1) mod 1 = sub must not double-count. *)
  check_each "whole-block fills" 16
    (fun c -> c.Memsys.icache.Memsys.words_transferred)
    cs

let test_cache_single_set () =
  (* block == size: a one-set cache.  Any two distinct blocks conflict, so
     alternating between them misses every time regardless of sub-blocks. *)
  let a = 0x1000 and b = 0x1040 in
  check_each "single set thrashes" 6 imisses
    (cacheds (mk_trace [| a; b; a; b; a; b |] (no_data 6)) (icfg 64 64 8));
  (* Staying inside the one block hits after the first fill. *)
  check_each "within-block walk misses per sub-block" 2 imisses
    (cacheds
       (mk_trace [| a; a + 8; a + 16; a |] (no_data 4))
       (icfg 64 64 8))

let test_prefetch_wraps_to_block_start () =
  (* A read miss on the LAST sub-block of a block prefetches sub-block 0 of
     the same block (wrap-around), not the next block. *)
  let c = Memsys.Cache.make (icfg 1024 32 4) in
  let missed a = Memsys.Cache.access c ~is_read:true ~addr:a ~bytes:4 in
  Alcotest.(check bool) "last sub-block misses" true (missed 0x101C);
  Alcotest.(check bool) "wrapped prefetch makes sub 0 hit" false (missed 0x1000);
  Alcotest.(check bool) "sub 1 was not prefetched" true (missed 0x1004);
  let s = Memsys.Cache.stats c in
  Alcotest.(check int) "accesses" 3 s.Memsys.accesses;
  Alcotest.(check int) "misses" 2 s.Memsys.misses;
  (* Two misses, each filling two one-word sub-blocks. *)
  Alcotest.(check int) "words" 4 s.Memsys.words_transferred

let test_write_miss_heavy () =
  (* Writes allocate only the touched sub-block: a sequential store sweep
     misses on every sub-block, where the same sweep of reads would miss
     every other one thanks to prefetch. *)
  let n = 8 in
  let iaddrs = Array.init n (fun i -> 0x1000 + (4 * i)) in
  let writes =
    Array.init n (fun i -> Some (true, 0x8000 + (4 * i), 4))
  in
  let reads =
    Array.init n (fun i -> Some (false, 0x8000 + (4 * i), 4))
  in
  let cws = cacheds (mk_trace iaddrs writes) (icfg 1024 32 4) in
  check_each "every write misses" n
    (fun c -> c.Memsys.dcache_write.Memsys.misses)
    cws;
  check_each "all accesses are writes" n
    (fun c -> c.Memsys.dcache_write.Memsys.accesses)
    cws;
  check_each "reads miss every other sub-block" (n / 2)
    (fun c -> c.Memsys.dcache_read.Memsys.misses)
    (cacheds (mk_trace iaddrs reads) (icfg 1024 32 4))

let test_cycle_formulas () =
  let iaddrs = Array.init 10 (fun i -> 0x1000 + (4 * i)) in
  let rd = mk_trace iaddrs (no_data 10) in
  let r =
    {
      Machine.exit_code = 0;
      output = "";
      ic = 10;
      loads = 0;
      stores = 0;
      load_words = 0;
      store_words = 0;
      interlocks = 3;
    }
  in
  List.iter
    (fun (engine, nc) ->
      Alcotest.(check int) ("zero wait states " ^ engine) 13
        (Memsys.nocache_cycles ~wait_states:0 r nc);
      Alcotest.(check int)
        ("wait states multiply requests " ^ engine)
        (13 + (2 * 10))
        (Memsys.nocache_cycles ~wait_states:2 r nc))
    (nocaches rd ~bus_bytes:4);
  List.iter
    (fun (engine, c) ->
      Alcotest.(check int) ("cached cycles " ^ engine) (13 + (4 * 5))
        (Memsys.cached_cycles ~miss_penalty:4 r c))
    (cacheds rd (icfg 1024 32 4))

let test_formula_vs_measurement () =
  (* The paper's footnote 2: the closed formula and the measured pipeline
     agree closely.  In our model they agree exactly by construction; check
     one real program end to end. *)
  let b = Repro_workloads.Suite.find "queens" in
  List.iter
    (fun t ->
      let r, rd =
        Capture.capture (Compile.compile t b.Repro_workloads.Suite.source)
      in
      List.iter
        (fun (engine, nc) ->
          let cycles = Memsys.nocache_cycles ~wait_states:1 r nc in
          let formula =
            r.Machine.ic + r.Machine.interlocks
            + (1 * (nc.Memsys.irequests + nc.Memsys.drequests))
          in
          Alcotest.(check int)
            (Printf.sprintf "formula agreement %s (%s)" t.Target.name engine)
            formula cycles)
        (nocaches rd ~bus_bytes:4))
    [ Target.d16; Target.dlxe ]

let test_interlock_counting () =
  (* A load feeding the very next instruction stalls one cycle. *)
  let src_dep =
    {|int g = 5;
      int main() {
        int i; int s = 0;
        for (i = 0; i < 100; i++) s = s + g;
        print_int(s);
        return 0; }|}
  in
  let _, r = Compile.compile_and_run Target.dlxe src_dep in
  Alcotest.(check bool) "loop with load-use has interlocks" true
    (r.Machine.interlocks > 0);
  (* FP divides are the longest stalls. *)
  let src_fp =
    {|double g = 3.0;
      int main() {
        double x = 1.0; int i;
        for (i = 0; i < 50; i++) x = 1.0 / (x + g);
        print_int((int)(x * 1000.0));
        return 0; }|}
  in
  let _, rf = Compile.compile_and_run Target.dlxe src_fp in
  (* Each of the 50 iterations has a divide whose latency the loop's few
     other instructions cannot fully hide. *)
  Alcotest.(check bool)
    (Printf.sprintf "fp chain stalls heavily (%d)" rf.Machine.interlocks)
    true
    (rf.Machine.interlocks > 50)

let tests =
  [
    Alcotest.test_case "cache_config validation" `Quick
      test_cache_config_validation;
    Alcotest.test_case "fetch buffer widths" `Quick test_fetch_buffer;
    Alcotest.test_case "fetch buffer on branches" `Quick test_fetch_buffer_branchy;
    Alcotest.test_case "data bus requests" `Quick test_data_requests;
    Alcotest.test_case "cache basics" `Quick test_cache_basic;
    Alcotest.test_case "wrap-around prefetch" `Quick test_cache_prefetch;
    Alcotest.test_case "conflict misses" `Quick test_cache_conflict;
    Alcotest.test_case "writes do not prefetch" `Quick test_cache_write_no_prefetch;
    Alcotest.test_case "sub-block = block" `Quick test_cache_sub_equals_block;
    Alcotest.test_case "single-set cache" `Quick test_cache_single_set;
    Alcotest.test_case "prefetch wraps within block" `Quick
      test_prefetch_wraps_to_block_start;
    Alcotest.test_case "write-miss-heavy sweep" `Quick test_write_miss_heavy;
    Alcotest.test_case "cycle formulas" `Quick test_cycle_formulas;
    Alcotest.test_case "formula vs measurement" `Quick test_formula_vs_measurement;
    Alcotest.test_case "interlock counting" `Quick test_interlock_counting;
  ]
