(* Measurement-plane plumbing: the persistent run cache round-trips and
   invalidates on key changes, and the parallel pool produces output
   byte-identical to a serial run.  These drive real compiles, so they are
   tagged slow where they do. *)

module Target = Repro_core.Target
module Runs = Repro_harness.Runs
module Diskcache = Repro_harness.Diskcache
module Memo = Repro_harness.Memo
module Plan = Repro_harness.Plan
module Pool = Repro_harness.Pool
module Experiments = Repro_harness.Experiments
module Memsys = Repro_sim.Memsys
module Replay = Repro_trace.Replay
module Trace = Repro_trace.Trace
module Fusion = Repro_isavar.Fusion

(* Route the persistent cache to a throwaway directory so the tests never
   see (or pollute) a developer's _runs_cache. *)
let with_temp_cache f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-test-cache-%d" (Unix.getpid ()))
  in
  let old = Diskcache.dir () in
  Diskcache.set_dir dir;
  Fun.protect
    ~finally:(fun () ->
      Diskcache.clear ();
      (try Sys.rmdir dir with Sys_error _ -> ());
      Diskcache.set_dir old)
    f

(* Two test families.  An entry of [entries] named [n] lives on disk under
   [Diskcache.key ["t_runs"; n]]. *)
let entries : (int * string) Memo.t = Memo.on_disk "t_runs"
let side : int Memo.t = Memo.on_disk "t_runs-side"
let entry name = Memo.key entries (name, "") ~disk:(fun () -> [ name ])

let test_disk_roundtrip () =
  with_temp_cache (fun () ->
      Runs.clear_memo ();
      let cold = Runs.stats "queens" Target.d16 in
      (* Second process = cleared memo: must be served from disk. *)
      Runs.clear_memo ();
      let hits_before = Diskcache.hit_count () in
      let warm = Runs.stats "queens" Target.d16 in
      Alcotest.(check bool) "disk hit" true (Diskcache.hit_count () > hits_before);
      Alcotest.(check int) "ic" cold.Runs.ic warm.Runs.ic;
      Alcotest.(check int) "size" cold.Runs.size_bytes warm.Runs.size_bytes;
      Alcotest.(check int) "interlocks" cold.Runs.interlocks warm.Runs.interlocks;
      Alcotest.(check string) "output" cold.Runs.output warm.Runs.output;
      (* Each sweep kind replays only its own axes: a grid spec must not
         pay for the pipeline sweep, and a fused spec over two warm
         sweeps looks nothing up. *)
      let execute w =
        match Plan.spec_of_string w with
        | Ok s -> Plan.execute s
        | Error e -> Alcotest.fail e
      in
      let grid_stored () =
        (Diskcache.find (Runs.grid_key "queens" Target.d16)
          : ((int * int * int) * Memsys.cached) list option)
        <> None
      in
      let sweep_stored () =
        (Diskcache.find (Runs.uarch_sweep_key "queens" Target.d16)
          : (string * Repro_uarch.Pipeline.result) list option)
        <> None
      in
      execute "grid:queens:d16";
      Alcotest.(check bool) "grid spec stores the grid" true (grid_stored ());
      Alcotest.(check bool) "grid spec leaves the sweep cold" false
        (sweep_stored ());
      execute "uarch:queens:d16";
      Alcotest.(check bool) "uarch spec stores the sweep" true
        (sweep_stored ());
      let misses = Diskcache.miss_count () in
      execute "fused:queens:d16";
      Alcotest.(check int) "fused spec over warm sweeps misses nothing"
        misses (Diskcache.miss_count ()))

let test_store_find () =
  with_temp_cache (fun () ->
      let key = Diskcache.key [ "t_runs"; "store-find" ] in
      Alcotest.(check bool) "miss first" true
        ((Diskcache.find key : (int * string) option) = None);
      Diskcache.store key (42, "payload");
      Alcotest.(check (option (pair int string)))
        "round-trips"
        (Some (42, "payload"))
        (Diskcache.find key))

(* Corrupt cache entries must read as misses, never as garbage values:
   Marshal alone would happily decode a flipped bit, so the checksum
   envelope is what stands between a cosmic ray and a wrong figure. *)
let test_corrupt_entry_is_miss () =
  with_temp_cache (fun () ->
      let key = Diskcache.key [ "t_runs"; "corrupt" ] in
      Diskcache.store key (1234, "payload");
      let file =
        match
          Array.to_list (Sys.readdir (Diskcache.dir ()))
          |> List.filter (fun f -> Filename.check_suffix f ".bin")
        with
        | [ f ] -> Filename.concat (Diskcache.dir ()) f
        | fs -> Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length fs))
      in
      let mangle f =
        let b =
          In_channel.with_open_bin file In_channel.input_all |> Bytes.of_string
        in
        let b = f b in
        Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc b)
      in
      (* Bit flip inside the marshaled payload. *)
      mangle (fun b ->
          let i = Bytes.length b - 3 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
          b);
      Alcotest.(check bool) "bit flip reads as miss" true
        ((Diskcache.find key : (int * string) option) = None);
      (* Truncation. *)
      Diskcache.store key (1234, "payload");
      mangle (fun b -> Bytes.sub b 0 (Bytes.length b / 2));
      Alcotest.(check bool) "truncation reads as miss" true
        ((Diskcache.find key : (int * string) option) = None);
      (* Regeneration through memo works after corruption. *)
      Alcotest.(check (pair int string))
        "memo regenerates"
        (5678, "fresh")
        (Memo.get (entry "corrupt") (fun () -> (5678, "fresh"))))

(* Entries in the retired pre-crc32c envelope (16-byte MD5 then the
   marshaled payload, no magic) read as misses, and {!Memo.get} regenerates
   them in the current envelope.  Written by hand here — the store only
   emits the current envelope. *)
let test_legacy_envelope_readable () =
  with_temp_cache (fun () ->
      let key = Diskcache.key [ "t_runs"; "legacy-envelope" ] in
      (* Establish the entry path, then rewrite it in the old format. *)
      Diskcache.store key (7, "legacy");
      let file =
        match
          Array.to_list (Sys.readdir (Diskcache.dir ()))
          |> List.filter (fun f -> Filename.check_suffix f ".bin")
        with
        | [ f ] -> Filename.concat (Diskcache.dir ()) f
        | fs ->
          Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length fs))
      in
      let payload = Marshal.to_string (7, "legacy") [] in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Digest.string payload);
          Out_channel.output_string oc payload);
      Alcotest.(check (option (pair int string)))
        "legacy envelope is a miss" None (Diskcache.find key);
      Alcotest.(check (pair int string))
        "memo regenerates" (8, "fresh")
        (Memo.get (entry "legacy-envelope") (fun () -> (8, "fresh")));
      Alcotest.(check (option (pair int string)))
        "regenerated entry hits" (Some (8, "fresh")) (Diskcache.find key))

(* The memo policy itself: memory, then disk, then one compute per
   flight, then store. *)

let test_memo_memory_hit () =
  with_temp_cache (fun () ->
      let k = entry "memory-hit" in
      Alcotest.(check (pair int string))
        "computed" (1, "a")
        (Memo.get k (fun () -> (1, "a")));
      let hits = Diskcache.hit_count () and misses = Diskcache.miss_count () in
      Alcotest.(check (pair int string))
        "in-process hit" (1, "a")
        (Memo.get k (fun () -> Alcotest.fail "recomputed"));
      Alcotest.(check int) "no disk hit" hits (Diskcache.hit_count ());
      Alcotest.(check int) "no disk miss" misses (Diskcache.miss_count ()))

let test_memo_disk_hit_installed () =
  with_temp_cache (fun () ->
      let k = entry "disk-hit" in
      Diskcache.store (Memo.disk_key k) (2, "disk");
      let hits = Diskcache.hit_count () and misses = Diskcache.miss_count () in
      Alcotest.(check (option (pair int string)))
        "disk hit" (Some (2, "disk")) (Memo.find k);
      Alcotest.(check int) "one disk read" (hits + 1) (Diskcache.hit_count ());
      Alcotest.(check (pair int string))
        "installed" (2, "disk")
        (Memo.get k (fun () -> Alcotest.fail "recomputed"));
      Alcotest.(check int) "no second disk hit" (hits + 1)
        (Diskcache.hit_count ());
      Alcotest.(check int) "no disk miss" misses (Diskcache.miss_count ()))

let test_memo_compute_raises () =
  with_temp_cache (fun () ->
      let k = entry "raises" in
      Alcotest.check_raises "the compute's exception" (Failure "boom")
        (fun () -> ignore (Memo.get k (fun () -> failwith "boom")));
      Alcotest.(check (option (pair int string)))
        "nothing stored" None (Memo.find k);
      (* Another domain takes the flight and recomputes. *)
      let again =
        Domain.join
          (Domain.spawn (fun () -> Memo.get k (fun () -> (3, "retry"))))
      in
      Alcotest.(check (pair int string)) "recomputed" (3, "retry") again)

let test_memo_single_flight () =
  with_temp_cache (fun () ->
      let k = entry "single-flight" in
      let computes = Atomic.make 0 in
      let compute () =
        Atomic.incr computes;
        Unix.sleepf 0.1;
        (4, "once")
      in
      let got =
        List.map Domain.join
          (List.init 2 (fun _ -> Domain.spawn (fun () -> Memo.get k compute)))
      in
      Alcotest.(check int) "computed once" 1 (Atomic.get computes);
      List.iter
        (Alcotest.(check (pair int string)) "same value" (4, "once"))
        got)

(* Keys with one identity share a flight across families: a request on
   family B that arrives while A's compute runs waits, then reads the
   value A put for B. *)
let test_memo_shared_flight () =
  with_temp_cache (fun () ->
      let id = ("shared-flight", "") in
      let a = Memo.key side id ~disk:(fun () -> [ "shared-flight" ]) in
      let b = Memo.key entries id ~disk:(fun () -> [ "shared-flight" ]) in
      let started = Atomic.make false in
      let da =
        Domain.spawn (fun () ->
            Memo.get a (fun () ->
                Atomic.set started true;
                Unix.sleepf 0.2;
                Memo.put b (5, "from A");
                1))
      in
      while not (Atomic.get started) do
        Domain.cpu_relax ()
      done;
      let vb = Memo.get b (fun () -> Alcotest.fail "B's compute ran") in
      Alcotest.(check int) "A's value" 1 (Domain.join da);
      Alcotest.(check (pair int string)) "B reads A's put" (5, "from A") vb)

(* A pair's image is a family on the pair's flight: two domains that ask
   for one cold image share a single compile. *)
let test_image_compiles_once () =
  Runs.clear_memo ();
  let images =
    List.map Domain.join
      (List.init 2 (fun _ ->
           Domain.spawn (fun () -> Runs.image "queens" Target.d16)))
  in
  match images with
  | [ a; b ] -> Alcotest.(check bool) "one compile" true (a == b)
  | _ -> assert false

(* Same policy for the trace store: a truncated stored trace is a miss
   and the next reader request re-captures it. *)
let test_trace_store_regenerates () =
  with_temp_cache (fun () ->
      Runs.clear_memo ();
      let s = Runs.stats "queens" Target.d16 in
      Runs.ensure_trace "queens" Target.d16;
      let path = Runs.trace_path "queens" Target.d16 in
      Alcotest.(check bool) "capture landed in the store" true
        (Sys.file_exists path);
      (* Truncate the stored trace, drop in-process readers. *)
      let b =
        In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc (Bytes.sub b 0 (Bytes.length b / 3)));
      Runs.clear_memo ();
      let rd = Runs.trace_reader "queens" Target.d16 in
      Alcotest.(check int) "re-captured trace has ic records" s.Runs.ic
        (Repro_trace.Trace.Reader.n_records rd))

(* Stats stream one execution through the cacheless fetch buffers and
   never touch the trace store; their request counts must equal the
   sequential nocache replay (an independent baseline) of a trace
   captured separately — on every target, D16m's wide-instruction marks
   and D16x included.  Linpack's doubles split on the 32-bit bus, so the
   two data counts differ. *)
let test_stats_match_replay () =
  with_temp_cache (fun () ->
      Runs.clear_memo ();
      let targets =
        List.map
          (fun n ->
            match Target.of_name n with
            | Ok t -> t
            | Error m -> Alcotest.fail m)
          Target.all_names
      in
      let pairs =
        List.concat_map
          (fun b -> List.map (fun t -> (b, t)) targets)
          [ "ackermann"; "linpack" ]
      in
      let stats = List.map (fun (b, t) -> Runs.stats b t) pairs in
      let traces = Filename.concat (Diskcache.dir ()) "traces" in
      Alcotest.(check (list string))
        "stats leave no file under traces/" []
        (if Sys.file_exists traces then Array.to_list (Sys.readdir traces)
         else []);
      List.iter2
        (fun (b, (t : Target.t)) (s : Runs.stats) ->
          let rd = Runs.trace_reader b t in
          let name what = Printf.sprintf "%s on %s: %s" b t.Target.name what in
          let nc32 = Replay.Seq.nocache rd ~bus_bytes:4 in
          let nc64 = Replay.Seq.nocache rd ~bus_bytes:8 in
          Alcotest.(check int) (name "ireq32") nc32.Memsys.irequests s.Runs.ireq32;
          Alcotest.(check int) (name "ireq64") nc64.Memsys.irequests s.Runs.ireq64;
          Alcotest.(check int) (name "dreq32") nc32.Memsys.drequests s.Runs.dreq32;
          Alcotest.(check int) (name "dreq64") nc64.Memsys.drequests s.Runs.dreq64;
          Alcotest.(check int) (name "ic") (Trace.Reader.n_records rd) s.Runs.ic)
        pairs stats)

(* Fusion counters come from one streamed execution, never from the trace
   store: on an empty cache they equal a direct stream over the same image,
   and no trace is captured. *)
let test_fusion_streams () =
  with_temp_cache (fun () ->
      Runs.clear_memo ();
      let got = Runs.fusion "queens" Target.d16 in
      let img = Runs.image "queens" Target.d16 in
      let st = Fusion.stream_start (Fusion.plan Fusion.default_rules img) in
      ignore
        (Repro_sim.Machine.run
           ~on_insn:(fun ~iaddr ~dinfo:_ -> Fusion.stream_step st ~iaddr)
           img);
      Alcotest.(check bool) "counters = direct stream" true
        (got = Fusion.stream_finish st);
      let traces = Filename.concat (Diskcache.dir ()) "traces" in
      Alcotest.(check (list string))
        "fusion leaves no file under traces/" []
        (if Sys.file_exists traces then Array.to_list (Sys.readdir traces)
         else []))

(* A cold swept pair executes once, writing no trace: the sweep execution
   also fills the pair's stats and (on D16) fusion counters, and stores
   them byte-identical to the entries [Runs.stats] and [Runs.fusion] write
   when they run alone on another empty cache. *)
let test_sweeps_stream () =
  let keys =
    [
      ("stats", Runs.stats_key "queens" Target.d16);
      ("fusion", Runs.fusion_key "queens" Target.d16);
    ]
  in
  let entries () =
    List.map
      (fun (what, key) ->
        let file = Filename.concat (Diskcache.dir ()) (key ^ ".bin") in
        if not (Sys.file_exists file) then
          Alcotest.failf "no %s entry stored" what;
        (what, In_channel.with_open_bin file In_channel.input_all))
      keys
  in
  let swept =
    with_temp_cache (fun () ->
        Runs.clear_memo ();
        Runs.ensure_sweeps ~grid:true ~uarch:true "queens" Target.d16;
        let traces = Filename.concat (Diskcache.dir ()) "traces" in
        Alcotest.(check (list string))
          "sweeps leave no file under traces/" []
          (if Sys.file_exists traces then Array.to_list (Sys.readdir traces)
           else []);
        entries ())
  in
  let alone =
    with_temp_cache (fun () ->
        Runs.clear_memo ();
        ignore (Runs.stats "queens" Target.d16);
        ignore (Runs.fusion "queens" Target.d16);
        entries ())
  in
  Runs.clear_memo ();
  List.iter2
    (fun (what, a) (_, b) ->
      Alcotest.(check bool) (what ^ " entry bytes = alone") true (a = b))
    swept alone

(* A pair's cold families share one execution: whichever of stats and
   fusion is asked for first on D16, the same run puts the other, so the
   second request is an in-process hit that reads no disk. *)
let test_one_execution_per_pair () =
  let check name first second =
    with_temp_cache (fun () ->
        Runs.clear_memo ();
        ignore (first "queens" Target.d16);
        let hits = Diskcache.hit_count () and misses = Diskcache.miss_count () in
        ignore (second "queens" Target.d16);
        Alcotest.(check int) (name ^ ": no disk hit") hits (Diskcache.hit_count ());
        Alcotest.(check int)
          (name ^ ": no disk miss") misses (Diskcache.miss_count ()))
  in
  check "fusion, then stats" Runs.fusion (fun b t -> ignore (Runs.stats b t));
  check "stats, then fusion" Runs.stats (fun b t -> ignore (Runs.fusion b t))

(* The render paths probe thousands of times: on a warm pair a probe
   builds no memo key, closure or option. *)
let test_warm_probes_allocate () =
  with_temp_cache (fun () ->
      Runs.clear_memo ();
      let b = "queens" and t = Target.d16 in
      let cfg = Repro_uarch.Uconfig.nocache ~bus_bytes:8 ~wait_states:2 in
      Runs.ensure_sweeps ~grid:true ~uarch:true b t;
      let n = 100_000 in
      let words name probe =
        probe ();
        let w0 = Gc.minor_words () in
        for _ = 1 to n do
          probe ()
        done;
        let per = (Gc.minor_words () -. w0) /. float_of_int n in
        if per >= 8. then
          Alcotest.failf "%s allocates %.1f words per probe" name per
      in
      words "Runs.stats" (fun () -> ignore (Sys.opaque_identity (Runs.stats b t)));
      words "Runs.cached" (fun () ->
          ignore
            (Sys.opaque_identity (Runs.cached b t ~size:4096 ~block:32 ~sub:4)));
      words "Runs.uarch" (fun () ->
          ignore (Sys.opaque_identity (Runs.uarch b t cfg))))

(* Only the standard sweeps are measured; anything else is rejected by
   name before any compile or replay. *)
let test_off_standard_rejected () =
  Alcotest.check_raises "off-grid geometry"
    (Invalid_argument
       "Runs.cached: 512/32/4 is not a standard_grid geometry")
    (fun () ->
      ignore (Runs.cached "queens" Target.d16 ~size:512 ~block:32 ~sub:4));
  let cfg = Repro_uarch.Uconfig.nocache ~bus_bytes:2 ~wait_states:0 in
  Alcotest.check_raises "off-sweep configuration"
    (Invalid_argument
       ("Runs.uarch: " ^ Repro_uarch.Uconfig.describe cfg
      ^ " is not a standard_uarch_configs configuration"))
    (fun () -> ignore (Runs.uarch "queens" Target.d16 cfg))

let test_key_invalidation () =
  (* Changing the target description must change the key: a cache entry
     written for one machine can never answer for another. *)
  let k16 = Runs.stats_key "queens" Target.d16 in
  let k32 = Runs.stats_key "queens" Target.dlxe in
  Alcotest.(check bool) "target changes key" true (k16 <> k32);
  let kb = Runs.stats_key "towers" Target.d16 in
  Alcotest.(check bool) "bench changes key" true (k16 <> kb);
  let kg = Runs.grid_key "queens" Target.d16 in
  Alcotest.(check bool) "kind changes key" true (k16 <> kg)

let test_parallel_determinism () =
  with_temp_cache (fun () ->
      (* Serial pass computes everything and fills the temp disk cache;
         the jobs=4 pass then re-executes the full plan through four
         worker domains (concurrent memo installs, disk reads, and any
         recomputes), and must render the same bytes. *)
      Runs.clear_memo ();
      let serial = Experiments.render_all ~jobs:1 () in
      Runs.clear_memo ();
      let parallel = Experiments.render_all ~jobs:4 () in
      Alcotest.(check string) "byte-identical output" serial parallel)

let test_plan_dedup () =
  let spec = Plan.stats_specs ~benches:[ "queens" ] ~targets:[ Target.d16 ] in
  let doubled = Plan.union spec spec in
  Alcotest.(check int) "union dedups" (List.length spec) (List.length doubled);
  Alcotest.(check bool) "full plan is nonempty" true (Plan.full () <> [])

let test_pool_error_propagation () =
  let pool = Pool.create ~jobs:2 in
  Pool.submit pool (fun () -> failwith "boom");
  Alcotest.check_raises "worker failure re-raised at wait" (Failure "boom")
    (fun () ->
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () -> Pool.wait pool))

let test_target_of_name () =
  (match Target.of_name "d16" with
  | Ok t -> Alcotest.(check string) "d16" Target.d16.Target.name t.Target.name
  | Error m -> Alcotest.fail m);
  (match Target.of_name "dlxe-16-2" with
  | Ok t -> Alcotest.(check string) "variant" "DLXe/16/2" t.Target.name
  | Error m -> Alcotest.fail m);
  (* Full display names resolve too (slug-insensitively). *)
  (match Target.of_name "DLXe/16/2" with
  | Ok t -> Alcotest.(check string) "display name" "DLXe/16/2" t.Target.name
  | Error m -> Alcotest.fail m);
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  (match Target.of_name "z80" with
  | Ok _ -> Alcotest.fail "z80 resolved"
  | Error m ->
    Alcotest.(check bool) "error names the input" true (contains m "z80"));
  List.iter
    (fun n ->
      match Target.of_name n with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
    Target.all_names

let tests =
  [
    Alcotest.test_case "disk cache round-trip" `Slow test_disk_roundtrip;
    Alcotest.test_case "store/find round-trip" `Quick test_store_find;
    Alcotest.test_case "corrupt entry is a miss" `Quick
      test_corrupt_entry_is_miss;
    Alcotest.test_case "legacy envelope readable" `Quick
      test_legacy_envelope_readable;
    Alcotest.test_case "memo: in-process hit reads no disk" `Quick
      test_memo_memory_hit;
    Alcotest.test_case "memo: disk hit is installed" `Quick
      test_memo_disk_hit_installed;
    Alcotest.test_case "memo: failed compute stores nothing" `Quick
      test_memo_compute_raises;
    Alcotest.test_case "memo: one compute per cold key" `Quick
      test_memo_single_flight;
    Alcotest.test_case "memo: flight shared across families" `Quick
      test_memo_shared_flight;
    Alcotest.test_case "image compiles once" `Quick test_image_compiles_once;
    Alcotest.test_case "trace store regenerates" `Slow
      test_trace_store_regenerates;
    Alcotest.test_case "stats = nocache replay" `Slow test_stats_match_replay;
    Alcotest.test_case "fusion streams, captures nothing" `Slow
      test_fusion_streams;
    Alcotest.test_case "sweeps stream, capture nothing" `Slow
      test_sweeps_stream;
    Alcotest.test_case "one execution per cold pair" `Slow
      test_one_execution_per_pair;
    Alcotest.test_case "warm probes allocate nothing" `Slow
      test_warm_probes_allocate;
    Alcotest.test_case "off-standard request rejected" `Quick
      test_off_standard_rejected;
    Alcotest.test_case "key invalidation" `Quick test_key_invalidation;
    Alcotest.test_case "parallel = serial output" `Slow
      test_parallel_determinism;
    Alcotest.test_case "plan dedup" `Quick test_plan_dedup;
    Alcotest.test_case "pool error propagation" `Quick
      test_pool_error_propagation;
    Alcotest.test_case "Target.of_name" `Quick test_target_of_name;
  ]
