(* Measurement-plane plumbing: the persistent run cache round-trips and
   invalidates on key changes, and the parallel pool produces output
   byte-identical to a serial run.  These drive real compiles, so they are
   tagged slow where they do. *)

module Target = Repro_core.Target
module Runs = Repro_harness.Runs
module Diskcache = Repro_harness.Diskcache
module Plan = Repro_harness.Plan
module Pool = Repro_harness.Pool
module Experiments = Repro_harness.Experiments
module Memsys = Repro_sim.Memsys
module Replay = Repro_trace.Replay
module Trace = Repro_trace.Trace

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
        (Diskcache.memo key (fun () -> (5678, "fresh"))))

(* Entries in the retired pre-crc32c envelope (16-byte MD5 then the
   marshaled payload, no magic) read as misses, and [memo] regenerates
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
        (Diskcache.memo key (fun () -> (8, "fresh")));
      Alcotest.(check (option (pair int string)))
        "regenerated entry hits" (Some (8, "fresh")) (Diskcache.find key))

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
    Alcotest.test_case "trace store regenerates" `Slow
      test_trace_store_regenerates;
    Alcotest.test_case "stats = nocache replay" `Slow test_stats_match_replay;
    Alcotest.test_case "key invalidation" `Quick test_key_invalidation;
    Alcotest.test_case "parallel = serial output" `Slow
      test_parallel_determinism;
    Alcotest.test_case "plan dedup" `Quick test_plan_dedup;
    Alcotest.test_case "pool error propagation" `Quick
      test_pool_error_propagation;
    Alcotest.test_case "Target.of_name" `Quick test_target_of_name;
  ]
