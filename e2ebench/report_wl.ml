(* The report workloads: [report-cold] regenerates every table and figure
   from an empty cache, [report-warm] re-runs the report against the
   cache a cold run left behind.

   Each report is a fresh child process of this executable doing exactly
   what bin/report.ml does with no arguments: [Pool.run_plan] over
   [Plan.full ()], then [Experiments.render] of every experiment.  The
   child checks nothing itself; it hands back the CRC-32C of the report
   text, which must equal the golden one checked in beside this file. *)

module Plan = Repro_harness.Plan
module Pool = Repro_harness.Pool
module Runs = Repro_harness.Runs
module Experiments = Repro_harness.Experiments
module Diskcache = Repro_harness.Diskcache
module Replay = Repro_trace.Replay
module Trace = Repro_trace.Trace
module Crc32c = Repro_util.Crc32c
module Json = Repro_util.Json

let now = Unix.gettimeofday

(* --- Child side --------------------------------------------------------- *)

let render_report () =
  let b = Buffer.create 65536 in
  List.iteri
    (fun i (e : Experiments.t) ->
      let text =
        Tracer.span ~req:(i + 1) "experiments.render" (fun () ->
            Experiments.render e)
      in
      Printf.bprintf b "================ %s: %s ================\n%s\n" e.id
        e.title text)
    Experiments.all;
  Buffer.contents b

(* The traced cold report runs the plan on this thread, one spec at a
   time, so its spans tile the wall clock.  Each replay spec's trace is
   captured first under its own span, leaving only replay inside the
   replay spans; the chunk hook times each chunk's decode and automaton
   steps. *)
let execute_serially () =
  let chunk_map f ids =
    List.map
      (fun i ->
        Tracer.add "replay.chunks" 1.;
        Tracer.span "replay.chunk" (fun () -> f i))
      ids
  in
  let captured = Hashtbl.create 64 in
  let run name (s : Plan.spec) =
    Tracer.add ("plan." ^ name ^ ".n") 1.;
    Tracer.span ("plan." ^ name) (fun () -> Plan.execute ~chunk_map s)
  in
  List.iter
    (fun (s : Plan.spec) ->
      let pair = (s.bench, s.target.Repro_core.Target.name) in
      if s.kind <> Plan.Stats && not (Hashtbl.mem captured pair) then begin
        Hashtbl.add captured pair ();
        run "trace" { s with kind = Plan.Trace }
      end;
      if s.kind <> Plan.Trace then run (Plan.kind_to_string s.kind) s)
    (Plan.dedup (Plan.full ()))

(* Decode every chunk of the fused sweeps' traces once more, bypassing
   the decoded-chunk cache: the decode share of replay on its own. *)
let decode_pass () =
  List.iter
    (fun (s : Plan.spec) ->
      if s.kind = Plan.Fused then begin
        let rd = Runs.trace_reader s.bench s.target in
        for i = 0 to Trace.Reader.n_chunks rd - 1 do
          Tracer.span "replay.decode" (fun () ->
              ignore (Replay.Decoded.of_chunk rd i))
        done
      end)
    (Plan.dedup (Plan.full ()))

(* Start the trace writer's background flusher from this domain, by
   writing a one-record trace, before the pool starts.  When two pool
   domains hand off their first chunks at once, both force the writer's
   lazy flusher; one of them gets [CamlinternalLazy.Undefined] after it
   has counted its chunk as outstanding, and its [abort] then waits for
   that chunk forever (README, "A hang").  The system is not fixed here;
   a cold report must not hang the benchmark. *)
let start_trace_flusher path =
  let w = Trace.Writer.create ~chunk_records:1 ~insn_bytes:4 path in
  Trace.Writer.step w ~pc:0 ~dinfo:0;
  Trace.Writer.close w;
  Sys.remove path

(* [serial] is the traced cold report: the plan spec by spec, then the
   separate decode pass once the report is done.  [cold] reports capture
   traces on the pool's domains. *)
let child ~t_main ~serial ~cold ~out =
  if cold then start_trace_flusher (out ^ ".trc");
  let t_begin = now () in
  if serial then execute_serially ()
  else
    Tracer.span "plan.run" (fun () ->
        Pool.run_plan ~jobs:(Pool.default_jobs ()) (Plan.full ()));
  let text = render_report () in
  let t_end = now () in
  if serial then decode_pass ();
  Proc.write_json out
    (Json.Obj
       [
         ("crc", Json.Str (Printf.sprintf "%08x" (Crc32c.string text)));
         ("rss_kb", Json.Int (Proc.vm_hwm_kb 0));
         ("hits", Json.Int (Diskcache.hit_count ()));
         ("misses", Json.Int (Diskcache.miss_count ()));
         ("t_main", Json.Float t_main);
         ("t_begin", Json.Float t_begin);
         ("t_end", Json.Float t_end);
         ("trace", Tracer.to_json ());
       ])

(* --- Parent side -------------------------------------------------------- *)

let golden_path = "e2ebench/golden/report.crc32c"

let golden =
  lazy (String.trim (In_channel.with_open_bin golden_path In_channel.input_all))

let warm_dir = Filename.concat Proc.work_dir "warm"
let work_path name = Filename.concat Proc.work_dir (Printf.sprintf "%s-%d" name (Unix.getpid ()))

(* Expected wall times on a 2-core host; deadlines are four times these. *)
let cold_expected_s = 30.
let cold_serial_expected_s = 45.
let warm_expected_s = 0.5

(* A set-up repetition takes milliseconds, so a median of many. *)
let setup_reps = 25

type rep = { t0 : float; wall : float; ok : bool; res : Json.t option }

(* One report child against [cache] with [jobs] workers.  Counts one
   operation; a wrong report or a killed child is a failed one. *)
let report_rep tally ~cache ~jobs ?(args = []) ~expected_s () =
  let deadline_s = Tally.deadline_for expected_s in
  if deadline_s <= 0. then None
  else begin
    let out = work_path "report" ^ ".json" in
    let env =
      [ ("REPRO_CACHE_DIR", cache); ("REPRO_JOBS", string_of_int jobs) ]
    in
    let t0, wall, outcome, res =
      Proc.run_child ~env ~deadline_s ~out ("report" :: args)
    in
    let crc = Option.bind res (fun j -> Proc.get_str j "crc") in
    let ok = outcome = Proc.Exited 0 && crc = Some (Lazy.force golden) in
    if ok then Tally.op tally true
    else
      Tally.fail tally
        (Printf.sprintf "report child (%s): %s, crc %s, golden %s" cache
           (Proc.describe_outcome outcome)
           (Option.value ~default:"none" crc)
           (Lazy.force golden));
    Some { t0; wall; ok; res }
  end

let rss_mb r =
  float_of_int
    (Option.value ~default:0 (Option.bind r.res (fun j -> Proc.get_int j "rss_kb")))
  /. 1024.

(* A set-up repetition: fill a fresh private cache directory [dir], then
   [start] what a rep of the workload pays first on it. *)
let setup_rep ~dir ~fill start =
  Proc.rm_rf dir;
  let t0 = now () in
  fill dir;
  start dir;
  now () -. t0

(* All a cold report needs first: a child that loads the system and
   exits. *)
let start_system tally _dir =
  let deadline_s = Tally.deadline_for warm_expected_s in
  let _, _, outcome, _ =
    Proc.run_child ~deadline_s ~out:(work_path "ready" ^ ".json") [ "ready" ]
  in
  if outcome <> Proc.Exited 0 then
    Tally.fail tally ("ready child: " ^ Proc.describe_outcome outcome)
  else Tally.op tally true

(* A warm report's first run on a fresh copy of the cache: whatever a
   report does once per cache directory shows here, not in the reps. *)
let first_warm_report tally dir =
  ignore (report_rep tally ~cache:dir ~jobs:2 ~expected_s:warm_expected_s ())

(* The cache a successful cold report leaves is kept as the warm cache
   of this checkout, unless one is already there. *)
let keep_or_remove cache ok =
  if ok && not (Sys.file_exists warm_dir) then Sys.rename cache warm_dir
  else Proc.rm_rf cache

let ensure_warm tally =
  if not (Sys.file_exists warm_dir) then begin
    Printf.eprintf "e2e: no warm cache in this checkout yet; running a cold report\n%!";
    let cache = work_path "warm-build" in
    Proc.rm_rf cache;
    match
      report_rep tally ~cache ~jobs:2 ~args:[ "--cold" ] ~expected_s:cold_expected_s ()
    with
    | Some r -> keep_or_remove cache r.ok
    | None -> Proc.rm_rf cache
  end;
  Sys.file_exists warm_dir

(* Reports back to back until [seconds] of them have run, and at least
   [min_reps], but none that would likely outlast the run's budget:
   [longest] is the longest report so far, at first the caller's
   estimate.  On a host slowed by other tenants that can mean fewer
   reps, never a report killed for want of time. *)
let loop tally ~seconds ~min_reps ~args ~expected_s ?(longest = 0.) next_cache after =
  let rec go acc n busy longest =
    if n >= min_reps && busy >= seconds then List.rev acc
    else if Tally.remaining () < 1.5 *. longest then begin
      Printf.eprintf "e2e: no time left for another report after %d\n%!" n;
      List.rev acc
    end
    else
      let cache = next_cache () in
      match report_rep tally ~cache ~jobs:2 ~args ~expected_s () with
      | None -> List.rev acc
      | Some r ->
        after cache r.ok;
        go (r :: acc) (n + 1) (busy +. r.wall) (Float.max longest r.wall)
  in
  go [] 0 0. longest

let set_e2e tally reps setups =
  let good = List.filter (fun r -> r.ok) reps in
  let walls = List.map (fun r -> r.wall) good in
  Tally.set_latency tally walls ~busy_s:(Tally.sum walls);
  Tally.set tally "peak_rss_mb" (Summary.median (List.map rss_mb good));
  Tally.set tally "setup_s" (Summary.median setups)

let trace_json r =
  Option.bind r.res (fun j -> Json.member "trace" j)
  |> Option.value ~default:(Json.Obj [])

let child_float r k =
  Option.value ~default:0. (Option.bind r.res (fun j -> Proc.get_float j k))

(* Share of the child's report time covered by top-level spans. *)
let coverage r spans =
  let t_begin = child_float r "t_begin" and t_end = child_float r "t_end" in
  let covered =
    List.fold_left
      (fun acc (s : Tracer.span) ->
        if s.parent = 0 && s.start >= t_begin && s.stop <= t_end then
          acc +. (s.stop -. s.start)
        else acc)
      0. spans
  in
  if t_end > t_begin then covered /. (t_end -. t_begin) else 0.

(* One more report with spans on: the layers both report workloads
   share, then the workload's own from [layers].  Returns its wall time
   (0 when it did not run). *)
let traced_rep tally ~cache ~jobs ~args ~expected_s ~write_trace layers =
  match report_rep tally ~cache ~jobs ~args ~expected_s () with
  | None ->
    Tally.fail tally "no time left for the traced report";
    0.
  | Some r ->
    let spans = Tracer.spans_of_json (trace_json r) in
    List.iter (fun (k, v) -> Tally.set tally k v) (Tracer.counters_of_json (trace_json r));
    Tally.set tally "diskcache.hits" (child_float r "hits");
    Tally.set tally "diskcache.misses" (child_float r "misses");
    Tally.set tally "trace.coverage" (coverage r spans);
    layers r spans (Tracer.self_times spans);
    write_trace (trace_json r);
    r.wall

(* Traced over untraced latency, once both have run. *)
let set_overhead tally traced_wall =
  match Tally.get tally "p50_ms" with
  | Some p when p > 0. && traced_wall > 0. ->
    Tally.set tally "trace.overhead" (1000. *. traced_wall /. p)
  | _ -> ()

(* The traced cold report: one child at [--jobs 1], spans on. *)
let traced_cold tally ~write_trace =
  let cache = work_path "cold-traced" in
  Proc.rm_rf cache;
  let wall =
    traced_rep tally ~cache ~jobs:1
      ~args:[ "--cold"; "--serial"; "--spans" ]
      ~expected_s:cold_serial_expected_s ~write_trace
      (fun r spans self ->
        List.iter
          (fun k -> Tally.set tally ("plan." ^ k ^ "_s") (self ("plan." ^ k)))
          [ "stats"; "trace"; "fused"; "uarch" ];
        Tally.set tally "replay.chunk_s" (self "replay.chunk");
        Tally.set tally "replay.nonchunk_s" (self "plan.fused" +. self "plan.uarch");
        Tally.set tally "replay.decode_s" (self "replay.decode");
        Tally.set tally "experiments.render_s" (self "experiments.render");
        let slowest =
          List.fold_left
            (fun (best : Tracer.span option) (s : Tracer.span) ->
              match best with
              | Some b when b.stop -. b.start >= s.stop -. s.start -> best
              | _ when s.name = "experiments.render" -> Some s
              | _ -> best)
            None spans
        in
        Option.iter
          (fun (s : Tracer.span) ->
            Tally.set tally "experiments.render_max_s" (s.stop -. s.start);
            Printf.printf "slowest render: %s (%.3f s)\n"
              (List.nth Experiments.all (s.req - 1)).id (s.stop -. s.start))
          slowest;
        Tally.set tally "diskcache.bytes" (float_of_int (Proc.du cache));
        let cov = coverage r spans in
        if cov < 0.95 then
          Tally.fail tally (Printf.sprintf "trace.coverage %.3f < 0.95" cov))
  in
  Proc.rm_rf cache;
  wall

let cold tally ~seconds ~trace ~write_trace =
  let setups =
    List.init setup_reps (fun _ ->
        setup_rep ~dir:(work_path "cold-setup") ~fill:Proc.mkdir_p (start_system tally))
  in
  Proc.rm_rf (work_path "cold-setup");
  (* The traced pass goes first, so the run's budget always has room for
     it; a serial report takes longer than a parallel one, so its time
     bounds the untraced rep that follows. *)
  let traced_wall = if trace then traced_cold tally ~write_trace else 0. in
  (* One cold report outlasts any sensible [--seconds], so the median is
     over a fixed count: two reps, or one beside a traced pass, which
     needs only the untraced time to state its overhead. *)
  let reps =
    loop tally ~seconds
      ~min_reps:(if trace then 1 else 2)
      ~args:[ "--cold" ] ~expected_s:cold_expected_s ~longest:traced_wall
      (fun () ->
        let c = work_path "cold" in
        Proc.rm_rf c;
        c)
      keep_or_remove
  in
  set_e2e tally reps setups;
  set_overhead tally traced_wall

let warm tally ~seconds ~trace ~write_trace =
  if not (ensure_warm tally) then Tally.fail tally "no warm cache"
  else begin
    let farm = work_path "warm" in
    let setups =
      List.init setup_reps (fun _ ->
          setup_rep ~dir:farm ~fill:(Proc.link_tree warm_dir) (first_warm_report tally))
    in
    let reps =
      loop tally ~seconds ~min_reps:1 ~args:[] ~expected_s:warm_expected_s
        (fun () -> farm)
        (fun _ _ -> ())
    in
    set_e2e tally reps setups;
    if trace then
      set_overhead tally
        (traced_rep tally ~cache:farm ~jobs:2 ~args:[ "--spans" ]
           ~expected_s:warm_expected_s ~write_trace (fun r _ self ->
             Tally.set tally "report.startup_ms" (1000. *. (child_float r "t_main" -. r.t0));
             Tally.set tally "plan.warm_ms" (1000. *. self "plan.run");
             Tally.set tally "experiments.render_warm_ms" (1000. *. self "experiments.render")));
    Proc.rm_rf farm
  end
