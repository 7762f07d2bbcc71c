(* The [sim-suite] workload: the simulator used as a tool, as `d16c run`
   and trace capture use it.  Every pair of benchmark and target is
   compiled, simulated, simulated again feeding a trace writer, and its
   trace reopened and verified, in an order drawn from the seed.

   The rounds run in a child process of this executable, which writes
   one line per pair as it goes, so a child killed at its deadline
   still leaves the pairs it finished. *)

module Target = Repro_core.Target
module Suite = Repro_workloads.Suite
module Runtime_lib = Repro_workloads.Runtime_lib
module Compile = Repro_harness.Compile
module Machine = Repro_sim.Machine
module Link = Repro_link.Link
module Trace = Repro_trace.Trace
module Parser = Repro_minic.Parser
module Lower = Repro_ir.Lower
module Opt = Repro_ir.Opt
module Regalloc = Repro_ir.Regalloc
module Irprep = Repro_codegen.Irprep
module Select = Repro_codegen.Select
module Sched = Repro_codegen.Sched
module Json = Repro_util.Json

let now = Unix.gettimeofday
let span = Tracer.span

let targets =
  List.map
    (fun n -> match Target.of_name n with Ok t -> t | Error e -> failwith e)
    Target.all_names

let pairs =
  Array.of_list
    (List.concat_map (fun b -> List.map (fun t -> (b, t)) targets) Suite.all)

(* --- Child side --------------------------------------------------------- *)

(* [Compile.compile]'s pipeline, phase by phase through the public
   functions, with a span around each phase. *)
let compile_mirror target source =
  let source = Runtime_lib.source ^ source in
  let ast = span "minic.parse" (fun () -> Parser.parse source) in
  let u = span "ir.lower" (fun () -> Lower.lower_program ast) in
  let lits = Irprep.empty_fp_literals () in
  let flags = Compile.no_ablation.opt_flags in
  let frags =
    List.map
      (fun f ->
        span "ir.opt" (fun () -> Opt.optimize_with flags f);
        span "codegen.irprep" (fun () -> Irprep.prepare ~flags target lits f);
        let alloc = span "ir.regalloc" (fun () -> Regalloc.allocate target f) in
        let frag = span "codegen.select" (fun () -> Select.select target alloc f) in
        span "codegen.sched" (fun () ->
            Sched.fill_delay_slots target (Sched.schedule_loads frag)))
      u.Lower.funcs
  in
  span "link.link" (fun () ->
      Link.link target frags (u.Lower.data @ Irprep.fp_literal_data lits))

let same_image (a : Link.image) (b : Link.image) =
  let symbols (i : Link.image) =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) i.symbols [])
  in
  a.insns = b.insns && a.addr_of = b.addr_of && a.init = b.init
  && a.entry_index = b.entry_index && a.text_base = b.text_base
  && a.text_bytes = b.text_bytes && a.data_base = b.data_base
  && a.data_bytes = b.data_bytes && symbols a = symbols b

type pair_result = {
  compile_s : float;
  run_s : float;
  capture_s : float;
  close_s : float;
  open_s : float;
  verify_s : float;
  insns : int;
  bytes : int;
  output : string;
}

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let setup_reps = 25

(* One pair end to end.  [Error] names the first check that failed. *)
let run_pair ~spans ~dir (b : Suite.benchmark) (t : Target.t) =
  let img, compile_s =
    timed (fun () ->
        span "compile" (fun () ->
            if spans then compile_mirror t b.source
            else Compile.compile t b.source))
  in
  let mirror_ok =
    (not spans)
    || span "compile.check" (fun () -> same_image img (Compile.compile t b.source))
  in
  let r, run_s = timed (fun () -> span "sim.run" (fun () -> Machine.run ~trace:false img)) in
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-%s.trc" b.name
         (String.map (fun c -> if c = '/' then '-' else c) t.name))
  in
  let w = Trace.Writer.create ~insn_bytes:(Target.insn_bytes t) path in
  let rc, capture_s =
    timed (fun () ->
        span "trace.capture" (fun () ->
            Machine.run ~trace:false
              ~on_insn:(fun ~iaddr ~dinfo -> Trace.Writer.step w ~pc:iaddr ~dinfo)
              img))
  in
  let (), close_s = timed (fun () -> span "trace.close" (fun () -> Trace.Writer.close w)) in
  let rd, open_s = timed (fun () -> span "trace.open" (fun () -> Trace.Reader.open_file path)) in
  Sys.remove path;
  match rd with
  | Error e -> Error ("open: " ^ e)
  | Ok rd -> (
    let verified, verify_s =
      timed (fun () -> span "trace.verify" (fun () -> Trace.Reader.verify rd))
    in
    let result =
      {
        compile_s;
        run_s;
        capture_s;
        close_s;
        open_s;
        verify_s;
        insns = r.ic;
        bytes = Trace.Reader.byte_size rd;
        output = r.output;
      }
    in
    match verified with
    | Error e -> Error ("verify: " ^ e)
    | Ok () ->
      if not mirror_ok then Error "compile mirror image differs from Compile.compile"
      else if r.exit_code <> 0 then Error (Printf.sprintf "exit code %d" r.exit_code)
      else if rc.exit_code <> 0 || rc.output <> r.output then
        Error "captured run differs from the plain run"
      else if rc.ic <> r.ic || Trace.Reader.n_records rd <> r.ic then
        Error
          (Printf.sprintf "ic %d, captured ic %d, trace records %d" r.ic rc.ic
             (Trace.Reader.n_records rd))
      else Ok result)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let pair_line ~round (b : Suite.benchmark) (t : Target.t) ~wall res =
  let fields =
    match res with
    | Error e -> [ ("ok", Json.Bool false); ("error", Json.Str e) ]
    | Ok p ->
      [
        ("ok", Json.Bool true);
        ("compile_s", Json.Float p.compile_s);
        ("run_s", Json.Float p.run_s);
        ("capture_s", Json.Float p.capture_s);
        ("close_s", Json.Float p.close_s);
        ("open_s", Json.Float p.open_s);
        ("verify_s", Json.Float p.verify_s);
        ("insns", Json.Int p.insns);
        ("bytes", Json.Int p.bytes);
      ]
  in
  Json.Obj
    ([
       ("round", Json.Int round);
       ("bench", Json.Str b.name);
       ("target", Json.Str t.name);
       ("wall_s", Json.Float wall);
     ]
    @ fields)

(* Rounds over every pair until [seconds] have passed, and at least
   [rounds] of them.  Set-up runs a small pair [setup_reps] times, so lazy
   initialisation is over before timing starts; the first few runs are
   slower, so the median needs many.  Between pairs, outside
   the timed part, a full major collection releases the last pair's
   heap and trace mappings: each pair starts from the clean state a
   fresh `d16c run` would, whatever ran before it in the seeded order. *)
let child ~seed ~seconds ~rounds ~spans ~dir ~out =
  Proc.mkdir_p dir;
  let lines = Out_channel.open_bin (out ^ ".pairs") in
  Tracer.on := false;
  let setup =
    List.init setup_reps (fun _ ->
        snd
          (timed (fun () ->
               ignore (run_pair ~spans:false ~dir (Suite.find "towers") Target.d16))))
  in
  Tracer.on := spans;
  let rng = Random.State.make [| seed |] in
  let outputs = Hashtbl.create 16 in
  let t_begin = now () in
  let finished = ref [] in
  let rec go round =
    if round < rounds || now () -. t_begin < seconds then begin
      let r0 = now () in
      let busy = ref 0. in
      Array.iter
        (fun ((b : Suite.benchmark), t) ->
          let res, wall =
            timed (fun () ->
                span ~req:round "sim.pair" (fun () ->
                    try run_pair ~spans ~dir b t
                    with e -> Error (Printexc.to_string e)))
          in
          busy := !busy +. wall;
          (* Every target must print what the first one printed. *)
          let res =
            match res with
            | Ok p -> (
              match Hashtbl.find_opt outputs b.name with
              | None ->
                Hashtbl.add outputs b.name p.output;
                res
              | Some o when o = p.output -> res
              | Some _ -> Error "output differs from another target's")
            | Error _ -> res
          in
          Out_channel.output_string lines
            (Json.to_string (pair_line ~round b t ~wall res) ^ "\n");
          Out_channel.flush lines;
          span "harness.gc" Gc.full_major)
        (shuffle rng pairs);
      finished :=
        Json.Obj [ ("wall", Json.Float (now () -. r0)); ("busy", Json.Float !busy) ]
        :: !finished;
      go (round + 1)
    end
  in
  go 0;
  Out_channel.close lines;
  Proc.rm_rf dir;
  Proc.write_json out
    (Json.Obj
       [
         ("setup", Json.Arr (List.map (fun s -> Json.Float s) setup));
         ("rss_kb", Json.Int (Proc.vm_hwm_kb 0));
         ("rounds", Json.Arr (List.rev !finished));
         ("trace", Tracer.to_json ());
       ])

(* --- Parent side -------------------------------------------------------- *)

let round_expected_s = 15.

(* Rounds an untraced run measures at least.  On a shared host two
   rounds of one run, 15 s apart, can differ by a sixth, as much as
   separate runs do, so one round is too short a window; the median of
   two is their mean.  A third would stretch a run to 50 s. *)
let min_rounds = 2

type child_run = { lines : Json.t list; res : Json.t option }

let run_child tally ~seed ~seconds ~rounds ~spans =
  let expected_s = Float.max seconds (float_of_int rounds *. round_expected_s) +. 5. in
  let deadline_s = Tally.deadline_for expected_s in
  if deadline_s <= 0. then None
  else begin
    let base = Filename.concat Proc.work_dir (Printf.sprintf "sim-%d" (Unix.getpid ())) in
    let out = base ^ ".json" in
    (try Sys.remove (out ^ ".pairs") with Sys_error _ -> ());
    let args =
      [ "sim"; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
        "--rounds"; string_of_int rounds; "--dir"; base ^ "-traces" ]
      @ if spans then [ "--spans" ] else []
    in
    let _, _, outcome, res = Proc.run_child ~deadline_s ~out args in
    let lines =
      match In_channel.with_open_bin (out ^ ".pairs") In_channel.input_lines with
      | exception Sys_error _ -> []
      | ls -> List.filter_map (fun l -> Result.to_option (Json.parse l)) ls
    in
    List.iter Proc.rm_rf [ base ^ "-traces"; out ^ ".pairs" ];
    let n_pairs = Array.length pairs in
    List.iter
      (fun l ->
        match Option.bind (Json.member "ok" l) Json.to_bool with
        | Some true -> Tally.op tally true
        | _ ->
          Tally.fail tally
            (Printf.sprintf "sim pair %s on %s: %s"
               (Option.value ~default:"?" (Proc.get_str l "bench"))
               (Option.value ~default:"?" (Proc.get_str l "target"))
               (Option.value ~default:"?" (Proc.get_str l "error"))))
      lines;
    if outcome <> Proc.Exited 0 || res = None then begin
      (* The pairs of its rounds it did not finish count as failed. *)
      let left = max 1 ((rounds * n_pairs) - List.length lines) in
      Tally.op tally ~n:left false;
      Printf.eprintf "e2e: FAILED sim child: %s, %d pairs unfinished\n%!"
        (Proc.describe_outcome outcome) left
    end;
    Some { lines; res }
  end

let ok_lines c =
  List.filter (fun l -> Option.bind (Json.member "ok" l) Json.to_bool = Some true) c.lines

let field l k = Option.value ~default:0. (Proc.get_float l k)
let total c k = Tally.sum (List.map (fun l -> field l k) (ok_lines c))

let rounds c k =
  match Option.bind (Option.bind c.res (fun j -> Json.member "rounds" j)) Json.to_list with
  | Some rs -> List.filter_map (fun r -> Proc.get_float r k) rs
  | None -> []

let run tally ~seed ~seconds ~trace ~write_trace =
  match run_child tally ~seed ~seconds ~rounds:min_rounds ~spans:false with
  | None -> Tally.fail tally "no time left for the sim-suite child"
  | Some c -> (
    (* The operation users wait for is a round over the whole suite; the
       pairs inside it differ in size by two orders of magnitude. *)
    let busy = rounds c "busy" in
    Tally.set_latency tally busy ~busy_s:(Tally.sum busy);
    let res_float k = Option.bind c.res (fun j -> Proc.get_float j k) in
    Tally.set tally "peak_rss_mb" (Option.value ~default:0. (res_float "rss_kb") /. 1024.);
    let setup =
      match Option.bind (Option.bind c.res (fun j -> Json.member "setup" j)) Json.to_list with
      | Some l -> List.filter_map Json.to_float l
      | None -> []
    in
    Tally.set tally "setup_s" (Summary.median setup);
    if trace then
      match run_child tally ~seed ~seconds:0. ~rounds:1 ~spans:true with
      | None -> Tally.fail tally "no time left for the traced sim-suite child"
      | Some t ->
        let tj =
          Option.bind t.res (fun j -> Json.member "trace" j)
          |> Option.value ~default:(Json.Obj [])
        in
        let spans = Tracer.spans_of_json tj in
        let self = Tracer.self_times spans in
        List.iter
          (fun k -> Tally.set tally (k ^ "_s") (self k))
          [ "minic.parse"; "ir.lower"; "ir.opt"; "codegen.irprep"; "ir.regalloc";
            "codegen.select"; "codegen.sched"; "link.link" ];
        let n = List.length (ok_lines t) in
        let insns = total t "insns" in
        let run_s = total t "run_s" and capture_s = total t "capture_s" in
        Tally.set tally "compile.calls" (float_of_int n);
        Tally.set tally "sim.run_s" run_s;
        Tally.set tally "sim.insns" insns;
        Tally.set tally "sim.ns_per_insn" (1e9 *. run_s /. insns);
        Tally.set tally "trace.capture_s" capture_s;
        Tally.set tally "trace.capture_tax_ns_per_insn" (1e9 *. (capture_s -. run_s) /. insns);
        Tally.set tally "trace.close_s" (total t "close_s");
        Tally.set tally "trace.bytes_per_insn" (total t "bytes" /. insns);
        Tally.set tally "trace.open_s" (total t "open_s");
        Tally.set tally "trace.verify_s" (total t "verify_s");
        let covered =
          Tally.sum
            (List.filter_map
               (fun (s : Tracer.span) ->
                 if s.parent = 0 then Some (s.stop -. s.start) else None)
               spans)
        in
        (match (rounds t "wall", rounds t "busy", busy) with
        | [ wall ], [ traced ], (_ :: _ as untraced) ->
          Tally.set tally "trace.coverage" (covered /. wall);
          Tally.set tally "trace.overhead" (traced /. Summary.median untraced)
        | _ -> ());
        write_trace tj)
