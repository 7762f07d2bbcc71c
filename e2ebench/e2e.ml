(* The end-to-end benchmark.

   One run measures one workload:

     e2e.exe --workload W --seed N --seconds S --trace 0|1 [--record FILE]

   and prints every metric by name and unit, then, as the last line of
   standard output, one JSON object: whether every output checked out,
   how many operations were attempted and failed, and the metrics —
   the end-to-end ones BENCHMARK.json declares with [--trace 0], its
   per-layer ones with [--trace 1].  [--record FILE] also appends the
   run to FILE, for

     e2e.exe --compare A B

   which sets two files of recorded runs side by side (see Compare).
   The same executable serves as the child processes the workloads
   start ([--child ...]); e2ebench/README.md describes the workloads. *)

module Json = Repro_util.Json

let t_main = Unix.gettimeofday ()

let usage () =
  prerr_endline
    "usage: e2e.exe --workload W --seed N --seconds S --trace 0|1 [--record FILE]\n\
    \       e2e.exe --compare A.jsonl B.jsonl";
  exit 2

(* [--key value] options and bare [--flag]s. *)
let parse_opts args =
  let rec go acc = function
    | k :: v :: rest
      when String.starts_with ~prefix:"--" k && not (String.starts_with ~prefix:"--" v) ->
      go ((k, Some v) :: acc) rest
    | k :: rest when String.starts_with ~prefix:"--" k -> go ((k, None) :: acc) rest
    | _ :: _ -> usage ()
    | [] -> acc
  in
  let opts = go [] args in
  let value k = Option.join (List.assoc_opt k opts) in
  let req k = match value k with Some v -> v | None -> usage () in
  (value, req, fun k -> List.mem_assoc k opts)

let num conv v = match conv v with Some n -> n | None -> usage ()

let child args =
  let value, req, flag = parse_opts args in
  Proc.arm_self_deadline (num float_of_string_opt (req "--deadline"));
  let out = req "--out" in
  Tracer.on := flag "--spans";
  match value "--mode" with
  | Some "ready" -> ()
  | Some "report" ->
    Report_wl.child ~t_main ~serial:(flag "--serial") ~cold:(flag "--cold") ~out
  | Some "sim" ->
    Sim_wl.child ~seed:(num int_of_string_opt (req "--seed"))
      ~seconds:(num float_of_string_opt (req "--seconds"))
      ~rounds:(num int_of_string_opt (req "--rounds"))
      ~spans:(flag "--spans") ~dir:(req "--dir") ~out
  | _ -> usage ()

let measure ~workload ~seed ~seconds ~trace =
  let tally = Tally.create () in
  let write_trace j =
    Proc.write_json
      (Filename.concat Proc.work_dir (Printf.sprintf "trace-%s-s%d.json" workload seed))
      j
  in
  (try
     match workload with
     | "report-cold" -> Report_wl.cold tally ~seconds ~trace ~write_trace
     | "report-warm" -> Report_wl.warm tally ~seconds ~trace ~write_trace
     | "serve-warm" -> Serve_wl.run tally ~seed ~seconds ~trace ~write_trace
     | "sim-suite" -> Sim_wl.run tally ~seed ~seconds ~trace ~write_trace
     | _ -> usage ()
   with e -> Tally.fail tally ("e2e: " ^ Printexc.to_string e));
  tally

let run args =
  let _, req, flag = parse_opts args in
  let workload = req "--workload" in
  let seed = num int_of_string_opt (req "--seed") in
  let seconds = num float_of_string_opt (req "--seconds") in
  let trace =
    match req "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let decl = Decl.load () in
  if not (List.mem workload decl.workloads) then usage ();
  Proc.mkdir_p Proc.work_dir;
  let tally = measure ~workload ~seed ~seconds ~trace in
  let declared = if trace then decl.per_layer else decl.end_to_end in
  (* A metric the run could not measure reads 0; an end-to-end one
     missing makes the run incorrect. *)
  let missing = ref [] in
  let metrics =
    List.map
      (fun (m : Decl.metric) ->
        let v =
          match Tally.get tally m.name with
          | Some v when Float.is_finite v -> v
          | _ ->
            missing := m.name :: !missing;
            0.
        in
        Printf.printf "%-12s %-34s %16.6f %s\n" workload m.name v m.unit_;
        (m.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.unit_) ]))
      declared
  in
  if (not trace) && !missing <> [] then
    Tally.fail tally ("not measured: " ^ String.concat ", " (List.rev !missing));
  if tally.attempted = 0 then Tally.fail tally "no operation ran";
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (tally.failed = 0));
        ("attempted", Json.Int tally.attempted);
        ("failed", Json.Int tally.failed);
        ("metrics", Json.Obj metrics);
      ]
  in
  Option.iter
    (fun file ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644 file (fun oc ->
          Out_channel.output_string oc
            (Json.to_string (Compare.record_json ~workload ~seed ~trace result) ^ "\n")))
    (if flag "--record" then Some (req "--record") else None);
  print_endline (Json.to_string result)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "--child" :: mode :: rest -> child (("--mode" :: mode :: rest))
  | [ "--compare"; a; b ] -> Compare.run a b
  | args -> run args
