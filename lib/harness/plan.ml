module Target = Repro_core.Target
module Suite = Repro_workloads.Suite

type kind = Stats | Grid | Uarch | Fused | Trace
type spec = { bench : string; target : Target.t; kind : kind }
type t = spec list

let specs_of kind ~benches ~targets =
  List.concat_map
    (fun bench -> List.map (fun target -> { bench; target; kind }) targets)
    benches

let stats_specs ~benches ~targets = specs_of Stats ~benches ~targets
let grid_specs ~benches ~targets = specs_of Grid ~benches ~targets
let uarch_specs ~benches ~targets = specs_of Uarch ~benches ~targets
let fused_specs ~benches ~targets = specs_of Fused ~benches ~targets
let trace_specs ~benches ~targets = specs_of Trace ~benches ~targets
let spec_id s = (s.bench, s.target.Target.name, s.kind)

let dedup plan =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun s ->
      let id = spec_id s in
      if Hashtbl.mem seen id then false
      else begin
        Hashtbl.add seen id ();
        true
      end)
    plan

let union a b = dedup (a @ b)

(* Spec syntax: "kind:bench:target", the one spelling shared by the
   report CLI, the serve protocol, and the tests. *)

let kind_to_string = function
  | Stats -> "stats"
  | Grid -> "grid"
  | Uarch -> "uarch"
  | Fused -> "fused"
  | Trace -> "trace"

let kind_of_string = function
  | "stats" -> Ok Stats
  | "grid" -> Ok Grid
  | "uarch" -> Ok Uarch
  | "fused" -> Ok Fused
  | "trace" -> Ok Trace
  | s ->
    Error
      (Printf.sprintf
         "unknown plan kind %S (expected stats, grid, uarch, fused or trace)"
         s)

(* The canonical short spelling of a target: the first [Target.all_names]
   entry that parses back to it (aliases like dlxe-32-3 normalize to
   dlxe), falling back to the slugged full name. *)
let target_short (t : Target.t) =
  match
    List.find_opt
      (fun n ->
        match Target.of_name n with
        | Ok u -> u.Target.name = t.Target.name
        | Error _ -> false)
      Target.all_names
  with
  | Some n -> n
  | None ->
    String.lowercase_ascii
      (String.map (fun c -> if c = '/' then '-' else c) t.Target.name)

let spec_to_string s =
  Printf.sprintf "%s:%s:%s" (kind_to_string s.kind) s.bench
    (target_short s.target)

let spec_of_string w =
  match String.split_on_char ':' w with
  | [ kind; bench; target ] -> (
    match kind_of_string kind with
    | Error e -> Error e
    | Ok kind -> (
      if not (List.exists (fun b -> b.Suite.name = bench) Suite.all) then
        Error
          (Printf.sprintf "unknown benchmark %S (expected one of: %s)" bench
             (String.concat ", " (List.map (fun b -> b.Suite.name) Suite.all)))
      else
        match Target.of_name target with
        | Error e -> Error e
        | Ok target -> Ok { bench; target; kind }))
  | _ -> Error (Printf.sprintf "malformed spec %S (expected kind:bench:target)" w)

let looks_like_spec w = String.contains w ':'

let describe s =
  Printf.sprintf "%s on %s%s" s.bench s.target.Target.name
    (match s.kind with
    | Stats -> ""
    | Grid -> " (cache grid)"
    | Uarch -> " (uarch sweep)"
    | Fused -> " (fused sweep)"
    | Trace -> " (trace capture)")

let execute ?chunk_map s =
  let sweeps ~grid ~uarch =
    Runs.ensure_sweeps ?map:chunk_map ~grid ~uarch s.bench s.target
  in
  match s.kind with
  | Stats -> ignore (Runs.stats s.bench s.target)
  | Grid -> sweeps ~grid:true ~uarch:false
  | Uarch -> sweeps ~grid:false ~uarch:true
  | Fused -> sweeps ~grid:true ~uarch:true
  | Trace -> Runs.ensure_trace s.bench s.target

let suite_names = List.map (fun b -> b.Suite.name) Suite.all

let cache_names =
  List.map (fun b -> b.Suite.name) Suite.cache_benchmarks

(* Trace captures go first: the cache-benchmark captures are the long
   poles (their fused sweeps replay the stored trace), so under a parallel
   pool they start immediately.  The cache benchmarks then take one fused
   sweep each — a single decode feeds all 25 grid geometries plus the
   full pipeline-configuration sweep — the rest of the suite takes plain
   uarch sweeps (each captures its pair's trace on first contact), then
   stats, which execute the machine once per pair and never touch the
   trace store. *)
let full () =
  let non_cache =
    List.filter (fun b -> not (List.mem b cache_names)) suite_names
  in
  (* The ISA-variant artifacts sweep the mixed-width target through the
     same plane as the paper pair; fusion counters replay the D16 traces
     the pair's units already capture. *)
  let swept = [ Target.d16; Target.dlxe; Target.d16m ] in
  union
    (trace_specs ~benches:cache_names ~targets:swept)
    (union
       (fused_specs ~benches:cache_names ~targets:swept)
       (union
          (uarch_specs ~benches:non_cache ~targets:swept)
          (union
             (stats_specs ~benches:suite_names ~targets:Target.all)
             (stats_specs ~benches:suite_names
                ~targets:[ Target.d16x; Target.d16m ]))))

let for_experiment id =
  let cache_pair = [ Target.d16; Target.dlxe ] in
  match id with
  | "fig16" | "fig17" | "fig18" | "fig19" ->
    union
      (grid_specs ~benches:cache_names ~targets:cache_pair)
      (stats_specs ~benches:cache_names ~targets:cache_pair)
  | "tab14" -> grid_specs ~benches:[ "assem" ] ~targets:cache_pair
  | "tab15" -> grid_specs ~benches:[ "ipl" ] ~targets:cache_pair
  | "tab16" -> grid_specs ~benches:[ "latex" ] ~targets:cache_pair
  | "tab13" -> stats_specs ~benches:cache_names ~targets:cache_pair
  | "xfig1" ->
    stats_specs ~benches:suite_names ~targets:[ Target.d16; Target.d16x ]
  | "utab1" | "ufig1" ->
    uarch_specs ~benches:suite_names ~targets:cache_pair
  | "pfig1" ->
    (* The Pareto frontier reads the pipeline sweep (CPI, cache traffic)
       and the suite stats (density, bus traffic); the cache benchmarks
       take the fused unit so the sweep shares the grid's decode. *)
    let non_cache =
      List.filter (fun b -> not (List.mem b cache_names)) suite_names
    in
    union
      (fused_specs ~benches:cache_names ~targets:cache_pair)
      (union
         (uarch_specs ~benches:non_cache ~targets:cache_pair)
         (stats_specs ~benches:suite_names ~targets:cache_pair))
  | "vtab1" | "vfig1" ->
    (* Variant table and scatter: full pipeline sweep for the three
       machines plus D16m; fusion replays the D16 traces in-process. *)
    let swept = [ Target.d16; Target.dlxe; Target.d16m ] in
    let non_cache =
      List.filter (fun b -> not (List.mem b cache_names)) suite_names
    in
    union
      (fused_specs ~benches:cache_names ~targets:swept)
      (union
         (uarch_specs ~benches:non_cache ~targets:swept)
         (stats_specs ~benches:suite_names ~targets:swept))
  | "tab4" | "xtab1" ->
    (* These drivers run their own traced/ablated compiles and cache the
       derived numbers directly in {!Diskcache}. *)
    []
  | _ -> stats_specs ~benches:suite_names ~targets:Target.all
