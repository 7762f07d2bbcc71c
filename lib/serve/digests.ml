module Plan = Repro_harness.Plan
module Runs = Repro_harness.Runs
module Crc32c = Repro_util.Crc32c

(* Result digests are compared only for equality (client vs server, CI
   smoke vs direct run), never used as identity keys, so the cheap
   CRC-32C does the job MD5 did — and stops taxing bulk sweep results
   and multi-megabyte trace files per request. *)
let digest v = Printf.sprintf "%08x" (Crc32c.string (Marshal.to_string v []))

let grid_values bench target =
  List.map
    (fun (size, block, sub) -> Runs.cached bench target ~size ~block ~sub)
    Runs.standard_grid

let uarch_values bench target =
  List.map (Runs.uarch bench target) Runs.standard_uarch_configs

let of_spec (s : Plan.spec) =
  Plan.execute s;
  let bench = s.Plan.bench and target = s.Plan.target in
  match s.Plan.kind with
  | Plan.Stats -> digest (Runs.stats bench target)
  | Plan.Grid -> digest (grid_values bench target)
  | Plan.Uarch -> digest (uarch_values bench target)
  | Plan.Fused -> digest (grid_values bench target, uarch_values bench target)
  | Plan.Trace -> (
    (* The stored trace file itself is the result.  With the disk cache
       disabled the capture file is gone by design; digest the reader's
       identity key instead so the response stays well-formed. *)
    let path = Runs.trace_path bench target in
    match Crc32c.file path with
    | crc -> Printf.sprintf "%08x" crc
    | exception Sys_error _ ->
      digest ("volatile-trace", Runs.trace_key bench target))

let key_of_spec (s : Plan.spec) =
  let bench = s.Plan.bench and target = s.Plan.target in
  match s.Plan.kind with
  | Plan.Stats -> "stats:" ^ Runs.stats_key bench target
  | Plan.Grid -> "grid:" ^ Runs.grid_key bench target
  | Plan.Uarch -> "uarch:" ^ Runs.uarch_sweep_key bench target
  | Plan.Fused ->
    "fused:" ^ Runs.grid_key bench target ^ ":"
    ^ Runs.uarch_sweep_key bench target
  | Plan.Trace -> "trace:" ^ Runs.trace_key bench target
