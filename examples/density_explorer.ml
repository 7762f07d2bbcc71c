(* Density explorer: Section 3 of the paper in miniature.  Compiles one
   program for all five targets and attributes the density/path gap to
   individual instruction-set features (register count, operand count),
   exactly as the paper's selectively restricted compilers do.

   Run with:  dune exec examples/density_explorer.exe [benchmark]
   (default benchmark: dhrystone)                                        *)

module Target = Repro_core.Target
module Compile = Repro_harness.Compile
module Link = Repro_link.Link
module Suite = Repro_workloads.Suite
module Table = Repro_util.Table

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "dhrystone" in
  let source =
    match Suite.find bench with
    | b -> b.Suite.source
    | exception Not_found ->
      Printf.eprintf "unknown benchmark %s; try --list via bin/d16c\n" bench;
      exit 1
  in
  Printf.printf "Feature attribution for '%s'\n\n" bench;
  let measure target =
    let image, result = Compile.compile_and_run target source in
    (Link.size_bytes image, result.Repro_sim.Machine.ic)
  in
  let rows =
    List.map
      (fun t ->
        let size, ic = measure t in
        [ t.Target.name; string_of_int size; string_of_int ic ])
      Target.all
  in
  print_string (Table.render [ "target"; "bytes"; "path" ] rows);
  (* Attribute the differences feature by feature. *)
  let s_d16, p_d16 = measure Target.d16 in
  let s_162, p_162 = measure Target.dlxe_16_2 in
  let s_163, p_163 = measure Target.dlxe_16_3 in
  let s_323, p_323 = measure Target.dlxe in
  let pct a b = 100. *. (float_of_int a -. float_of_int b) /. float_of_int b in
  Printf.printf
    "\nGoing from D16 to DLXe/16/2 (wide immediates and offsets):\n\
    \  size %+.1f%%, path %+.1f%%\n"
    (pct s_162 s_d16) (pct p_162 p_d16);
  Printf.printf
    "Allowing three-address instructions (DLXe/16/2 -> /16/3):\n\
    \  size %+.1f%%, path %+.1f%%\n"
    (pct s_163 s_162) (pct p_163 p_162);
  Printf.printf
    "Doubling the register file (DLXe/16/3 -> /32/3):\n\
    \  size %+.1f%%, path %+.1f%%\n"
    (pct s_323 s_163) (pct p_323 p_163);
  Printf.printf
    "\nNet: DLXe programs are %.2fx the size of D16 but execute %.2fx the\n\
     instructions — density buys more than expressiveness costs.\n"
    (float_of_int s_323 /. float_of_int s_d16)
    (float_of_int p_323 /. float_of_int p_d16)
