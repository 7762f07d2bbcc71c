(* Hot-instruction profiler: execution counts per static instruction, with
   the containing function, for any suite benchmark on any target.

   Usage: dune exec bin/profile.exe -- [benchmark] [target] [top-n]
   Defaults: pi d16 20                                                  *)

module Link = Repro_link.Link
module Machine = Repro_sim.Machine
module Insn = Repro_core.Insn
module Memo = Repro_harness.Memo

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "pi" in
  let target_name = if Array.length Sys.argv > 2 then Sys.argv.(2) else "d16" in
  let top_n =
    if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 20
  in
  let target =
    match Repro_core.Target.of_name target_name with
    | Ok t -> t
    | Error msg ->
      prerr_endline msg;
      exit 1
  in
  (* The compile+simulate is the expensive part; the whole profile (header
     stats and sorted hot rows) is persisted in the run cache. *)
  let profiles : (string * (int * int * string * string) list) Memo.t =
    Memo.on_disk "profile"
  in
  let key =
    Memo.key profiles (bench, target.Repro_core.Target.name) ~disk:(fun () ->
        [
          bench;
          Repro_harness.Runs.bench_fingerprint bench;
          Repro_core.Target.describe target;
          Repro_harness.Runs.knobs_descr;
        ])
  in
  let header, rows =
    Memo.get key (fun () ->
        let b = Repro_workloads.Suite.find bench in
        let img = Repro_harness.Compile.compile target b.source in
        let counts = Array.make (Array.length img.Link.insns) 0 in
        let on_insn ~iaddr ~dinfo:_ =
          let i = Link.index_at img iaddr in
          counts.(i) <- counts.(i) + 1
        in
        let r = Machine.run ~on_insn img in
        let funcs =
          Hashtbl.fold (fun s a acc -> (a, s) :: acc) img.Link.symbols []
          |> List.sort compare
        in
        let fn_of addr =
          List.fold_left
            (fun acc (a, s) -> if a <= addr then s else acc)
            "?" funcs
        in
        let hot = ref [] in
        Array.iteri
          (fun i n ->
            if n > 0 then
              hot := (n, img.Link.addr_of.(i), img.Link.insns.(i)) :: !hot)
          counts;
        let sorted =
          List.sort (fun (a, _, _) (b, _, _) -> compare b a) !hot
        in
        let header =
          Printf.sprintf
            "%s on %s: path=%d loads=%d stores=%d interlocks=%d size=%dB"
            bench target.Repro_core.Target.name r.Machine.ic r.Machine.loads
            r.Machine.stores r.Machine.interlocks (Link.size_bytes img)
        in
        ( header,
          List.map
            (fun (n, addr, insn) ->
              (n, addr, Insn.to_string insn, fn_of addr))
            sorted ))
  in
  Printf.printf "%s\n\n" header;
  Printf.printf "%8s  %-8s  %-30s %s\n" "count" "addr" "instruction" "function";
  List.iteri
    (fun k (n, addr, insn, fn) ->
      if k < top_n then Printf.printf "%8d  0x%06x  %-30s %s\n" n addr insn fn)
    rows
