module Parser = Repro_minic.Parser
module Lexer = Repro_minic.Lexer
module Lower = Repro_ir.Lower
module Opt = Repro_ir.Opt
module Regalloc = Repro_ir.Regalloc
module Irprep = Repro_codegen.Irprep
module Select = Repro_codegen.Select
module Sched = Repro_codegen.Sched
module Link = Repro_link.Link
module Machine = Repro_sim.Machine

exception Compile_error of string

let wrap f =
  try f () with
  | Lexer.Error m | Parser.Error m | Lower.Error m ->
    raise (Compile_error m)
  | Regalloc.Spill_failure m -> raise (Compile_error m)
  | Link.Link_error m -> raise (Compile_error ("link: " ^ m))
  | Failure m -> raise (Compile_error m)
  | Invalid_argument m -> raise (Compile_error ("invalid: " ^ m))

type ablation = {
  opt_flags : Opt.flags;
  fill_delay_slots : bool;
  schedule_loads : bool;
}

let no_ablation =
  { opt_flags = Opt.all_flags; fill_delay_slots = true; schedule_loads = true }

let describe_ablation a =
  Printf.sprintf
    "fold=%b;cse=%b;dce=%b;licm=%b;strength=%b;fill_delay_slots=%b;schedule_loads=%b"
    a.opt_flags.Opt.fold a.opt_flags.Opt.cse a.opt_flags.Opt.dce
    a.opt_flags.Opt.do_licm a.opt_flags.Opt.strength a.fill_delay_slots
    a.schedule_loads

let compile ?(optimize = 2) ?(ablation = no_ablation) ?(with_runtime = true)
    target source =
  wrap (fun () ->
      let source =
        if with_runtime then Repro_workloads.Runtime_lib.source ^ source
        else source
      in
      let ast = Parser.parse source in
      let u = Lower.lower_program ast in
      let lits = Irprep.empty_fp_literals () in
      let flags = if optimize > 0 then ablation.opt_flags else Opt.no_flags in
      let frags =
        List.map
          (fun f ->
            Opt.optimize_with flags f;
            Irprep.prepare ~flags target lits f;
            let alloc = Regalloc.allocate target f in
            let frag = Select.select target alloc f in
            let frag =
              if ablation.schedule_loads then Sched.schedule_loads frag
              else frag
            in
            Sched.fill_delay_slots ~fill:ablation.fill_delay_slots target frag)
          u.Lower.funcs
      in
      Link.link target frags (u.Lower.data @ Irprep.fp_literal_data lits))

let compile_and_run ?optimize ?ablation ?max_steps target source =
  let img = compile ?optimize ?ablation target source in
  let result = Machine.run ?max_steps img in
  (img, result)
