module Insn = Repro_core.Insn
module Regs = Repro_core.Regs
module Trapcode = Repro_core.Trapcode
module Machine = Repro_sim.Machine

type rreg = Rg of int | Rf of int | Rstatus
type wreg = Wg of int | Wf of int | Wstatus
type cause = Load | Fp
type write = { dst : wreg; latency : int; cause : cause }
type desc = { reads : rreg list; write : write option }

let wg ?(latency = 0) ?(cause = Load) rd =
  Some { dst = Wg rd; latency; cause }

let wf ?(latency = 0) ?(cause = Load) fd =
  Some { dst = Wf fd; latency; cause }

let of_insn (i : Insn.t) =
  match i with
  | Insn.Load (_, rd, base, _) ->
    { reads = [ Rg base ]; write = wg rd ~latency:Machine.load_latency }
  | Insn.Store (_, rs, base, _) -> { reads = [ Rg base; Rg rs ]; write = None }
  | Insn.Fload (_, fd, base, _) ->
    { reads = [ Rg base ]; write = wf fd ~latency:Machine.load_latency }
  | Insn.Fstore (_, fs, base, _) -> { reads = [ Rg base; Rf fs ]; write = None }
  | Insn.Ldc (rd, _) ->
    { reads = []; write = wg rd ~latency:Machine.load_latency }
  | Insn.Alu (_, rd, ra, rb) -> { reads = [ Rg ra; Rg rb ]; write = wg rd }
  | Insn.Alui (_, rd, ra, _) -> { reads = [ Rg ra ]; write = wg rd }
  | Insn.Mv (rd, rs) -> { reads = [ Rg rs ]; write = wg rd }
  | Insn.Mvi (rd, _) | Insn.Mvhi (rd, _) -> { reads = []; write = wg rd }
  | Insn.Neg (rd, rs) | Insn.Inv (rd, rs) ->
    { reads = [ Rg rs ]; write = wg rd }
  | Insn.Cmp (_, rd, ra, rb) -> { reads = [ Rg ra; Rg rb ]; write = wg rd }
  | Insn.Cmpi (_, rd, ra, _) -> { reads = [ Rg ra ]; write = wg rd }
  | Insn.Br _ -> { reads = []; write = None }
  | Insn.Bz (r, _) | Insn.Bnz (r, _) -> { reads = [ Rg r ]; write = None }
  | Insn.Brl _ -> { reads = []; write = wg Regs.link }
  | Insn.J r -> { reads = [ Rg r ]; write = None }
  (* The architectural simulator evaluates the jump target before the
     tested register. *)
  | Insn.Jz (rt, rd) | Insn.Jnz (rt, rd) ->
    { reads = [ Rg rd; Rg rt ]; write = None }
  | Insn.Jl r -> { reads = [ Rg r ]; write = wg Regs.link }
  | Insn.Fbin (op, _, fd, fa, fb) ->
    let latency =
      match op with
      | Insn.Fadd | Insn.Fsub -> Machine.fp_latency_add
      | Insn.Fmul -> Machine.fp_latency_mul
      | Insn.Fdiv -> Machine.fp_latency_div
    in
    { reads = [ Rf fa; Rf fb ]; write = wf fd ~latency ~cause:Fp }
  | Insn.Fmv (_, fd, fs) | Insn.Fneg (_, fd, fs) ->
    { reads = [ Rf fs ]; write = wf fd }
  | Insn.Fcmp (_, _, fa, fb) ->
    {
      reads = [ Rf fa; Rf fb ];
      write =
        Some { dst = Wstatus; latency = Machine.fp_latency_cmp; cause = Fp };
    }
  | Insn.Cvtif (_, fd, rs) ->
    { reads = [ Rg rs ]; write = wf fd ~latency:Machine.fp_latency_add ~cause:Fp }
  | Insn.Cvtfi (_, rd, fs) ->
    { reads = [ Rf fs ]; write = wg rd ~latency:Machine.fp_latency_add ~cause:Fp }
  | Insn.Rdsr rd -> { reads = [ Rstatus ]; write = wg rd }
  | Insn.Trap code ->
    (* exit/put_int/put_char read the argument register; put_float reads
       the FP register file directly, without an interlock check. *)
    if code = Trapcode.exit || code = Trapcode.put_int
       || code = Trapcode.put_char
    then { reads = [ Rg Regs.ret_gpr ]; write = None }
    else { reads = []; write = None }
  | Insn.Nop -> { reads = []; write = None }

let table (img : Repro_link.Link.image) =
  Array.map of_insn img.Repro_link.Link.insns
