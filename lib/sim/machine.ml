module Insn = Repro_core.Insn
module Target = Repro_core.Target
module D16m = Repro_core.D16m
module Regs = Repro_core.Regs
module Trapcode = Repro_core.Trapcode
module Bitops = Repro_util.Bitops
module Link = Repro_link.Link

let decode_daccess packed =
  if packed = 0 then None
  else Some (packed land 1 = 1, packed lsr 5, (packed lsr 1) land 0xF)

let encode_daccess ~is_write ~addr ~bytes =
  (addr lsl 5) lor (bytes lsl 1) lor (if is_write then 1 else 0)

type result = {
  exit_code : int;
  output : string;
  ic : int;
  loads : int;
  stores : int;
  load_words : int;
  store_words : int;
  interlocks : int;
}

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let fp_latency_add = 2
let fp_latency_mul = 4
let fp_latency_div = 8
let fp_latency_cmp = 2
let load_latency = 1

(* The reference interpreter: per-instruction match dispatch over the
   image's [Insn.t] array.  Retained verbatim as the differential oracle
   for the threaded interpreter below ([run] must produce identical trap
   codes, counters, output and [on_insn] streams — test/t_machine.ml
   gates on it); it shares only the arithmetic helpers and the result
   type. *)
let run_ref ?on_insn ?(max_steps = 400_000_000) (img : Link.image) =
  let t = img.Link.target in
  let zero_r0 = t.Target.zero_r0 in
  let insn_bytes = Target.insn_bytes t in
  let regs = Array.make t.Target.n_gpr 0 in
  let fregs = Array.make t.Target.n_fpr 0.0 in
  regs.(Regs.sp) <- img.Link.sp_init;
  let mem = Bytes.make img.Link.mem_size '\000' in
  List.iter
    (fun (addr, b) -> Bytes.blit b 0 mem addr (Bytes.length b))
    img.Link.init;
  let insns = img.Link.insns in
  let addr_of = img.Link.addr_of in
  let n_insns = Array.length insns in
  (* On a mixed-width target the trace marks wide (4-byte) instructions by
     setting bit 0 of the (always even) instruction address, so downstream
     fetch models can recover instruction sizes without the image. *)
  let tr_addr =
    if t.Target.mixed then
      Array.mapi
        (fun i a -> if D16m.is_wide insns.(i) then a lor 1 else a)
        addr_of
    else addr_of
  in
  let isize i =
    if t.Target.mixed then D16m.size insns.(i) else insn_bytes
  in
  (* Return address of a branch-and-link at index [i]: past the branch and
     its delay slot, whatever their encoded sizes. *)
  let link_ret addr i =
    addr + isize i + (if i + 1 < n_insns then isize (i + 1) else insn_bytes)
  in
  let output = Buffer.create 256 in
  let ic = ref 0 in
  let loads = ref 0 in
  let stores = ref 0 in
  let load_words = ref 0 in
  let store_words = ref 0 in
  let interlocks = ref 0 in
  let cycle = ref 0 in
  let ready_g = Array.make t.Target.n_gpr 0 in
  let ready_f = Array.make t.Target.n_fpr 0 in
  let ready_status = ref 0 in
  let status = ref 0 in
  let exit_code = ref None in
  (* Current data access of the executing instruction, for [on_insn]. *)
  let cur_d = ref 0 in

  let stall_until r ready =
    if ready.(r) > !cycle then begin
      let s = ready.(r) - !cycle in
      interlocks := !interlocks + s;
      cycle := !cycle + s
    end
  in
  let useg r =
    stall_until r ready_g;
    if zero_r0 && r = 0 then 0 else regs.(r)
  in
  let usef r =
    stall_until r ready_f;
    fregs.(r)
  in
  let setg r v = if not (zero_r0 && r = 0) then regs.(r) <- v in
  let setg_lat r v lat =
    setg r v;
    ready_g.(r) <- !cycle + 1 + lat
  in
  let setf_lat r v lat =
    fregs.(r) <- v;
    ready_f.(r) <- !cycle + 1 + lat
  in

  let check_range addr bytes =
    if addr < 0 || addr + bytes > img.Link.mem_size then
      err "memory access out of range: 0x%x" addr
  in
  let read32 addr =
    check_range addr 4;
    if addr land 3 <> 0 then err "unaligned word read at 0x%x" addr;
    Int32.to_int (Bytes.get_int32_le mem addr)
  in
  let write32 addr v =
    check_range addr 4;
    if addr land 3 <> 0 then err "unaligned word write at 0x%x" addr;
    Bytes.set_int32_le mem addr (Int32.of_int v)
  in
  let read64f addr =
    check_range addr 8;
    if addr land 3 <> 0 then err "unaligned double read at 0x%x" addr;
    Int64.float_of_bits (Bytes.get_int64_le mem addr)
  in
  let write64f addr v =
    check_range addr 8;
    if addr land 3 <> 0 then err "unaligned double write at 0x%x" addr;
    Bytes.set_int64_le mem addr (Int64.bits_of_float v)
  in
  let note_read addr bytes =
    incr loads;
    load_words := !load_words + ((bytes + 3) / 4);
    cur_d := encode_daccess ~is_write:false ~addr ~bytes
  in
  let note_write addr bytes =
    incr stores;
    store_words := !store_words + ((bytes + 3) / 4);
    cur_d := encode_daccess ~is_write:true ~addr ~bytes
  in

  let eval_cond (c : Insn.cond) a b =
    match c with
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
    | Eq -> a = b
    | Ne -> a <> b
    | Ltu -> Bitops.ltu32 a b
    | Leu -> not (Bitops.ltu32 b a)
    | Gtu -> Bitops.ltu32 b a
    | Geu -> not (Bitops.ltu32 a b)
  in
  let eval_fcond (c : Insn.cond) (a : float) b =
    match c with
    | Lt | Ltu -> a < b
    | Le | Leu -> a <= b
    | Gt | Gtu -> a > b
    | Ge | Geu -> a >= b
    | Eq -> a = b
    | Ne -> a <> b
  in
  let alu (op : Insn.alu) a b =
    match op with
    | Add -> Bitops.add32 a b
    | Sub -> Bitops.sub32 a b
    | And -> Bitops.of_u32 (a land b)
    | Or -> Bitops.of_u32 (a lor b)
    | Xor -> Bitops.of_u32 (a lxor b)
    | Shl -> Bitops.shl32 a (b land 31)
    | Shr -> Bitops.shr32 a (b land 31)
    | Shra -> Bitops.sra32 a (b land 31)
  in

  let idx = ref img.Link.entry_index in
  let pending = ref (-1) in
  let steps = ref 0 in
  let branch_target = img.Link.branch_target in
  (try
     while !exit_code = None do
       if !idx < 0 || !idx >= n_insns then err "pc out of text (index %d)" !idx;
       incr steps;
       if !steps > max_steps then err "step limit exceeded (%d)" max_steps;
       let i = insns.(!idx) in
       let addr = addr_of.(!idx) in
       cur_d := 0;
       let just_branched = ref false in
       let branch_idx ti target =
         if !pending >= 0 then err "branch in delay slot at 0x%x" addr;
         if ti < 0 then err "branch to non-instruction address 0x%x" target;
         pending := ti;
         just_branched := true
       in
       (* Register jumps resolve dynamically; PC-relative branches were
          resolved to instruction indices at link time. *)
       let branch_to target = branch_idx (Link.index_at img target) target in
       let branch_static off = branch_idx branch_target.(!idx) (addr + off) in
       (match i with
       | Insn.Load (w, rd, base, off) ->
         let a = Bitops.add32 (useg base) off in
         let v =
           match w with
           | Lw ->
             note_read a 4;
             read32 a
           | Lh ->
             check_range a 2;
             note_read a 2;
             Bytes.get_int16_le mem a
           | Lhu ->
             check_range a 2;
             note_read a 2;
             Bytes.get_uint16_le mem a
           | Lb ->
             check_range a 1;
             note_read a 1;
             Bytes.get_int8 mem a
           | Lbu ->
             check_range a 1;
             note_read a 1;
             Bytes.get_uint8 mem a
         in
         setg_lat rd v load_latency
       | Insn.Store (w, rs, base, off) ->
         let a = Bitops.add32 (useg base) off in
         let v = useg rs in
         (match w with
         | Sw ->
           note_write a 4;
           write32 a v
         | Sh ->
           check_range a 2;
           note_write a 2;
           Bytes.set_uint16_le mem a (v land 0xFFFF)
         | Sb ->
           check_range a 1;
           note_write a 1;
           Bytes.set_uint8 mem a (v land 0xFF))
       | Insn.Fload (s, fd, base, off) ->
         let a = Bitops.add32 (useg base) off in
         (match s with
         | Df ->
           note_read a 8;
           setf_lat fd (read64f a) load_latency
         | Sf ->
           note_read a 4;
           setf_lat fd (Int32.float_of_bits (Int32.of_int (read32 a))) load_latency)
       | Insn.Fstore (s, fs, base, off) ->
         let a = Bitops.add32 (useg base) off in
         let v = usef fs in
         (match s with
         | Df ->
           note_write a 8;
           write64f a v
         | Sf ->
           note_write a 4;
           write32 a (Int32.to_int (Int32.bits_of_float v)))
       | Insn.Ldc (rd, off) ->
         (* Pool addressing is relative to the word-aligned PC. *)
         let a = (addr land lnot 3) + off in
         note_read a 4;
         setg_lat rd (read32 a) load_latency
       | Insn.Alu (op, rd, ra, rb) ->
         let va = useg ra in
         let vb = useg rb in
         setg_lat rd (alu op va vb) 0
       | Insn.Alui (op, rd, ra, imm) -> setg_lat rd (alu op (useg ra) imm) 0
       | Insn.Mv (rd, rs) -> setg_lat rd (useg rs) 0
       | Insn.Mvi (rd, imm) -> setg_lat rd imm 0
       | Insn.Mvhi (rd, imm) -> setg_lat rd (Bitops.of_u32 (imm lsl 16)) 0
       | Insn.Neg (rd, rs) -> setg_lat rd (Bitops.sub32 0 (useg rs)) 0
       | Insn.Inv (rd, rs) -> setg_lat rd (Bitops.of_u32 (lnot (useg rs))) 0
       | Insn.Cmp (c, rd, ra, rb) ->
         let va = useg ra in
         let vb = useg rb in
         setg_lat rd (if eval_cond c va vb then 1 else 0) 0
       | Insn.Cmpi (c, rd, ra, imm) ->
         setg_lat rd (if eval_cond c (useg ra) imm then 1 else 0) 0
       | Insn.Br off -> branch_static off
       | Insn.Bz (r, off) -> if useg r = 0 then branch_static off
       | Insn.Bnz (r, off) -> if useg r <> 0 then branch_static off
       | Insn.Brl off ->
         setg_lat Regs.link (link_ret addr !idx) 0;
         branch_static off
       | Insn.J r -> branch_to (useg r)
       | Insn.Jz (rt, rd) ->
         let target = useg rd in
         if useg rt = 0 then branch_to target
       | Insn.Jnz (rt, rd) ->
         let target = useg rd in
         if useg rt <> 0 then branch_to target
       | Insn.Jl r ->
         let target = useg r in
         setg_lat Regs.link (link_ret addr !idx) 0;
         branch_to target
       | Insn.Fbin (op, _, fd, fa, fb) ->
         let va = usef fa in
         let vb = usef fb in
         let v, lat =
           match op with
           | Fadd -> (va +. vb, fp_latency_add)
           | Fsub -> (va -. vb, fp_latency_add)
           | Fmul -> (va *. vb, fp_latency_mul)
           | Fdiv -> (va /. vb, fp_latency_div)
         in
         setf_lat fd v lat
       | Insn.Fmv (_, fd, fs) -> setf_lat fd (usef fs) 0
       | Insn.Fneg (_, fd, fs) -> setf_lat fd (-.usef fs) 0
       | Insn.Fcmp (c, _, fa, fb) ->
         let va = usef fa in
         let vb = usef fb in
         status := (if eval_fcond c va vb then 1 else 0);
         ready_status := !cycle + 1 + fp_latency_cmp
       | Insn.Cvtif (_, fd, rs) ->
         setf_lat fd (float_of_int (useg rs)) fp_latency_add
       | Insn.Cvtfi (_, rd, fs) ->
         (* C truncation toward zero. *)
         setg_lat rd (Bitops.of_u32 (Float.to_int (usef fs))) fp_latency_add
       | Insn.Rdsr rd ->
         if !ready_status > !cycle then begin
           let s = !ready_status - !cycle in
           interlocks := !interlocks + s;
           cycle := !cycle + s
         end;
         setg_lat rd !status 0
       | Insn.Trap code ->
         if code = Trapcode.exit then exit_code := Some (useg Regs.ret_gpr land 0xFF)
         else if code = Trapcode.put_int then
           Buffer.add_string output (string_of_int (useg Regs.ret_gpr))
         else if code = Trapcode.put_char then
           Buffer.add_char output (Char.chr (useg Regs.ret_gpr land 0xFF))
         else if code = Trapcode.put_float then
           Buffer.add_string output (Printf.sprintf "%.6f" fregs.(Regs.ret_fpr))
         else err "bad trap %d" code
       | Insn.Nop -> ());
       incr ic;
       incr cycle;
       let taddr = tr_addr.(!idx) in
       (match on_insn with
       | Some f -> f ~iaddr:taddr ~dinfo:!cur_d
       | None -> ());
       if !just_branched then idx := !idx + 1
       else if !pending >= 0 then begin
         idx := !pending;
         pending := -1
       end
       else idx := !idx + 1
     done
   with Runtime_error _ as e ->
     (* Attach context. *)
     let ctx =
       Printf.sprintf " (at index %d, %s, ic=%d)" !idx
         (if !idx >= 0 && !idx < n_insns then Insn.to_string insns.(!idx)
          else "?")
         !ic
     in
     raise
       (match e with
       | Runtime_error m -> Runtime_error (m ^ ctx)
       | e -> e));
  {
    exit_code = Option.value !exit_code ~default:0;
    output = Buffer.contents output;
    ic = !ic;
    loads = !loads;
    stores = !stores;
    load_words = !load_words;
    store_words = !store_words;
    interlocks = !interlocks;
  }

(* Threaded dispatch. --------------------------------------------------------

   The execution fast path replaces the per-instruction constructor match
   (two levels of variant dispatch plus per-iteration branch closures)
   with a dense per-image predecode: every static instruction becomes one
   packed operand word [code | a<<7 | b<<12 | c<<17] plus one immediate,
   and the interpreter loop is a single jump table over the 7-bit code
   with unsafe reads from same-length arrays behind one proven bounds
   check per step.  Everything a handler can precompute is folded into
   the table at build time: [mvhi]'s shifted immediate, [ldc]'s absolute
   pool address, branch-and-link return addresses (mixed-width sizes
   included), and the trace address with the wide mark already applied.

   The table is a pure function of the immutable image, memoized per
   image behind a short MRU exactly like {!Repro_uarch.Predecode.table},
   so the harness's per-(benchmark, target) images predecode once across
   every capture, sweep, and domain. *)

type dispatch = {
  ops : int array;  (* code | a lsl 7 | b lsl 12 | c lsl 17 *)
  imms : int array;  (* immediate / offset / precomputed constant *)
  d_tr_addr : int array;  (* trace address, bit 0 = wide on mixed targets *)
  d_ret_addr : int array;  (* branch-and-link return address *)
}

let cond_ord : Insn.cond -> int = function
  | Lt -> 0
  | Ltu -> 1
  | Le -> 2
  | Leu -> 3
  | Eq -> 4
  | Ne -> 5
  | Gt -> 6
  | Gtu -> 7
  | Ge -> 8
  | Geu -> 9

let alu_ord : Insn.alu -> int = function
  | Add -> 0
  | Sub -> 1
  | And -> 2
  | Or -> 3
  | Xor -> 4
  | Shl -> 5
  | Shr -> 6
  | Shra -> 7

(* Opcode space (dense, mirrored by the literal cases in [run]):
   0..4   load Lw/Lh/Lhu/Lb/Lbu      a=rd  b=base  imm=off
   5..7   store Sw/Sh/Sb             a=rs  b=base  imm=off
   8..9   fload Df/Sf                a=fd  b=base  imm=off
   10..11 fstore Df/Sf               a=fs  b=base  imm=off
   12     ldc                        a=rd  imm=absolute pool address
   13..20 alu  (alu_ord)             a=rd  b=ra  c=rb
   21..28 alui (alu_ord)             a=rd  b=ra  imm
   29     mv                         a=rd  b=rs
   30     mvi (also mvhi, pre-shifted) a=rd  imm
   31     neg                        a=rd  b=rs
   32     inv                        a=rd  b=rs
   33..42 cmp  (cond_ord)            a=rd  b=ra  c=rb
   43..52 cmpi (cond_ord)            a=rd  b=ra  imm
   53     br                         imm=off
   54     bz                         a=r  imm=off
   55     bnz                        a=r  imm=off
   56     brl                        imm=off
   57     j                          a=r
   58     jz                         a=rt  b=rd
   59     jnz                        a=rt  b=rd
   60     jl                         a=r
   61..64 fbin Fadd/Fsub/Fmul/Fdiv   a=fd  b=fa  c=fb
   65     fmv                        a=fd  b=fs
   66     fneg                       a=fd  b=fs
   67..76 fcmp (cond_ord)            a=fa  b=fb
   77     cvtif                      a=fd  b=rs
   78     cvtfi                      a=rd  b=fs
   79     rdsr                       a=rd
   80..83 trap exit/put_int/put_char/put_float
   84     trap (invalid)             imm=code
   85     nop *)
let predecode_insn ~addr (i : Insn.t) =
  match i with
  | Insn.Load (w, rd, base, off) ->
    let c =
      match w with Lw -> 0 | Lh -> 1 | Lhu -> 2 | Lb -> 3 | Lbu -> 4
    in
    (c, rd, base, 0, off)
  | Insn.Store (w, rs, base, off) ->
    let c = match w with Sw -> 5 | Sh -> 6 | Sb -> 7 in
    (c, rs, base, 0, off)
  | Insn.Fload (s, fd, base, off) ->
    ((match s with Df -> 8 | Sf -> 9), fd, base, 0, off)
  | Insn.Fstore (s, fs, base, off) ->
    ((match s with Df -> 10 | Sf -> 11), fs, base, 0, off)
  | Insn.Ldc (rd, off) -> (12, rd, 0, 0, (addr land lnot 3) + off)
  | Insn.Alu (op, rd, ra, rb) -> (13 + alu_ord op, rd, ra, rb, 0)
  | Insn.Alui (op, rd, ra, imm) -> (21 + alu_ord op, rd, ra, 0, imm)
  | Insn.Mv (rd, rs) -> (29, rd, rs, 0, 0)
  | Insn.Mvi (rd, imm) -> (30, rd, 0, 0, imm)
  | Insn.Mvhi (rd, imm) -> (30, rd, 0, 0, Bitops.of_u32 (imm lsl 16))
  | Insn.Neg (rd, rs) -> (31, rd, rs, 0, 0)
  | Insn.Inv (rd, rs) -> (32, rd, rs, 0, 0)
  | Insn.Cmp (c, rd, ra, rb) -> (33 + cond_ord c, rd, ra, rb, 0)
  | Insn.Cmpi (c, rd, ra, imm) -> (43 + cond_ord c, rd, ra, 0, imm)
  | Insn.Br off -> (53, 0, 0, 0, off)
  | Insn.Bz (r, off) -> (54, r, 0, 0, off)
  | Insn.Bnz (r, off) -> (55, r, 0, 0, off)
  | Insn.Brl off -> (56, 0, 0, 0, off)
  | Insn.J r -> (57, r, 0, 0, 0)
  | Insn.Jz (rt, rd) -> (58, rt, rd, 0, 0)
  | Insn.Jnz (rt, rd) -> (59, rt, rd, 0, 0)
  | Insn.Jl r -> (60, r, 0, 0, 0)
  | Insn.Fbin (op, _, fd, fa, fb) ->
    let c = match op with Fadd -> 61 | Fsub -> 62 | Fmul -> 63 | Fdiv -> 64 in
    (c, fd, fa, fb, 0)
  | Insn.Fmv (_, fd, fs) -> (65, fd, fs, 0, 0)
  | Insn.Fneg (_, fd, fs) -> (66, fd, fs, 0, 0)
  | Insn.Fcmp (c, _, fa, fb) -> (67 + cond_ord c, fa, fb, 0, 0)
  | Insn.Cvtif (_, fd, rs) -> (77, fd, rs, 0, 0)
  | Insn.Cvtfi (_, rd, fs) -> (78, rd, fs, 0, 0)
  | Insn.Rdsr rd -> (79, rd, 0, 0, 0)
  | Insn.Trap code ->
    if code = Trapcode.exit then (80, 0, 0, 0, 0)
    else if code = Trapcode.put_int then (81, 0, 0, 0, 0)
    else if code = Trapcode.put_char then (82, 0, 0, 0, 0)
    else if code = Trapcode.put_float then (83, 0, 0, 0, 0)
    else (84, 0, 0, 0, code)
  | Insn.Nop -> (85, 0, 0, 0, 0)

let build_dispatch (img : Link.image) =
  let t = img.Link.target in
  let insns = img.Link.insns in
  let addr_of = img.Link.addr_of in
  let insn_bytes = Target.insn_bytes t in
  let n = Array.length insns in
  let isize i = if t.Target.mixed then D16m.size insns.(i) else insn_bytes in
  let ops = Array.make n 0 in
  let imms = Array.make n 0 in
  Array.iteri
    (fun i insn ->
      let code, a, b, c, imm = predecode_insn ~addr:addr_of.(i) insn in
      (* Register fields must fit the 5-bit packing (n_gpr, n_fpr <= 32). *)
      assert (a land lnot 0x1F = 0 && b land lnot 0x1F = 0
              && c land lnot 0x1F = 0);
      ops.(i) <- code lor (a lsl 7) lor (b lsl 12) lor (c lsl 17);
      imms.(i) <- imm)
    insns;
  let d_tr_addr =
    if t.Target.mixed then
      Array.mapi
        (fun i a -> if D16m.is_wide insns.(i) then a lor 1 else a)
        addr_of
    else addr_of
  in
  let d_ret_addr =
    Array.init n (fun i ->
        addr_of.(i) + isize i
        + (if i + 1 < n then isize (i + 1) else insn_bytes))
  in
  { ops; imms; d_tr_addr; d_ret_addr }

let dispatch_lock = Mutex.create ()
let dispatch_limit = 8
let dispatch_cache : (Link.image * dispatch) list ref = ref []

let dispatch (img : Link.image) =
  Mutex.protect dispatch_lock (fun () ->
      match List.find_opt (fun (i, _) -> i == img) !dispatch_cache with
      | Some (_, d) -> d
      | None ->
        let d = build_dispatch img in
        dispatch_cache :=
          (img, d)
          :: List.filteri (fun i _ -> i < dispatch_limit - 1) !dispatch_cache;
        d)

let run ?trace:_ ?on_insn ?(max_steps = 400_000_000) (img : Link.image) =
  let t = img.Link.target in
  let zero_r0 = t.Target.zero_r0 in
  let regs = Array.make t.Target.n_gpr 0 in
  let fregs = Array.make t.Target.n_fpr 0.0 in
  regs.(Regs.sp) <- img.Link.sp_init;
  let mem = Bytes.make img.Link.mem_size '\000' in
  List.iter
    (fun (addr, b) -> Bytes.blit b 0 mem addr (Bytes.length b))
    img.Link.init;
  let d = dispatch img in
  let ops = d.ops in
  let imms = d.imms in
  let tr_addr = d.d_tr_addr in
  let ret_addr = d.d_ret_addr in
  let insns = img.Link.insns in
  let addr_of = img.Link.addr_of in
  let n_insns = Array.length insns in
  let output = Buffer.create 256 in
  let ic = ref 0 in
  let loads = ref 0 in
  let stores = ref 0 in
  let load_words = ref 0 in
  let store_words = ref 0 in
  let interlocks = ref 0 in
  let cycle = ref 0 in
  let ready_g = Array.make t.Target.n_gpr 0 in
  let ready_f = Array.make t.Target.n_fpr 0 in
  let ready_status = ref 0 in
  let status = ref 0 in
  let running = ref true in
  let exit_code = ref 0 in
  let cur_d = ref 0 in

  let stall_until r ready =
    if ready.(r) > !cycle then begin
      let s = ready.(r) - !cycle in
      interlocks := !interlocks + s;
      cycle := !cycle + s
    end
  in
  let useg r =
    stall_until r ready_g;
    if zero_r0 && r = 0 then 0 else regs.(r)
  in
  let usef r =
    stall_until r ready_f;
    fregs.(r)
  in
  let setg r v = if not (zero_r0 && r = 0) then regs.(r) <- v in
  let setg_lat r v lat =
    setg r v;
    ready_g.(r) <- !cycle + 1 + lat
  in
  let setf_lat r v lat =
    fregs.(r) <- v;
    ready_f.(r) <- !cycle + 1 + lat
  in

  let check_range addr bytes =
    if addr < 0 || addr + bytes > img.Link.mem_size then
      err "memory access out of range: 0x%x" addr
  in
  let read32 addr =
    check_range addr 4;
    if addr land 3 <> 0 then err "unaligned word read at 0x%x" addr;
    Int32.to_int (Bytes.get_int32_le mem addr)
  in
  let write32 addr v =
    check_range addr 4;
    if addr land 3 <> 0 then err "unaligned word write at 0x%x" addr;
    Bytes.set_int32_le mem addr (Int32.of_int v)
  in
  let read64f addr =
    check_range addr 8;
    if addr land 3 <> 0 then err "unaligned double read at 0x%x" addr;
    Int64.float_of_bits (Bytes.get_int64_le mem addr)
  in
  let write64f addr v =
    check_range addr 8;
    if addr land 3 <> 0 then err "unaligned double write at 0x%x" addr;
    Bytes.set_int64_le mem addr (Int64.bits_of_float v)
  in
  let note_read addr bytes =
    incr loads;
    load_words := !load_words + ((bytes + 3) / 4);
    cur_d := encode_daccess ~is_write:false ~addr ~bytes
  in
  let note_write addr bytes =
    incr stores;
    store_words := !store_words + ((bytes + 3) / 4);
    cur_d := encode_daccess ~is_write:true ~addr ~bytes
  in

  (* The per-retirement sink is specialized once: the loop makes at most
     one indirect call per instruction instead of re-testing the option
     per step — and none at all in the pure-simulation configuration,
     where [emit_on] is false and the emit branch is a never-taken
     compare. *)
  let emit =
    match on_insn with
    | Some f -> fun taddr dv -> f ~iaddr:taddr ~dinfo:dv
    | None -> fun _ _ -> ()
  in
  let emit_on = on_insn <> None in

  let idx = ref img.Link.entry_index in
  (* Control state in one cell: -1 = sequential; t >= 0 = branch pending,
     currently in the delay slot, resume at index t; -2 - t = the branch
     retired THIS instruction (its delay slot is next).  The taken-branch
     error check is [>= 0]: only an armed (delay-slot) state rejects a
     second branch. *)
  let pending = ref (-1) in
  let branch_target = img.Link.branch_target in
  let branch_idx ix ti target =
    if !pending >= 0 then err "branch in delay slot at 0x%x" addr_of.(ix);
    if ti < 0 then err "branch to non-instruction address 0x%x" target;
    pending := -2 - ti
  in
  let branch_to ix target = branch_idx ix (Link.index_at img target) target in
  let branch_static ix off =
    branch_idx ix branch_target.(ix) (addr_of.(ix) + off)
  in
  (try
     while !running do
       let ix = !idx in
       if ix < 0 || ix >= n_insns then err "pc out of text (index %d)" ix;
       (* [ic] doubles as the step counter: both count exactly one per
          loop iteration ([ic] is incremented after the dispatch below),
          so the limit check reuses it instead of a second counter. *)
       if !ic >= max_steps then err "step limit exceeded (%d)" max_steps;
       (* Same-length arrays, bounds proven by the check above: every read
          below is safe. *)
       let p = Array.unsafe_get ops ix in
       let im = Array.unsafe_get imms ix in
       let ra = (p lsr 7) land 0x1F in
       let rb = (p lsr 12) land 0x1F in
       if emit_on then cur_d := 0;
       (match p land 0x7F with
       (* loads *)
       | 0 ->
         let ea = Bitops.add32 (useg rb) im in
         note_read ea 4;
         setg_lat ra (read32 ea) load_latency
       | 1 ->
         let ea = Bitops.add32 (useg rb) im in
         check_range ea 2;
         note_read ea 2;
         setg_lat ra (Bytes.get_int16_le mem ea) load_latency
       | 2 ->
         let ea = Bitops.add32 (useg rb) im in
         check_range ea 2;
         note_read ea 2;
         setg_lat ra (Bytes.get_uint16_le mem ea) load_latency
       | 3 ->
         let ea = Bitops.add32 (useg rb) im in
         check_range ea 1;
         note_read ea 1;
         setg_lat ra (Bytes.get_int8 mem ea) load_latency
       | 4 ->
         let ea = Bitops.add32 (useg rb) im in
         check_range ea 1;
         note_read ea 1;
         setg_lat ra (Bytes.get_uint8 mem ea) load_latency
       (* stores *)
       | 5 ->
         let ea = Bitops.add32 (useg rb) im in
         let v = useg ra in
         note_write ea 4;
         write32 ea v
       | 6 ->
         let ea = Bitops.add32 (useg rb) im in
         let v = useg ra in
         check_range ea 2;
         note_write ea 2;
         Bytes.set_uint16_le mem ea (v land 0xFFFF)
       | 7 ->
         let ea = Bitops.add32 (useg rb) im in
         let v = useg ra in
         check_range ea 1;
         note_write ea 1;
         Bytes.set_uint8 mem ea (v land 0xFF)
       (* fp loads / stores *)
       | 8 ->
         let ea = Bitops.add32 (useg rb) im in
         note_read ea 8;
         setf_lat ra (read64f ea) load_latency
       | 9 ->
         let ea = Bitops.add32 (useg rb) im in
         note_read ea 4;
         setf_lat ra
           (Int32.float_of_bits (Int32.of_int (read32 ea)))
           load_latency
       | 10 ->
         let ea = Bitops.add32 (useg rb) im in
         let v = usef ra in
         note_write ea 8;
         write64f ea v
       | 11 ->
         let ea = Bitops.add32 (useg rb) im in
         let v = usef ra in
         note_write ea 4;
         write32 ea (Int32.to_int (Int32.bits_of_float v))
       (* ldc: [im] is the absolute pool address *)
       | 12 ->
         note_read im 4;
         setg_lat ra (read32 im) load_latency
       (* alu *)
       | 13 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (Bitops.add32 va vb) 0
       | 14 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (Bitops.sub32 va vb) 0
       | 15 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (Bitops.of_u32 (va land vb)) 0
       | 16 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (Bitops.of_u32 (va lor vb)) 0
       | 17 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (Bitops.of_u32 (va lxor vb)) 0
       | 18 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (Bitops.shl32 va (vb land 31)) 0
       | 19 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (Bitops.shr32 va (vb land 31)) 0
       | 20 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (Bitops.sra32 va (vb land 31)) 0
       (* alui *)
       | 21 -> setg_lat ra (Bitops.add32 (useg rb) im) 0
       | 22 -> setg_lat ra (Bitops.sub32 (useg rb) im) 0
       | 23 -> setg_lat ra (Bitops.of_u32 (useg rb land im)) 0
       | 24 -> setg_lat ra (Bitops.of_u32 (useg rb lor im)) 0
       | 25 -> setg_lat ra (Bitops.of_u32 (useg rb lxor im)) 0
       | 26 -> setg_lat ra (Bitops.shl32 (useg rb) (im land 31)) 0
       | 27 -> setg_lat ra (Bitops.shr32 (useg rb) (im land 31)) 0
       | 28 -> setg_lat ra (Bitops.sra32 (useg rb) (im land 31)) 0
       (* moves *)
       | 29 -> setg_lat ra (useg rb) 0
       | 30 -> setg_lat ra im 0
       | 31 -> setg_lat ra (Bitops.sub32 0 (useg rb)) 0
       | 32 -> setg_lat ra (Bitops.of_u32 (lnot (useg rb))) 0
       (* cmp *)
       | 33 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (if va < vb then 1 else 0) 0
       | 34 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (if Bitops.ltu32 va vb then 1 else 0) 0
       | 35 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (if va <= vb then 1 else 0) 0
       | 36 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (if not (Bitops.ltu32 vb va) then 1 else 0) 0
       | 37 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (if va = vb then 1 else 0) 0
       | 38 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (if va <> vb then 1 else 0) 0
       | 39 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (if va > vb then 1 else 0) 0
       | 40 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (if Bitops.ltu32 vb va then 1 else 0) 0
       | 41 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (if va >= vb then 1 else 0) 0
       | 42 ->
         let va = useg rb in
         let vb = useg ((p lsr 17) land 0x1F) in
         setg_lat ra (if not (Bitops.ltu32 va vb) then 1 else 0) 0
       (* cmpi *)
       | 43 -> setg_lat ra (if useg rb < im then 1 else 0) 0
       | 44 -> setg_lat ra (if Bitops.ltu32 (useg rb) im then 1 else 0) 0
       | 45 -> setg_lat ra (if useg rb <= im then 1 else 0) 0
       | 46 ->
         setg_lat ra (if not (Bitops.ltu32 im (useg rb)) then 1 else 0) 0
       | 47 -> setg_lat ra (if useg rb = im then 1 else 0) 0
       | 48 -> setg_lat ra (if useg rb <> im then 1 else 0) 0
       | 49 -> setg_lat ra (if useg rb > im then 1 else 0) 0
       | 50 -> setg_lat ra (if Bitops.ltu32 im (useg rb) then 1 else 0) 0
       | 51 -> setg_lat ra (if useg rb >= im then 1 else 0) 0
       | 52 ->
         setg_lat ra (if not (Bitops.ltu32 (useg rb) im) then 1 else 0) 0
       (* branches *)
       | 53 -> branch_static ix im
       | 54 -> if useg ra = 0 then branch_static ix im
       | 55 -> if useg ra <> 0 then branch_static ix im
       | 56 ->
         setg_lat Regs.link (Array.unsafe_get ret_addr ix) 0;
         branch_static ix im
       | 57 -> branch_to ix (useg ra)
       | 58 ->
         (* Jump target read before the tested register, as in [run_ref]. *)
         let target = useg rb in
         if useg ra = 0 then branch_to ix target
       | 59 ->
         let target = useg rb in
         if useg ra <> 0 then branch_to ix target
       | 60 ->
         let target = useg ra in
         setg_lat Regs.link (Array.unsafe_get ret_addr ix) 0;
         branch_to ix target
       (* fp arithmetic *)
       | 61 ->
         let va = usef rb in
         let vb = usef ((p lsr 17) land 0x1F) in
         setf_lat ra (va +. vb) fp_latency_add
       | 62 ->
         let va = usef rb in
         let vb = usef ((p lsr 17) land 0x1F) in
         setf_lat ra (va -. vb) fp_latency_add
       | 63 ->
         let va = usef rb in
         let vb = usef ((p lsr 17) land 0x1F) in
         setf_lat ra (va *. vb) fp_latency_mul
       | 64 ->
         let va = usef rb in
         let vb = usef ((p lsr 17) land 0x1F) in
         setf_lat ra (va /. vb) fp_latency_div
       | 65 -> setf_lat ra (usef rb) 0
       | 66 -> setf_lat ra (-.usef rb) 0
       (* fcmp: Lt/Ltu, Le/Leu, Gt/Gtu, Ge/Geu coincide on floats *)
       | 67 | 68 ->
         let va = usef ra in
         let vb = usef rb in
         status := (if va < vb then 1 else 0);
         ready_status := !cycle + 1 + fp_latency_cmp
       | 69 | 70 ->
         let va = usef ra in
         let vb = usef rb in
         status := (if va <= vb then 1 else 0);
         ready_status := !cycle + 1 + fp_latency_cmp
       | 71 ->
         let va = usef ra in
         let vb = usef rb in
         status := (if va = vb then 1 else 0);
         ready_status := !cycle + 1 + fp_latency_cmp
       | 72 ->
         let va = usef ra in
         let vb = usef rb in
         status := (if va <> vb then 1 else 0);
         ready_status := !cycle + 1 + fp_latency_cmp
       | 73 | 74 ->
         let va = usef ra in
         let vb = usef rb in
         status := (if va > vb then 1 else 0);
         ready_status := !cycle + 1 + fp_latency_cmp
       | 75 | 76 ->
         let va = usef ra in
         let vb = usef rb in
         status := (if va >= vb then 1 else 0);
         ready_status := !cycle + 1 + fp_latency_cmp
       (* conversions, status, traps *)
       | 77 -> setf_lat ra (float_of_int (useg rb)) fp_latency_add
       | 78 -> setg_lat ra (Bitops.of_u32 (Float.to_int (usef rb))) fp_latency_add
       | 79 ->
         if !ready_status > !cycle then begin
           let s = !ready_status - !cycle in
           interlocks := !interlocks + s;
           cycle := !cycle + s
         end;
         setg_lat ra !status 0
       | 80 ->
         exit_code := useg Regs.ret_gpr land 0xFF;
         running := false
       | 81 -> Buffer.add_string output (string_of_int (useg Regs.ret_gpr))
       | 82 -> Buffer.add_char output (Char.chr (useg Regs.ret_gpr land 0xFF))
       | 83 ->
         Buffer.add_string output (Printf.sprintf "%.6f" fregs.(Regs.ret_fpr))
       | 84 -> err "bad trap %d" im
       | 85 -> ()
       | _ -> assert false);
       incr ic;
       incr cycle;
       if emit_on then emit (Array.unsafe_get tr_addr ix) !cur_d;
       let pd = !pending in
       if pd = -1 then idx := ix + 1
       else if pd >= 0 then begin
         idx := pd;
         pending := -1
       end
       else begin
         (* Branch retired: arm the delay slot, fall through to it. *)
         pending := -2 - pd;
         idx := ix + 1
       end
     done
   with Runtime_error _ as e ->
     (* Attach context. *)
     let ctx =
       Printf.sprintf " (at index %d, %s, ic=%d)" !idx
         (if !idx >= 0 && !idx < n_insns then Insn.to_string insns.(!idx)
          else "?")
         !ic
     in
     raise
       (match e with
       | Runtime_error m -> Runtime_error (m ^ ctx)
       | e -> e));
  {
    exit_code = !exit_code;
    output = Buffer.contents output;
    ic = !ic;
    loads = !loads;
    stores = !stores;
    load_words = !load_words;
    store_words = !store_words;
    interlocks = !interlocks;
  }
