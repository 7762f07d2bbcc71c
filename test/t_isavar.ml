(* The ISA-variant subsystem (lib/isavar): the mixed-width D16m encoding
   and the macro-op fusion pass.

   - D16m: wide-form roundtrips over random legal instructions, narrow
     forms byte-identical to D16, whole compiled images re-decodable,
     and the statement fuzzer run differentially against the host
     reference interpreter (with the wide-marked trace capture
     roundtripping through the codec).
   - Fusion: with an empty rule table both engines (streamed, trace
     replay) are byte-equal to a plain scoreboard walk — the
     differential gate — and with the shipped rules the engines agree
     with each other and with a greedy pairing written here, per-rule
     counters sum to the fused total, and the fused path length is
     strictly below the baseline where pairs hit.
   - Target plumbing: the five paper targets' describe strings are
     byte-identical to the seed (persistent cache keys must not move). *)

module Target = Repro_core.Target
module Insn = Repro_core.Insn
module Asm = Repro_codegen.Asm
module D16 = Repro_core.D16
module D16m = Repro_core.D16m
module Suite = Repro_workloads.Suite
module Compile = Repro_harness.Compile
module Machine = Repro_sim.Machine
module Link = Repro_link.Link
module Predecode = Repro_uarch.Predecode
module Scoreboard = Repro_uarch.Scoreboard
module Reader = Repro_trace.Trace.Reader
module Fusion = Repro_isavar.Fusion

(* ---- Target description stability ---- *)

(* The exact seed spellings: Diskcache keys embed these, so a changed
   byte would silently invalidate every stored measurement. *)
let seed_describe =
  [
    "D16/16/2;isa=D16;gpr=16;fpr=16;three_address=false;zero_r0=false;ext_cmpeqi=false";
    "DLXe/16/2;isa=DLXe;gpr=16;fpr=16;three_address=false;zero_r0=true;ext_cmpeqi=false";
    "DLXe/16/3;isa=DLXe;gpr=16;fpr=16;three_address=true;zero_r0=true;ext_cmpeqi=false";
    "DLXe/32/2;isa=DLXe;gpr=32;fpr=32;three_address=false;zero_r0=true;ext_cmpeqi=false";
    "DLXe/32/3;isa=DLXe;gpr=32;fpr=32;three_address=true;zero_r0=true;ext_cmpeqi=false";
  ]

let test_describe_stable () =
  List.iter2
    (fun t expect ->
      Alcotest.(check string) t.Target.name expect (Target.describe t))
    Target.all seed_describe;
  (* The variant is spelled with a new trailing field, so its keys are
     disjoint from every seed key. *)
  Alcotest.(check bool) "d16m describe has mixed=true" true
    (String.length (Target.describe Target.d16m) > 0
    && Filename.check_suffix (Target.describe Target.d16m) ";mixed=true");
  Alcotest.(check bool) "d16m parses" true
    (Target.of_name "d16m" = Ok Target.d16m);
  Alcotest.(check bool) "all_names lists d16m" true
    (List.mem "d16m" Target.all_names);
  (* The paper's five-column tables must not grow a sixth machine. *)
  Alcotest.(check int) "Target.all stays the paper five" 5
    (List.length Target.all)

(* ---- D16m wide-form encoding ---- *)

(* Random D16m-legal instructions, biased toward the wide classes; the
   degenerate cases (small immediates, rd = ra) fall back to narrow
   forms, which the properties check against D16 verbatim. *)
let gen_d16m : Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_bound 15 in
  oneof
    [
      (* WALU: three-address register ALU, integer and FP. *)
      (let* op = T_encoding.gen_alu and* rd = reg and* ra = reg and* rb = reg in
       return (Insn.Alu (op, rd, ra, rb)));
      (let* op = T_encoding.gen_fbin and* fd = reg and* fa = reg and* fb = reg in
       return (Insn.Fbin (op, Df, fd, fa, fb)));
      (* WALUI: add/sub signed 13, and/xor zero-extended 13, shifts 0..31. *)
      (let* rd = reg and* ra = reg and* imm = int_range (-4096) 4095 in
       oneofl [ Insn.Alui (Add, rd, ra, imm); Insn.Alui (Sub, rd, ra, imm) ]);
      (let* rd = reg and* ra = reg and* imm = int_bound 8191 in
       oneofl [ Insn.Alui (And, rd, ra, imm); Insn.Alui (Xor, rd, ra, imm) ]);
      (let* rd = reg and* ra = reg and* sh = int_bound 31 in
       oneofl
         [
           Insn.Alui (Shl, rd, ra, sh);
           Insn.Alui (Shr, rd, ra, sh);
           Insn.Alui (Shra, rd, ra, sh);
         ]);
      (* WORI: zero-extended 16-bit or (constant synthesis with mvhi). *)
      (let* rd = reg and* ra = reg and* imm = int_bound 65535 in
       return (Insn.Alui (Or, rd, ra, imm)));
      (* WMEM: signed 12-bit displacements, every width. *)
      (let* rd = reg and* base = reg and* off = int_range (-2048) 2047 in
       oneofl
         [
           Insn.Load (Lw, rd, base, off);
           Insn.Load (Lh, rd, base, off);
           Insn.Load (Lhu, rd, base, off);
           Insn.Load (Lb, rd, base, off);
           Insn.Load (Lbu, rd, base, off);
           Insn.Store (Sw, rd, base, off);
           Insn.Store (Sh, rd, base, off);
           Insn.Store (Sb, rd, base, off);
           Insn.Fload (Df, rd, base, off);
           Insn.Fstore (Df, rd, base, off);
         ]);
      (* WMVI / WMVHI. *)
      (let* rd = reg and* imm = int_range (-32768) 32767 in
       return (Insn.Mvi (rd, imm)));
      (let* rd = reg and* imm = int_bound 65535 in
       return (Insn.Mvhi (rd, imm)));
      (* WCMPI: all six D16 conditions, to r0. *)
      (let* c = T_encoding.gen_cond6 and* ra = reg
       and* imm = int_range (-32768) 32767 in
       return (Insn.Cmpi (c, 0, ra, imm)));
      (* WBR: 2-scaled 16-bit reach. *)
      (let* off = int_range (-32768) 32767 in
       oneofl
         [
           Insn.Br (2 * off); Insn.Brl (2 * off);
           Insn.Bz (0, 2 * off); Insn.Bnz (0, 2 * off);
         ]);
    ]

let arb_d16m = QCheck.make ~print:Insn.to_string gen_d16m

let encoding_tests =
  let open QCheck in
  [
    Test.make ~name:"D16m generated instructions are legal" ~count:2000
      arb_d16m
      (fun i -> Target.legal Target.d16m i = Ok ());
    Test.make ~name:"D16m encode/decode roundtrip" ~count:2000 arb_d16m
      (fun i ->
        let h0, h1 = D16m.encode i in
        D16m.decode h0 (Option.value h1 ~default:0) = Some i);
    Test.make ~name:"D16m wide prefix and size are consistent" ~count:2000
      arb_d16m
      (fun i ->
        let h0, h1 = D16m.encode i in
        let in16 h = h >= 0 && h < 65536 in
        in16 h0
        && (match h1 with Some h -> in16 h | None -> true)
        && D16m.is_wide_prefix h0 = D16m.is_wide i
        && (h1 <> None) = D16m.is_wide i
        && D16m.size i = (if D16m.is_wide i then 4 else 2));
    Test.make ~name:"D16m narrow forms are byte-identical to D16" ~count:2000
      arb_d16m
      (fun i ->
        D16m.is_wide i
        ||
        let h0, h1 = D16m.encode i in
        h1 = None && h0 = D16.encode i);
    (* The free-space claim underneath the whole design: nothing D16
       encodes ever opens a wide form. *)
    Test.make ~name:"D16 encodings never collide with the wide prefix"
      ~count:2000
      (QCheck.make ~print:Insn.to_string T_encoding.gen_d16)
      (fun i -> not (D16m.is_wide_prefix (D16.encode i)));
  ]

(* A whole compiled image re-decodes instruction by instruction, and the
   address map is self-consistent (objdump's loop in miniature). *)
let test_image_roundtrip () =
  let img = Compile.compile Target.d16m (Suite.find "queens").Suite.source in
  let wide = ref 0 in
  Array.iteri
    (fun i insn ->
      let h0, h1 = D16m.encode insn in
      if h1 <> None then incr wide;
      (match D16m.decode h0 (Option.value h1 ~default:0) with
      | Some j ->
        Alcotest.(check string)
          (Printf.sprintf "insn %d redecodes" i)
          (Insn.to_string insn) (Insn.to_string j)
      | None -> Alcotest.fail (Printf.sprintf "insn %d: decode failed" i));
      Alcotest.(check int)
        (Printf.sprintf "index_at inverts addr_of.(%d)" i)
        i
        (Link.index_at img img.Link.addr_of.(i)))
    img.Link.insns;
  Alcotest.(check bool) "image uses wide forms" true (!wide > 0)

(* The statement fuzzer, differentially on the mixed-width target; the
   captured (wide-marked) trace must also roundtrip through the codec. *)
let fuzz_d16m =
  QCheck.Test.make ~name:"random programs match reference on D16m" ~count:25
    (QCheck.make ~print:T_progfuzz.program_c T_progfuzz.gen_stmts)
    (fun stmts ->
      let src = T_progfuzz.program_c stmts in
      let recorded = ref [] in
      let r, rd =
        Capture.capture ~chunk_records:64
          ~on_insn:(fun ~iaddr ~dinfo -> recorded := (iaddr, dinfo) :: !recorded)
          (Compile.compile Target.d16m src)
      in
      let read_back = ref [] in
      Reader.iter rd (fun ~pc ~dinfo -> read_back := (pc, dinfo) :: !read_back);
      r.Machine.output = T_progfuzz.reference stmts && !read_back = !recorded)

(* ---- Macro-op fusion ---- *)

(* The reference the empty-rule gate compares against: a plain scoreboard
   walk over the executed stream, sharing nothing with Fusion's pairing
   machinery. *)
let baseline_walk (img : Link.image) iaddrs =
  let t = img.Link.target in
  let descs = Predecode.table img in
  let sb = Scoreboard.create ~n_gpr:t.Target.n_gpr ~n_fpr:t.Target.n_fpr in
  Array.iter
    (fun ia -> Scoreboard.step sb descs.(Link.index_at img (ia land lnot 1)))
    iaddrs;
  (Scoreboard.clock sb, Scoreboard.load_stalls sb, Scoreboard.fp_stalls sb)

(* An independent oracle for the dynamic pairing, sharing nothing with
   Fusion's engines: walk the executed indices; a pair fuses when some
   rule matches [(idx, idx+1)] (the first such rule scores the hit) and
   the next executed index is [idx+1]; the second half of a fused pair
   cannot start another pair.  Returns the per-rule hits. *)
let greedy_hits rules (img : Link.image) idxs =
  let insns = img.Link.insns in
  let rules = Array.of_list rules in
  let hits = Array.make (Array.length rules) 0 in
  let first_rule i =
    let rec go j =
      if j = Array.length rules then None
      else if rules.(j).Fusion.matches insns.(i) insns.(i + 1) then Some j
      else go (j + 1)
    in
    go 0
  in
  let rec walk = function
    | i :: (i' :: rest' as rest) when i' = i + 1 -> (
      match first_rule i with
      | Some j ->
        hits.(j) <- hits.(j) + 1;
        walk rest'
      | None -> walk rest)
    | _ :: rest -> walk rest
    | [] -> ()
  in
  walk idxs;
  hits

let fusion_check what (img : Link.image) =
  let t = img.Link.target in
  let name s = what ^ " " ^ t.Target.name ^ " " ^ s in
  let empty = Fusion.plan [] img in
  let plan = Fusion.plan Fusion.default_rules img in
  (* One execution feeding both plans' engines live and recording the
     executed addresses for the oracles. *)
  let empty_st = Fusion.stream_start empty in
  let st = Fusion.stream_start plan in
  let executed = ref [] in
  let r =
    Machine.run
      ~on_insn:(fun ~iaddr ~dinfo:_ ->
        executed := iaddr :: !executed;
        Fusion.stream_step empty_st ~iaddr;
        Fusion.stream_step st ~iaddr)
      img
  in
  let iaddrs = Array.of_list (List.rev !executed) in
  let streamed = Fusion.stream_finish st in
  (* Empty rule table: the engine must be byte-equal to the plain
     scoreboard walk — the pairing machinery must be invisible. *)
  Alcotest.(check int) (name "empty static_pairs") 0
    (Fusion.static_pairs empty);
  let clock, loads, fps = baseline_walk img iaddrs in
  let c = Fusion.stream_finish empty_st in
  Alcotest.(check int) (name "empty ic") r.Machine.ic c.Fusion.ic;
  Alcotest.(check int) (name "empty fused") 0 c.Fusion.fused;
  Alcotest.(check int) (name "empty clock") clock c.Fusion.interlock_clock;
  Alcotest.(check int) (name "empty loads") loads c.Fusion.load_interlocks;
  Alcotest.(check int) (name "empty fps") fps c.Fusion.fp_interlocks;
  Alcotest.(check int) (name "empty dynamic_ops") r.Machine.ic
    (Fusion.dynamic_ops c);
  (* Shipped rules: the pairing equals the greedy oracle's, per-rule
     counters sum to the fused total, and the accounting is conservative
     (a pair removes exactly one issued op). *)
  let hits =
    greedy_hits Fusion.default_rules img
      (Array.to_list
         (Array.map (fun ia -> Link.index_at img (ia land lnot 1)) iaddrs))
  in
  Alcotest.(check int) (name "fused = greedy")
    (Array.fold_left ( + ) 0 hits)
    streamed.Fusion.fused;
  Alcotest.(check (list int))
    (name "rule_hits = greedy")
    (Array.to_list hits)
    (Array.to_list streamed.Fusion.rule_hits);
  Alcotest.(check int)
    (name "rule_hits sum to fused")
    streamed.Fusion.fused
    (Array.fold_left ( + ) 0 streamed.Fusion.rule_hits);
  Alcotest.(check int) (name "ic matches run") r.Machine.ic
    streamed.Fusion.ic;
  Alcotest.(check bool)
    (name "dynamic ops in range")
    true
    (Fusion.dynamic_ops streamed <= streamed.Fusion.ic
    && Fusion.dynamic_ops streamed >= (streamed.Fusion.ic + 1) / 2);
  if Fusion.static_pairs plan > 0 && t.Target.name = Target.d16.Target.name
  then
    Alcotest.(check bool)
      (name "fused path strictly shorter")
      true
      (Fusion.dynamic_ops streamed < streamed.Fusion.ic)

let fusion_differential bench (t : Target.t) =
  fusion_check bench (Compile.compile t (Suite.find bench).Suite.source)

let fusion_case bench =
  Alcotest.test_case ("fusion differential " ^ bench) `Slow (fun () ->
      (* D16m runs the same pass over wide-marked addresses — the engine
         must strip the mark bit as the oracles do. *)
      List.iter (fusion_differential bench) [ Target.d16; Target.d16m ])

(* A taken branch between the halves.  The delay slot's [mvi r6] matches
   mvi-alu with its textual successor, but the branch skips that
   successor, so of the two pairs in [main] only the first fuses.  No suite
   program reaches this path, so it is assembled by hand. *)
let test_fusion_taken_branch () =
  let items =
    [
      Asm.Op (Insn.Mvi (5, 3));
      Asm.Op (Insn.Alu (Insn.Add, 4, 4, 5));
      Asm.Br_lbl 7;
      Asm.Op (Insn.Mvi (6, 1));
      Asm.Op (Insn.Alu (Insn.Add, 4, 4, 6));
      Asm.Lbl 7;
      Asm.Op (Insn.J 1);
      Asm.Op Insn.Nop;
    ]
  in
  let img = Link.link Target.d16 [ { Asm.fn_name = "main"; items } ] [] in
  let plan = Fusion.plan Fusion.default_rules img in
  (* The startup stub's [ldc r0; mv r2, r0] and main's first pair. *)
  let st = Fusion.stream_start plan in
  ignore
    (Machine.run ~on_insn:(fun ~iaddr ~dinfo:_ -> Fusion.stream_step st ~iaddr)
       img);
  Alcotest.(check int) "two dynamic pairs" 2
    (Fusion.stream_finish st).Fusion.fused;
  fusion_check "taken branch" img

let test_merge () =
  (* cmp+branch on queens/d16: static pairs exist, and the merged
     descriptor forwards r0 inside the pair (the branch's read of r0
     disappears). *)
  let img = Compile.compile Target.d16 (Suite.find "queens").Suite.source in
  let plan = Fusion.plan Fusion.default_rules img in
  Alcotest.(check bool) "queens has static pairs" true
    (Fusion.static_pairs plan > 0);
  let d_cmp =
    { Predecode.reads = [ Predecode.Rg 3; Predecode.Rg 4 ];
      write = Some { Predecode.dst = Predecode.Wg 0; latency = 0; cause = Predecode.Load } }
  in
  let d_br = { Predecode.reads = [ Predecode.Rg 0 ]; write = None } in
  let m = Fusion.merge d_cmp d_br in
  Alcotest.(check bool) "merged drops the forwarded r0 read" true
    (not (List.mem (Predecode.Rg 0) m.Predecode.reads));
  Alcotest.(check bool) "merged keeps the sources" true
    (List.mem (Predecode.Rg 3) m.Predecode.reads
    && List.mem (Predecode.Rg 4) m.Predecode.reads)

let tests =
  [
    Alcotest.test_case "seed describe strings are stable" `Quick
      test_describe_stable;
    Alcotest.test_case "compiled D16m image re-decodes" `Quick
      test_image_roundtrip;
    Alcotest.test_case "merged descriptors forward" `Quick test_merge;
    Alcotest.test_case "fusion: a taken branch splits a pair" `Quick
      test_fusion_taken_branch;
  ]
  @ List.map QCheck_alcotest.to_alcotest encoding_tests
  @ [ QCheck_alcotest.to_alcotest fuzz_d16m ]
  @ List.map fusion_case [ "queens"; "towers"; "whetstone" ]
