(* Direct machine tests: hand-built assembly fragments linked and executed
   without the compiler, covering instruction semantics the suite may not
   reach (subword memory, conditional register jumps, exact interlock
   counts, literal-pool loads, FP status). *)

module Target = Repro_core.Target
module Insn = Repro_core.Insn
module Asm = Repro_codegen.Asm
module Link = Repro_link.Link
module Machine = Repro_sim.Machine
module Suite = Repro_workloads.Suite
module Compile = Repro_harness.Compile

(* Link a raw 'main' made of the given items (delay slots must be explicit)
   and run it. *)
let run ?(target = Target.d16) items =
  let epilogue = [ Asm.Op (Insn.J 1); Asm.Op Insn.Nop ] in
  let img = Link.link target [ { Asm.fn_name = "main"; items = items @ epilogue } ] [] in
  Machine.run img

let exit_code ?target items = (run ?target items).Machine.exit_code

(* The harness exit code is main's return value (r4) masked to a byte. *)
let check_r4 name expected items =
  List.iter
    (fun target ->
      Alcotest.(check int)
        (Printf.sprintf "%s (%s)" name target.Target.name)
        (expected land 0xFF)
        (exit_code ~target items))
    [ Target.d16; Target.dlxe ]

let test_alu_ops () =
  check_r4 "add" 11
    [ Asm.Op (Insn.Mvi (4, 5)); Asm.Op (Insn.Mvi (5, 6));
      Asm.Op (Insn.Alu (Add, 4, 4, 5)) ];
  check_r4 "sub wraps into byte" 0xFF
    [ Asm.Op (Insn.Mvi (4, 0)); Asm.Op (Insn.Mvi (5, 1));
      Asm.Op (Insn.Alu (Sub, 4, 4, 5)) ];
  check_r4 "xor" 6
    [ Asm.Op (Insn.Mvi (4, 5)); Asm.Op (Insn.Mvi (5, 3));
      Asm.Op (Insn.Alu (Xor, 4, 4, 5)) ];
  check_r4 "shl" 40
    [ Asm.Op (Insn.Mvi (4, 5)); Asm.Op (Insn.Alui (Shl, 4, 4, 3)) ];
  check_r4 "shra of negative" (-2)
    [ Asm.Op (Insn.Mvi (4, -8)); Asm.Op (Insn.Alui (Shra, 4, 4, 2)) ]

let test_subword_memory () =
  (* Store a word, read its bytes and halves back with both extensions.
     Memory at the top of the data segment is scratch; use an address from
     Lc to stay target-neutral. *)
  let addr = 0x800000 in
  let prologue =
    [ Asm.Lc (5, addr); Asm.Lc (6, 0xFFFF8081); Asm.Op (Insn.Store (Sw, 6, 5, 0)) ]
  in
  check_r4 "lbu low byte" 0x81
    (prologue @ [ Asm.Op (Insn.Load (Lbu, 4, 5, 0)) ]);
  check_r4 "lb sign-extends" (-127)
    (prologue @ [ Asm.Op (Insn.Load (Lb, 4, 5, 0)) ]);
  check_r4 "lhu low half" 0x81 (* 0x8081 land 0xFF after exit masking *)
    (prologue @ [ Asm.Op (Insn.Load (Lhu, 4, 5, 0)) ]);
  check_r4 "sb then lbu"
    0x7F
    (prologue
    @ [
        Asm.Op (Insn.Mvi (7, 0x7F));
        Asm.Op (Insn.Store (Sb, 7, 5, 0));
        Asm.Op (Insn.Load (Lbu, 4, 5, 0));
      ])

let test_conditional_jumps () =
  (* jz/jnz: build the target address with La of a local label... labels are
     branch-relative only, so jump to the function itself via a pool
     constant is awkward; instead test fall-through behaviour: a jnz with a
     zero test register must not jump. *)
  List.iter
    (fun (target : Target.t) ->
      let test_reg = if target.Target.isa = Target.D16 then 0 else 6 in
      let items =
        [
          Asm.Op (Insn.Mvi (4, 1));
          (* Lc first: on D16 it expands through r0, the test register. *)
          Asm.Lc (5, 0x1000);
          Asm.Op (Insn.Mvi (test_reg, 0));
          (* not taken: r-test is zero *)
          Asm.Op (Insn.Jnz (test_reg, 5));
          Asm.Op Insn.Nop;
          Asm.Op (Insn.Mvi (4, 42));
        ]
      in
      Alcotest.(check int)
        ("jnz not taken " ^ target.Target.name)
        42
        (exit_code ~target items))
    [ Target.d16; Target.dlxe ]

let test_branch_delay_slot () =
  (* The instruction after a taken branch executes. *)
  check_r4 "delay slot executes" 7
    [
      Asm.Op (Insn.Mvi (4, 0));
      Asm.Br_lbl 99;
      Asm.Op (Insn.Mvi (4, 7));  (* delay slot: still executes *)
      Asm.Op (Insn.Mvi (4, 1));  (* skipped *)
      Asm.Lbl 99;
    ]

let test_ldc_pool () =
  (* Lc on D16 goes through the literal pool; the loaded value must be
     exact for a constant no mvi/shift trick can build. *)
  Alcotest.(check int) "pool constant round-trips" 0x37
    (exit_code ~target:Target.d16
       [ Asm.Lc (5, 0x12345637); Asm.Op (Insn.Mv (4, 5)) ]);
  (* The same value twice shares one pool slot and still reads correctly. *)
  Alcotest.(check int) "deduplicated pool reads" 0x37
    (exit_code ~target:Target.d16
       [
         Asm.Lc (5, 0x12345637);
         Asm.Lc (6, 0x12345637);
         Asm.Op (Insn.Alu (Sub, 5, 5, 6));
         Asm.Lc (6, 0x12345637);
         Asm.Op (Insn.Alu (Add, 5, 5, 6));
         Asm.Op (Insn.Mv (4, 5));
       ])

let test_interlock_exactness () =
  (* One load immediately used: exactly one stall.  Separated by an
     independent instruction: zero stalls. *)
  let addr = 0x800000 in
  let dependent =
    [
      Asm.Lc (5, addr);
      Asm.Op (Insn.Load (Lw, 6, 5, 0));
      Asm.Op (Insn.Alu (Add, 6, 6, 6));
      Asm.Op (Insn.Mv (4, 6));
    ]
  in
  let separated =
    [
      Asm.Lc (5, addr);
      Asm.Op (Insn.Load (Lw, 6, 5, 0));
      Asm.Op (Insn.Mvi (7, 0));
      Asm.Op (Insn.Alu (Add, 6, 6, 6));
      Asm.Op (Insn.Mv (4, 6));
    ]
  in
  let locks items = (run ~target:Target.dlxe items).Machine.interlocks in
  Alcotest.(check int) "load-use stalls once" 1 (locks dependent);
  Alcotest.(check int) "separated load does not stall" 0 (locks separated)

let test_fp_status () =
  let items c =
    [
      Asm.Op (Insn.Mvi (5, 3));
      Asm.Op (Insn.Cvtif (Df, 2, 5));
      Asm.Op (Insn.Mvi (5, 4));
      Asm.Op (Insn.Cvtif (Df, 3, 5));
      Asm.Op (Insn.Fcmp (c, Df, 2, 3));
      Asm.Op (Insn.Rdsr 4);
    ]
  in
  check_r4 "fcmp lt true" 1 (items Insn.Lt);
  check_r4 "fcmp eq false" 0 (items Insn.Eq);
  check_r4 "fcmp ne true" 1 (items Insn.Ne)

let test_fp_arith_direct () =
  (* (3.0 + 4.0) * 2.0 = 14.0, truncated back to an integer. *)
  let items =
    [
      Asm.Op (Insn.Mvi (5, 3));
      Asm.Op (Insn.Cvtif (Df, 2, 5));
      Asm.Op (Insn.Mvi (5, 4));
      Asm.Op (Insn.Cvtif (Df, 3, 5));
      Asm.Op (Insn.Fbin (Fadd, Df, 2, 2, 3));
      Asm.Op (Insn.Mvi (5, 2));
      Asm.Op (Insn.Cvtif (Df, 3, 5));
      Asm.Op (Insn.Fbin (Fmul, Df, 2, 2, 3));
      Asm.Op (Insn.Cvtfi (Df, 4, 2));
    ]
  in
  check_r4 "fp arithmetic" 14 items

let test_runtime_errors () =
  let expect_error name items =
    List.iter
      (fun target ->
        match run ~target items with
        | exception Machine.Runtime_error _ -> ()
        | _ -> Alcotest.fail (name ^ ": expected a runtime error"))
      [ Target.d16; Target.dlxe ]
  in
  expect_error "unaligned word load"
    [ Asm.Op (Insn.Mvi (5, 2)); Asm.Op (Insn.Load (Lw, 4, 5, 0)) ];
  expect_error "wild jump"
    [ Asm.Op (Insn.Mvi (5, 0)); Asm.Op (Insn.J 5); Asm.Op Insn.Nop ]

let test_zero_register_dlxe () =
  (* DLXe r0 reads as zero and ignores writes; D16 r0 is a live register. *)
  Alcotest.(check int) "dlxe r0 is zero" 0
    (exit_code ~target:Target.dlxe
       [ Asm.Op (Insn.Mvi (0, 55)); Asm.Op (Insn.Mv (4, 0)) ]);
  Alcotest.(check int) "d16 r0 holds values" 55
    (exit_code ~target:Target.d16
       [ Asm.Op (Insn.Mvi (0, 55)); Asm.Op (Insn.Mv (4, 0)) ])

(* Differential gate for the threaded interpreter: [run] must agree with
   [run_ref] (the retained per-insn-closure oracle) on EVERY observable —
   exit code, output, counters, and the full [on_insn] record stream —
   for every suite benchmark on every machine, and on runtime errors,
   including the message text. *)
let test_run_vs_run_ref () =
  let check_equal name img =
    (* [run]'s stream, (iaddr, dinfo) interleaved in one growable array. *)
    let recs = ref (Array.make 65536 0) in
    let n = ref 0 in
    let push v =
      if !n = Array.length !recs then begin
        let bigger = Array.make (2 * !n) 0 in
        Array.blit !recs 0 bigger 0 !n;
        recs := bigger
      end;
      !recs.(!n) <- v;
      incr n
    in
    let a =
      Machine.run
        ~on_insn:(fun ~iaddr ~dinfo ->
          push iaddr;
          push dinfo)
        img
    in
    (* [run_ref]'s stream, checked record by record as it retires. *)
    let k = ref 0 in
    let b =
      Machine.run_ref
        ~on_insn:(fun ~iaddr ~dinfo ->
          let i = !k in
          if (2 * i) + 1 >= !n then
            Alcotest.failf
              "%s: run_ref retires record %d (iaddr=0x%x dinfo=0x%x) past \
               run's last"
              name i iaddr dinfo;
          let ia = !recs.(2 * i) and di = !recs.((2 * i) + 1) in
          if ia <> iaddr || di <> dinfo then
            Alcotest.failf
              "%s: record %d differs: run (iaddr=0x%x dinfo=0x%x), run_ref \
               (iaddr=0x%x dinfo=0x%x)"
              name i ia di iaddr dinfo;
          k := i + 1)
        img
    in
    Alcotest.(check int) (name ^ " records") (!n / 2) !k;
    let scalar what v v' =
      Alcotest.(check int) (Printf.sprintf "%s %s" name what) v' v
    in
    scalar "exit_code" a.Machine.exit_code b.Machine.exit_code;
    Alcotest.(check string)
      (name ^ " output") b.Machine.output a.Machine.output;
    scalar "ic" a.Machine.ic b.Machine.ic;
    scalar "loads" a.Machine.loads b.Machine.loads;
    scalar "stores" a.Machine.stores b.Machine.stores;
    scalar "load_words" a.Machine.load_words b.Machine.load_words;
    scalar "store_words" a.Machine.store_words b.Machine.store_words;
    scalar "interlocks" a.Machine.interlocks b.Machine.interlocks
  in
  List.iter
    (fun (t : Target.t) ->
      List.iter
        (fun (b : Suite.benchmark) ->
          check_equal
            (Printf.sprintf "%s (%s)" b.Suite.name t.Target.name)
            (Compile.compile t b.Suite.source))
        Suite.all)
    [ Target.d16; Target.dlxe; Target.d16m ]

(* The error paths must also agree, message for message: the threaded
   loop reconstructs the same context (address, mnemonic, ic) the
   reference attaches. *)
let test_run_vs_run_ref_errors () =
  let err_of f =
    match f () with
    | exception Machine.Runtime_error m -> m
    | _ -> Alcotest.fail "expected a runtime error"
  in
  let check_err name ?max_steps items =
    List.iter
      (fun target ->
        let epilogue = [ Asm.Op (Insn.J 1); Asm.Op Insn.Nop ] in
        let img =
          Link.link target
            [ { Asm.fn_name = "main"; items = items @ epilogue } ]
            []
        in
        Alcotest.(check string)
          (Printf.sprintf "%s (%s)" name target.Target.name)
          (err_of (fun () -> Machine.run_ref ?max_steps img))
          (err_of (fun () -> Machine.run ?max_steps img)))
      [ Target.d16; Target.dlxe ]
  in
  check_err "unaligned load"
    [ Asm.Op (Insn.Mvi (5, 2)); Asm.Op (Insn.Load (Lw, 4, 5, 0)) ];
  check_err "wild jump"
    [ Asm.Op (Insn.Mvi (5, 0)); Asm.Op (Insn.J 5); Asm.Op Insn.Nop ];
  check_err "step limit" ~max_steps:1000
    [ Asm.Lbl 7; Asm.Br_lbl 7; Asm.Op Insn.Nop ]

let tests =
  [
    Alcotest.test_case "alu semantics" `Quick test_alu_ops;
    Alcotest.test_case "subword memory" `Quick test_subword_memory;
    Alcotest.test_case "conditional jumps" `Quick test_conditional_jumps;
    Alcotest.test_case "branch delay slot" `Quick test_branch_delay_slot;
    Alcotest.test_case "literal pool" `Quick test_ldc_pool;
    Alcotest.test_case "interlock exactness" `Quick test_interlock_exactness;
    Alcotest.test_case "fp status" `Quick test_fp_status;
    Alcotest.test_case "fp arithmetic" `Quick test_fp_arith_direct;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "r0 semantics" `Quick test_zero_register_dlxe;
    Alcotest.test_case "run = run_ref (suite)" `Quick test_run_vs_run_ref;
    Alcotest.test_case "run = run_ref (errors)" `Quick
      test_run_vs_run_ref_errors;
  ]
