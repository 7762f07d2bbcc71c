(* Register-allocation verification: run the allocator over every suite
   function for every target and check the fundamental invariants directly
   on the allocated IR — simultaneously-live temps get distinct registers,
   call-crossing temps get callee-saved registers, assignments stay inside
   the allocatable set. *)

module Target = Repro_core.Target
module Parser = Repro_minic.Parser
module Lower = Repro_ir.Lower
module Opt = Repro_ir.Opt
module Ir = Repro_ir.Ir
module Iset = Repro_ir.Iset
module Liveness = Repro_ir.Liveness
module Regalloc = Repro_ir.Regalloc
module Irprep = Repro_codegen.Irprep

(* Allocate one function and verify the invariants for one register class. *)
let verify_class (f : Ir.func) (cls : Liveness.cls)
    (assign : (Ir.temp, int) Hashtbl.t) ~allocatable ~callee_saved ~what =
  let live = Liveness.compute f cls in
  let reg t =
    match Hashtbl.find_opt assign t with
    | Some r -> r
    | None -> Alcotest.fail (Printf.sprintf "%s: %s t%d unassigned" f.Ir.name what t)
  in
  List.iter
    (fun (b : Ir.block) ->
      let live_out = Hashtbl.find live.Liveness.live_out b.Ir.lbl in
      Liveness.backward_scan b cls ~live_out (fun i ~live ->
          (* 1. The defined register must not collide with anything live
             after the instruction — except a move's own source, which
             holds the same value (coalescing). *)
          let move_src =
            match i with
            | Ir.Mov (_, s) when cls == Liveness.int_class -> Some s
            | Ir.Fmov (_, s) when cls == Liveness.float_class -> Some s
            | _ -> None
          in
          (match cls.Liveness.def i with
          | Some d ->
            let rd = reg d in
            Iset.iter
              (fun l ->
                if l <> d && Some l <> move_src && reg l = rd then
                  Alcotest.fail
                    (Printf.sprintf "%s: %s t%d and t%d both in r%d at '%s'"
                       f.Ir.name what d l rd (Ir.ins_to_string i)))
              live
          | None -> ());
          (* 2. Assignments stay in the allocatable set. *)
          (match cls.Liveness.def i with
          | Some d ->
            if not (List.mem (reg d) allocatable) then
              Alcotest.fail
                (Printf.sprintf "%s: %s t%d in non-allocatable r%d" f.Ir.name
                   what d (reg d))
          | None -> ());
          (* 3. Temps live across a call sit in callee-saved registers. *)
          match i with
          | Ir.Call _ ->
            let after =
              match cls.Liveness.def i with
              | Some d -> Iset.remove d live
              | None -> live
            in
            Iset.iter
              (fun t ->
                if not (List.mem (reg t) callee_saved) then
                  Alcotest.fail
                    (Printf.sprintf
                       "%s: %s t%d live across call in caller-saved r%d"
                       f.Ir.name what t (reg t)))
              after
          | _ -> ()))
    f.Ir.blocks

let verify_function target (f : Ir.func) =
  let lits = Irprep.empty_fp_literals () in
  Opt.optimize f;
  Irprep.prepare target lits f;
  let alloc = Regalloc.allocate target f in
  verify_class f Liveness.int_class alloc.Regalloc.int_assign
    ~allocatable:(Target.allocatable_gpr target)
    ~callee_saved:(Target.callee_saved_gpr target)
    ~what:"gpr";
  verify_class f Liveness.float_class alloc.Regalloc.float_assign
    ~allocatable:(Target.allocatable_fpr target)
    ~callee_saved:(Target.callee_saved_fpr target)
    ~what:"fpr"

let verify_source target source =
  let u =
    Lower.lower_program
      (Parser.parse (Repro_workloads.Runtime_lib.source ^ source))
  in
  List.iter (verify_function target) u.Lower.funcs

let test_suite_allocations () =
  List.iter
    (fun (b : Repro_workloads.Suite.benchmark) ->
      List.iter
        (fun t -> verify_source t b.Repro_workloads.Suite.source)
        [ Target.d16; Target.dlxe; Target.dlxe_16_2 ])
    Repro_workloads.Suite.all

let test_pressure_allocation () =
  (* A synthetic worst case: a call surrounded by many live values. *)
  let src =
    {|int v[30] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,
                   21,22,23,24,25,26,27,28,29,30};
      int id(int x) { return x; }
      int main() {
        int a0 = v[0]; int a1 = v[1]; int a2 = v[2]; int a3 = v[3];
        int a4 = v[4]; int a5 = v[5]; int a6 = v[6]; int a7 = v[7];
        int a8 = v[8]; int a9 = v[9]; int a10 = v[10]; int a11 = v[11];
        int a12 = v[12]; int a13 = v[13]; int a14 = v[14]; int a15 = v[15];
        int mid = id(100);
        int s = a0+a1+a2+a3+a4+a5+a6+a7+a8+a9+a10+a11+a12+a13+a14+a15;
        print_int(s + mid);
        return 0; }|}
  in
  List.iter (fun t -> verify_source t src) Target.all;
  (* And it computes the right thing everywhere. *)
  List.iter
    (fun t ->
      let _, r = Repro_harness.Compile.compile_and_run t src in
      Alcotest.(check string) ("pressure output " ^ t.Target.name) "236"
        r.Repro_sim.Machine.output)
    Target.all

let test_argument_shuffles () =
  (* Parallel-move cycles: arguments permuted through recursive calls. *)
  let src =
    {|int f(int a, int b, int c, int d, int depth) {
        if (depth == 0) return a * 1000 + b * 100 + c * 10 + d;
        return f(b, a, d, c, depth - 1);   // two disjoint swaps
      }
      int g(int a, int b, int c, int d, int depth) {
        if (depth == 0) return a * 1000 + b * 100 + c * 10 + d;
        return g(d, a, b, c, depth - 1);   // one 4-cycle
      }
      int main() {
        print_int(f(1, 2, 3, 4, 1)); print_char(' ');
        print_int(f(1, 2, 3, 4, 2)); print_char(' ');
        print_int(g(1, 2, 3, 4, 1)); print_char(' ');
        print_int(g(1, 2, 3, 4, 4)); print_char('\n');
        return 0; }|}
  in
  List.iter
    (fun t ->
      let _, r = Repro_harness.Compile.compile_and_run t src in
      Alcotest.(check string)
        ("shuffle output " ^ t.Target.name)
        "2143 1234 4123 1234\n" r.Repro_sim.Machine.output)
    Target.all

let tests =
  [
    Alcotest.test_case "suite allocations verify" `Slow test_suite_allocations;
    Alcotest.test_case "pressure allocation" `Quick test_pressure_allocation;
    Alcotest.test_case "argument shuffles" `Quick test_argument_shuffles;
  ]
