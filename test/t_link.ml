(* Linker tests: layout invariants, D16 literal pools and relaxation,
   BSS accounting, and whole-image legality. *)

module Target = Repro_core.Target
module Insn = Repro_core.Insn
module Link = Repro_link.Link
module Compile = Repro_harness.Compile
module Machine = Repro_sim.Machine

let compile = Compile.compile

let test_image_invariants () =
  List.iter
    (fun t ->
      let img = compile t "int main() { return 7; }" in
      let b = Target.insn_bytes t in
      Alcotest.(check bool) "text starts at base" true
        (Array.for_all (fun a -> a >= img.Link.text_base) img.Link.addr_of);
      Alcotest.(check bool) "addresses strictly increase" true
        (let ok = ref true in
         Array.iteri
           (fun i a -> if i > 0 && a <= img.Link.addr_of.(i - 1) then ok := false)
           img.Link.addr_of;
         !ok);
      Alcotest.(check bool) "aligned addresses" true
        (Array.for_all (fun a -> a mod b = 0) img.Link.addr_of);
      Alcotest.(check bool) "data after text" true
        (img.Link.data_base >= img.Link.text_base + img.Link.text_bytes);
      (* Every instruction is legal and round-trips through its encoding. *)
      Array.iter
        (fun i ->
          (match Target.legal t i with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Insn.to_string i ^ ": " ^ e));
          let encode, decode =
            match t.Target.isa with
            | Target.D16 -> (Repro_core.D16.encode, Repro_core.D16.decode)
            | Target.Dlxe -> (Repro_core.Dlxe.encode, Repro_core.Dlxe.decode)
          in
          Alcotest.(check bool)
            ("roundtrip " ^ Insn.to_string i)
            true
            (decode (encode i) = Some i))
        img.Link.insns)
    Target.all

let test_delay_slots () =
  (* Every control transfer is followed by exactly one instruction before
     any label target: check structurally that no branch is the last
     instruction and no branch directly follows a branch. *)
  List.iter
    (fun t ->
      let img = compile t "int f(int x) { if (x > 2) return x * 3; return f(x + 1); } int main() { return f(0); }" in
      let n = Array.length img.Link.insns in
      Array.iteri
        (fun i insn ->
          if Insn.is_branch insn then begin
            Alcotest.(check bool) "branch not last" true (i + 1 < n);
            Alcotest.(check bool) "no branch in delay slot" true
              (not (Insn.is_branch img.Link.insns.(i + 1)))
          end)
        img.Link.insns)
    Target.all

(* A function big enough to push D16 conditional branches out of range. *)
let far_branch_source =
  let filler =
    String.concat "\n"
      (List.init 400 (fun i ->
           Printf.sprintf "  acc = acc + %d; acc = acc ^ (acc >> 3);" (i mod 32)))
  in
  Printf.sprintf
    {|int work(int x) {
        int acc = x;
        if (x > 0) {
          %s
        }
        return acc;
      }
      int main() {
        print_int(work(1) - work(1));
        print_int(work(0));
        return 0;
      }|}
    filler

let test_far_branch_relaxation () =
  (* The function body is ~>2KB on D16, beyond the +/-1024 conditional
     reach, forcing relaxation; results must agree with DLXe. *)
  let run t =
    let _, r = Compile.compile_and_run t far_branch_source in
    r.Machine.output
  in
  let img = compile Target.d16 far_branch_source in
  Alcotest.(check bool) "function actually large" true
    (img.Link.text_bytes > 1400);
  Alcotest.(check string) "far branches preserve semantics" (run Target.dlxe)
    (run Target.d16)

let test_far_calls () =
  (* Many sizable functions push call distances beyond brl reach on D16. *)
  let funcs =
    String.concat "\n"
      (List.init 30 (fun i ->
           Printf.sprintf
             "int f%d(int x) { int a = x + %d; a = a * 3; a = a ^ (a >> 2); a = a + f_base(a); a = a - %d; a = a | 1; return a; }"
             i i (i * 2)))
  in
  let src =
    Printf.sprintf
      {|int f_base(int x) { return x & 1023; }
        %s
        int main() {
          int s = f0(1) + f29(2) + f15(3);
          print_int(s);
          return 0;
        }|}
      funcs
  in
  let run t =
    let _, r = Compile.compile_and_run t src in
    r.Machine.output
  in
  Alcotest.(check string) "far calls preserve semantics" (run Target.dlxe)
    (run Target.d16)

let test_bss_excluded () =
  let with_bss = compile Target.d16 "int big[4096]; int main() { big[0] = 1; return big[0]; }" in
  let without = compile Target.d16 "int main() { return 1; }" in
  Alcotest.(check bool) "zero-initialized array costs little file space" true
    (Link.size_bytes with_bss < Link.size_bytes without + 256);
  let initialized =
    compile Target.d16 "int big[256] = {1}; int main() { return big[0]; }"
  in
  Alcotest.(check bool) "initialized data counted" true
    (Link.size_bytes initialized >= Link.size_bytes without + 1024)

let test_pool_dedup () =
  (* The same wide constant used many times occupies one pool slot: code
     grows by one ldc (2 bytes) per use, not one pool word per use. *)
  let src n =
    let uses =
      String.concat ""
        (List.init n (fun _ -> "s = s + 123456; "))
    in
    Printf.sprintf "int main() { int s = 0; %s print_int(s); return 0; }" uses
  in
  let size n = (compile Target.d16 (src n)).Link.text_bytes in
  let delta = size 8 - size 4 in
  Alcotest.(check bool)
    (Printf.sprintf "pool deduplicated (delta %d)" delta)
    true (delta <= 4 * 6)

let test_undefined_symbol () =
  (* Suite-level check: calling an unknown function fails in lowering; an
     unknown data symbol can only arise internally, so just check the
     compile error path. *)
  match compile Target.d16 "int main() { return zorp(); }" with
  | exception Compile.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected a compile error"

let test_symbols_present () =
  let img = compile Target.dlxe "int g = 5; int main() { return g; }" in
  Alcotest.(check bool) "main symbol" true (Hashtbl.mem img.Link.symbols "main");
  Alcotest.(check bool) "_start symbol" true
    (Hashtbl.mem img.Link.symbols "_start");
  Alcotest.(check bool) "data symbol" true (Hashtbl.mem img.Link.symbols "g")

let tests =
  [
    Alcotest.test_case "image invariants" `Quick test_image_invariants;
    Alcotest.test_case "delay slots" `Quick test_delay_slots;
    Alcotest.test_case "far branch relaxation" `Quick test_far_branch_relaxation;
    Alcotest.test_case "far calls" `Quick test_far_calls;
    Alcotest.test_case "bss excluded from size" `Quick test_bss_excluded;
    Alcotest.test_case "literal pool dedup" `Quick test_pool_dedup;
    Alcotest.test_case "undefined symbol" `Quick test_undefined_symbol;
    Alcotest.test_case "symbol table" `Quick test_symbols_present;
  ]
