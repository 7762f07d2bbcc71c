(* Compiler correctness: operator semantics vs a host-evaluated oracle on
   every target, optimization-level differential testing, strength
   reduction over awkward constants, register pressure/spilling, and a
   QCheck expression fuzzer. *)

module Target = Repro_core.Target
module Compile = Repro_harness.Compile
module Machine = Repro_sim.Machine

let run ?(target = Target.d16) ?optimize src =
  let _, r = Compile.compile_and_run ?optimize target src in
  r

let output ?target ?optimize src = (run ?target ?optimize src).Machine.output

let check_all_targets name src expected =
  List.iter
    (fun t ->
      Alcotest.(check string)
        (Printf.sprintf "%s on %s" name t.Target.name)
        expected
        (output ~target:t src))
    Target.all

let test_arith_semantics () =
  check_all_targets "wraparound"
    {|int main() {
        int big = 2147483647;
        print_int(big + 1); print_char(' ');
        print_int(big * 2); print_char(' ');
        print_int(-2147483647 - 1); print_char('\n');
        return 0; }|}
    "-2147483648 -2 -2147483648\n";
  check_all_targets "division truncation"
    {|int main() {
        print_int(7 / 2); print_char(' ');
        print_int(-7 / 2); print_char(' ');
        print_int(7 / -2); print_char(' ');
        print_int(-7 % 3); print_char(' ');
        print_int(7 % -3); print_char('\n');
        return 0; }|}
    "3 -3 -3 -1 1\n";
  check_all_targets "shifts"
    {|int main() {
        int x = -64;
        print_int(x >> 3); print_char(' ');
        print_int(x << 2); print_char(' ');
        print_int(1 << 31); print_char('\n');
        return 0; }|}
    "-8 -256 -2147483648\n";
  check_all_targets "bitwise"
    {|int main() {
        print_int(0x0ff0 & 0x0f0f); print_char(' ');
        print_int(0x0ff0 | 0x0f0f); print_char(' ');
        print_int(0x0ff0 ^ 0x0f0f); print_char(' ');
        print_int(~0); print_char('\n');
        return 0; }|}
    "3840 4095 255 -1\n"

let test_comparison_semantics () =
  check_all_targets "signed comparisons"
    {|int main() {
        int a = -1; int b = 1;
        print_int(a < b); print_int(a <= b); print_int(a > b);
        print_int(a >= b); print_int(a == b); print_int(a != b);
        print_char('\n');
        return 0; }|}
    "110001\n";
  check_all_targets "comparison as value"
    {|int main() {
        int x = (3 < 5) + (5 < 3) * 10 + (4 <= 4) * 100;
        print_int(x); print_char('\n');
        return 0; }|}
    "101\n"

let test_logical () =
  check_all_targets "short circuit"
    {|int side = 0;
      int bump() { side = side + 1; return 1; }
      int main() {
        int r = 0 && bump();
        r = r + (1 || bump());
        print_int(r); print_char(' '); print_int(side); print_char('\n');
        return 0; }|}
    "1 0\n";
  check_all_targets "logical not"
    {|int main() {
        print_int(!0); print_int(!5); print_int(!!7); print_char('\n');
        return 0; }|}
    "101\n"

let test_char_and_pointer () =
  check_all_targets "char ops"
    {|char buf[8];
      int main() {
        char c = 'A';
        buf[0] = c + 2;
        print_char(buf[0]);
        print_int((int)(char)(300));
        print_char('\n');
        return 0; }|}
    "C44\n";
  check_all_targets "pointer arithmetic"
    {|int a[5] = {10, 20, 30, 40, 50};
      int main() {
        int *p = a + 1;
        print_int(*p); print_char(' ');
        p = p + 2;
        print_int(*p); print_char(' ');
        print_int(p - a); print_char(' ');
        print_int(*(a + 4)); print_char('\n');
        return 0; }|}
    "20 40 3 50\n"

let test_doubles () =
  check_all_targets "double arithmetic"
    {|int main() {
        double a = 3.5; double b = -1.25;
        print_double(a + b); print_char(' ');
        print_double(a * b); print_char(' ');
        print_double(a / 2.0); print_char('\n');
        return 0; }|}
    "2.250000 -4.375000 1.750000\n";
  check_all_targets "conversions truncate"
    {|int main() {
        print_int((int)3.9); print_char(' ');
        print_int((int)-3.9); print_char(' ');
        double d = (double)7 / (double)2;
        print_double(d); print_char('\n');
        return 0; }|}
    "3 -3 3.500000\n";
  check_all_targets "double compare"
    {|int main() {
        double x = 0.1 + 0.2;
        print_int(x > 0.3); print_int(x < 0.300001); print_char('\n');
        return 0; }|}
    "11\n"

let test_control_flow () =
  check_all_targets "nested loops with break/continue"
    {|int main() {
        int s = 0; int i; int j;
        for (i = 0; i < 5; i++) {
          if (i == 2) continue;
          for (j = 0; j < 5; j++) {
            if (j > i) break;
            s = s + 10 * i + j;
          }
        }
        print_int(s); print_char('\n');
        return 0; }|}
    "357\n";
  check_all_targets "recursion"
    {|int gcd(int a, int b) { if (b == 0) return a; return gcd(b, a % b); }
      int main() { print_int(gcd(1071, 462)); print_char('\n'); return 0; }|}
    "21\n"

let test_many_args () =
  check_all_targets "stack-passed arguments"
    {|int f(int a, int b, int c, int d, int e, int g, int h) {
        return a + 2*b + 3*c + 4*d + 5*e + 6*g + 7*h;
      }
      double fd(double a, double b, double c, double d, double e) {
        return a + b * 2.0 + c * 3.0 + d * 4.0 + e * 5.0;
      }
      int main() {
        print_int(f(1, 2, 3, 4, 5, 6, 7));
        print_char(' ');
        print_int((int)fd(1.0, 2.0, 3.0, 4.0, 5.0));
        print_char('\n');
        return 0; }|}
    "140 55\n"

let test_register_pressure () =
  (* Many simultaneously-live values force spilling on 16-register
     targets. *)
  (* Values come from a global array so constant folding cannot erase the
     pressure. *)
  let src =
    {|int v[20] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20};
      int main() {
        int a = v[0]; int b = v[1]; int c = v[2]; int d = v[3]; int e = v[4];
        int f = v[5]; int g = v[6]; int h = v[7]; int i = v[8]; int j = v[9];
        int k = v[10]; int l = v[11]; int m = v[12]; int n = v[13]; int o = v[14];
        int p = v[15]; int q = v[16]; int r = v[17]; int s = v[18]; int t = v[19];
        int sum1 = a*b + c*d + e*f + g*h + i*j;
        int sum2 = k*l + m*n + o*p + q*r + s*t;
        int sum3 = a+b+c+d+e+f+g+h+i+j+k+l+m+n+o+p+q+r+s+t;
        print_int(sum1 + sum2 * 1000 + sum3 * 1000000);
        print_char('\n');
        return 0; }|}
  in
  let expected = Printf.sprintf "%d\n" (2+12+30+56+90 + (132+182+240+306+380)*1000 + 210*1000000) in
  check_all_targets "spilling" src expected

let test_strength_reduction_constants () =
  (* Multiply/divide/mod of a runtime value by a spread of constants,
     against the host.  The values come through a global array so the
     operations cannot constant-fold; this exercises the shift-add
     decompositions and the power-of-two division sign fix. *)
  let consts = [ 2; 3; 4; 5; 7; 8; 10; 12; 15; 16; 17; 24; 31; 96; 100; 1024; -4; -6 ] in
  let values = [ 0; 1; 7; -7; 100; -100; 32767; -32768; 123456; -123457 ] in
  let decls =
    Printf.sprintf "int xs[%d] = {%s};" (List.length values)
      (String.concat "," (List.map string_of_int values))
  in
  List.iter
    (fun k ->
      let src =
        Printf.sprintf
          {|%s
            int main() {
              int i;
              for (i = 0; i < %d; i++) {
                int v = xs[i];
                print_int(v * %d); print_char(' ');
                print_int(v / %d); print_char(' ');
                print_int(v %% %d); print_char(' ');
              }
              return 0; }|}
          decls (List.length values) k k k
      in
      let expected =
        String.concat ""
          (List.map
             (fun v ->
               Printf.sprintf "%d %d %d "
                 (Int32.to_int (Int32.mul (Int32.of_int v) (Int32.of_int k)))
                 (v / k) (v mod k))
             values)
      in
      List.iter
        (fun t ->
          Alcotest.(check string)
            (Printf.sprintf "mul/div/mod by %d on %s" k t.Target.name)
            expected (output ~target:t src))
        [ Target.d16; Target.dlxe ])
    consts

let test_opt_levels_agree () =
  List.iter
    (fun (b : Repro_workloads.Suite.benchmark) ->
      let o0 = output ~target:Target.d16 ~optimize:0 b.source in
      let o2 = output ~target:Target.d16 ~optimize:2 b.source in
      Alcotest.(check string) (b.name ^ " -O0 vs -O2") o0 o2)
    [
      Repro_workloads.Suite.find "queens";
      Repro_workloads.Suite.find "grep";
      Repro_workloads.Suite.find "dhrystone";
    ]

let test_opt_shrinks () =
  (* Optimization should not grow code or dynamic count for the suite. *)
  List.iter
    (fun name ->
      let b = Repro_workloads.Suite.find name in
      let r0 = run ~target:Target.dlxe ~optimize:0 b.source in
      let r2 = run ~target:Target.dlxe ~optimize:2 b.source in
      Alcotest.(check bool)
        (name ^ ": optimized path not longer")
        true
        (r2.Machine.ic <= r0.Machine.ic))
    [ "queens"; "bubblesort"; "towers" ]

(* QCheck fuzzer: random integer expressions evaluated on the host and on
   both machines. *)
type expr = Lit of int | Add of expr * expr | Sub of expr * expr
          | Mul of expr * expr | Div of expr * expr | And of expr * expr
          | Or of expr * expr | Xor of expr * expr | Shl of expr * int
          | Shr of expr * int | Neg of expr | Not of expr

let rec expr_to_c = function
  | Lit n -> Printf.sprintf "(%d)" n
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (expr_to_c a) (expr_to_c b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (expr_to_c a) (expr_to_c b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (expr_to_c a) (expr_to_c b)
  | Div (a, b) -> Printf.sprintf "(%s / (%s | 1))" (expr_to_c a) (expr_to_c b)
  | And (a, b) -> Printf.sprintf "(%s & %s)" (expr_to_c a) (expr_to_c b)
  | Or (a, b) -> Printf.sprintf "(%s | %s)" (expr_to_c a) (expr_to_c b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (expr_to_c a) (expr_to_c b)
  | Shl (a, n) -> Printf.sprintf "(%s << %d)" (expr_to_c a) n
  | Shr (a, n) -> Printf.sprintf "(%s >> %d)" (expr_to_c a) n
  | Neg a -> Printf.sprintf "(-%s)" (expr_to_c a)
  | Not a -> Printf.sprintf "(~%s)" (expr_to_c a)

let rec eval_host = function
  | Lit n -> Int32.of_int n
  | Add (a, b) -> Int32.add (eval_host a) (eval_host b)
  | Sub (a, b) -> Int32.sub (eval_host a) (eval_host b)
  | Mul (a, b) -> Int32.mul (eval_host a) (eval_host b)
  | Div (a, b) ->
    let d = Int32.logor (eval_host b) 1l in
    Int32.div (eval_host a) d
  | And (a, b) -> Int32.logand (eval_host a) (eval_host b)
  | Or (a, b) -> Int32.logor (eval_host a) (eval_host b)
  | Xor (a, b) -> Int32.logxor (eval_host a) (eval_host b)
  | Shl (a, n) -> Int32.shift_left (eval_host a) n
  | Shr (a, n) -> Int32.shift_right (eval_host a) n
  | Neg a -> Int32.neg (eval_host a)
  | Not a -> Int32.lognot (eval_host a)

let gen_expr : expr QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           map (fun v -> Lit v) (oneof [ int_range (-100) 100; int_range (-40000) 40000 ])
         else
           let sub = self (n / 2) in
           oneof
             [
               map (fun v -> Lit v) (int_range (-1000) 1000);
               map2 (fun a b -> Add (a, b)) sub sub;
               map2 (fun a b -> Sub (a, b)) sub sub;
               map2 (fun a b -> Mul (a, b)) sub sub;
               map2 (fun a b -> Div (a, b)) sub sub;
               map2 (fun a b -> And (a, b)) sub sub;
               map2 (fun a b -> Or (a, b)) sub sub;
               map2 (fun a b -> Xor (a, b)) sub sub;
               map2 (fun a n -> Shl (a, n)) sub (int_bound 31);
               map2 (fun a n -> Shr (a, n)) sub (int_bound 31);
               map (fun a -> Neg a) sub;
               map (fun a -> Not a) sub;
             ])

let fuzz_expr =
  QCheck.Test.make ~name:"random expressions match host semantics" ~count:60
    (QCheck.make ~print:expr_to_c (QCheck.Gen.map (fun e -> e) gen_expr))
    (fun e ->
      let expected = Int32.to_string (eval_host e) in
      let src =
        Printf.sprintf "int main() { print_int(%s); return 0; }" (expr_to_c e)
      in
      List.for_all
        (fun t -> output ~target:t src = expected)
        [ Target.d16; Target.dlxe; Target.dlxe_16_2 ])

let tests =
  [
    Alcotest.test_case "arithmetic semantics" `Quick test_arith_semantics;
    Alcotest.test_case "comparison semantics" `Quick test_comparison_semantics;
    Alcotest.test_case "logical operators" `Quick test_logical;
    Alcotest.test_case "char and pointer" `Quick test_char_and_pointer;
    Alcotest.test_case "doubles" `Quick test_doubles;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "many arguments" `Quick test_many_args;
    Alcotest.test_case "register pressure" `Quick test_register_pressure;
    Alcotest.test_case "strength reduction constants" `Slow
      test_strength_reduction_constants;
    Alcotest.test_case "optimization levels agree" `Slow test_opt_levels_agree;
    Alcotest.test_case "optimization shrinks" `Slow test_opt_shrinks;
    QCheck_alcotest.to_alcotest fuzz_expr;
  ]
