(* Statement-level program fuzzer: random straight-line-plus-control
   mini-C programs with a host-side reference interpreter, run
   differentially on three targets.  Catches interactions the expression
   fuzzer cannot (register pressure across control flow, loop-carried
   values, branch fusion, delay-slot scheduling). *)

module Target = Repro_core.Target
module Compile = Repro_harness.Compile
module Machine = Repro_sim.Machine

(* A tiny, always-terminating program shape over four int variables. *)
type rexpr =
  | Var of int  (* 0..3 *)
  | Lit of int
  | Bin of char * rexpr * rexpr  (* + - * & | ^ *)
  | Cmp of string * rexpr * rexpr  (* < <= == != *)

type rstmt =
  | Assign of int * rexpr
  | If of rexpr * rstmt list * rstmt list
  | Loop of int * int * rstmt list  (* counter var, bound 1..8, body *)
  | Print of rexpr

(* Host reference semantics (32-bit wrapping). *)
let rec eval env (e : rexpr) : int32 =
  match e with
  | Var i -> env.(i)
  | Lit n -> Int32.of_int n
  | Bin (op, a, b) -> (
    let x = eval env a and y = eval env b in
    match op with
    | '+' -> Int32.add x y
    | '-' -> Int32.sub x y
    | '*' -> Int32.mul x y
    | '&' -> Int32.logand x y
    | '|' -> Int32.logor x y
    | _ -> Int32.logxor x y)
  | Cmp (op, a, b) -> (
    let x = eval env a and y = eval env b in
    let r =
      match op with
      | "<" -> x < y
      | "<=" -> x <= y
      | "==" -> x = y
      | _ -> x <> y
    in
    if r then 1l else 0l)

let rec exec env out = function
  | Assign (v, e) -> env.(v) <- eval env e
  | If (c, a, b) ->
    if eval env c <> 0l then List.iter (exec env out) a
    else List.iter (exec env out) b
  | Loop (v, bound, body) ->
    (* The loop variable is forced to the shadow counter each iteration and
       to the bound afterwards, exactly as the rendered C does, so body
       writes to it cannot affect termination. *)
    for counter = 0 to bound - 1 do
      env.(v) <- Int32.of_int counter;
      List.iter (exec env out) body
    done;
    env.(v) <- Int32.of_int bound
  | Print e ->
    Buffer.add_string out (Int32.to_string (eval env e));
    Buffer.add_char out ' '

(* C rendering.  Loops use a dedicated counter the body never writes, and
   assign it to the loop variable each iteration, mirroring the reference
   semantics above. *)
let rec expr_c = function
  | Var i -> Printf.sprintf "v%d" i
  | Lit n -> Printf.sprintf "(%d)" n
  | Bin (op, a, b) -> Printf.sprintf "(%s %c %s)" (expr_c a) op (expr_c b)
  | Cmp (op, a, b) -> Printf.sprintf "(%s %s %s)" (expr_c a) op (expr_c b)

let rec stmt_c depth = function
  | Assign (v, e) -> Printf.sprintf "v%d = %s;" v (expr_c e)
  | If (c, a, b) ->
    Printf.sprintf "if (%s) { %s } else { %s }" (expr_c c)
      (String.concat " " (List.map (stmt_c depth) a))
      (String.concat " " (List.map (stmt_c depth) b))
  | Loop (v, bound, body) ->
    let k = Printf.sprintf "k%d" depth in
    Printf.sprintf "for (%s = 0; %s < %d; %s++) { v%d = %s; %s } v%d = %d;" k k
      bound k v k
      (String.concat " " (List.map (stmt_c (depth + 1)) body))
      v bound
  | Print e -> Printf.sprintf "print_int(%s); print_char(' ');" (expr_c e)

let program_c stmts =
  Printf.sprintf
    {|int main() {
        int v0 = 1; int v1 = -2; int v2 = 3; int v3 = 0;
        int k0; int k1; int k2; int k3;
        %s
        print_int(v0 ^ v1 ^ v2 ^ v3);
        return 0;
      }|}
    (String.concat "\n        " (List.map (stmt_c 0) stmts))

let reference stmts =
  let env = [| 1l; -2l; 3l; 0l |] in
  let out = Buffer.create 64 in
  List.iter (exec env out) stmts;
  Buffer.add_string out
    (Int32.to_string
       (Int32.logxor (Int32.logxor env.(0) env.(1)) (Int32.logxor env.(2) env.(3))));
  Buffer.contents out

(* Generators. *)
let gen_expr : rexpr QCheck.Gen.t =
  let open QCheck.Gen in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n <= 0 then
           oneof [ map (fun v -> Var v) (int_bound 3);
                   map (fun l -> Lit l) (int_range (-1000) 1000) ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map (fun v -> Var v) (int_bound 3);
               (let* op = oneofl [ '+'; '-'; '*'; '&'; '|'; '^' ]
                and* a = sub
                and* b = sub in
                return (Bin (op, a, b)));
               (let* op = oneofl [ "<"; "<="; "=="; "!=" ]
                and* a = sub
                and* b = sub in
                return (Cmp (op, a, b)));
             ])

let gen_stmts : rstmt list QCheck.Gen.t =
  let open QCheck.Gen in
  let rec stmt depth =
    let assign =
      let* v = int_bound 3 and* e = gen_expr in
      return (Assign (v, e))
    in
    let print_ =
      let* e = gen_expr in
      return (Print e)
    in
    if depth >= 2 then oneof [ assign; print_ ]
    else
      oneof
        [
          assign;
          print_;
          (let* c = gen_expr
           and* a = list_size (int_range 1 3) (stmt (depth + 1))
           and* b = list_size (int_bound 2) (stmt (depth + 1)) in
           return (If (c, a, b)));
          (let* v = int_bound 3
           and* bound = int_range 1 6
           and* body = list_size (int_range 1 3) (stmt (depth + 1)) in
           return (Loop (v, bound, body)));
        ]
  in
  list_size (QCheck.Gen.int_range 2 6) (stmt 0)

let fuzz =
  QCheck.Test.make ~name:"random programs match reference interpreter"
    ~count:40
    (QCheck.make ~print:(fun s -> program_c s) gen_stmts)
    (fun stmts ->
      let src = program_c stmts in
      let expected = reference stmts in
      List.for_all
        (fun t ->
          let _, r = Compile.compile_and_run t src in
          r.Machine.output = expected)
        [ Target.d16; Target.dlxe; Target.dlxe_16_2 ])

let tests = [ QCheck_alcotest.to_alcotest fuzz ]
