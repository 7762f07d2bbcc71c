(* Quickstart: compile a mini-C program for both instruction encodings,
   run it, and compare the paper's two headline measures — static code
   size (density) and dynamic path length.

   Run with:  dune exec examples/quickstart.exe *)

module Target = Repro_core.Target
module Compile = Repro_harness.Compile
module Link = Repro_link.Link

let program =
  {|
int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}

int main() {
  print_str("fib(20) = ");
  print_int(fib(20));
  print_char('\n');
  return 0;
}
|}

let () =
  print_endline "Compiling the same source for both encodings...\n";
  let results =
    List.map
      (fun target ->
        let image, result = Compile.compile_and_run target program in
        Printf.printf "--- %s ---\n" target.Target.name;
        print_string result.Repro_sim.Machine.output;
        Printf.printf
          "binary %d bytes (text %d), path length %d, loads %d, stores %d, interlocks %d\n\n"
          (Link.size_bytes image) image.Link.text_bytes
          result.Repro_sim.Machine.ic result.Repro_sim.Machine.loads
          result.Repro_sim.Machine.stores result.Repro_sim.Machine.interlocks;
        (target, image, result))
      [ Target.d16; Target.dlxe ]
  in
  match results with
  | [ (_, img16, r16); (_, img32, r32) ] ->
    Printf.printf
      "density (DLXe/D16): %.2fx   path length (DLXe/D16): %.2fx\n"
      (float_of_int (Link.size_bytes img32) /. float_of_int (Link.size_bytes img16))
      (float_of_int r32.Repro_sim.Machine.ic /. float_of_int r16.Repro_sim.Machine.ic);
    print_endline
      "The 16-bit encoding trades a slightly longer instruction sequence\n\
       for substantially smaller code — the paper's central trade-off."
  | _ -> assert false
