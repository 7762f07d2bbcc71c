(* Integration: the whole benchmark suite runs on all five targets with
   identical output, and known-correct results where we have an oracle. *)

module Target = Repro_core.Target
module Suite = Repro_workloads.Suite
module Compile = Repro_harness.Compile
module Machine = Repro_sim.Machine
module Link = Repro_link.Link

let results_for (b : Suite.benchmark) =
  List.map
    (fun t ->
      let img, r = Compile.compile_and_run t b.Suite.source in
      (t, img, r))
    Target.all

let test_suite_agreement () =
  List.iter
    (fun (b : Suite.benchmark) ->
      match results_for b with
      | [] -> assert false
      | (_, _, r0) :: rest ->
        List.iter
          (fun ((t : Target.t), _, (r : Machine.result)) ->
            Alcotest.(check string)
              (Printf.sprintf "%s output on %s" b.Suite.name t.Target.name)
              r0.Machine.output r.Machine.output;
            Alcotest.(check int)
              (Printf.sprintf "%s exit on %s" b.Suite.name t.Target.name)
              r0.Machine.exit_code r.Machine.exit_code)
          rest)
    Suite.all

let test_known_outputs () =
  let expect name prefix =
    let b = Suite.find name in
    let _, r = Compile.compile_and_run Target.d16 b.Suite.source in
    let out = r.Machine.output in
    Alcotest.(check bool)
      (Printf.sprintf "%s output %S starts with %S" name out prefix)
      true
      (String.length out >= String.length prefix
      && String.sub out 0 (String.length prefix) = prefix)
  in
  expect "ackermann" "61\n";  (* ack(3,3) *)
  expect "queens" "92\n";  (* solutions of 8-queens *)
  expect "towers" "16383\n";  (* 2^14 - 1 moves *)
  expect "pi" "31415926535897932384626433832795";
  expect "linpack" "ok";
  expect "grep" "10 2 5 7 7 2\n"

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_sorted_outputs () =
  (* The sorts verify themselves; any disorder prints NOT SORTED. *)
  List.iter
    (fun name ->
      let b = Suite.find name in
      let _, r = Compile.compile_and_run Target.dlxe b.Suite.source in
      Alcotest.(check bool) (name ^ " sorted") false
        (contains r.Machine.output "NOT SORTED"))
    [ "bubblesort"; "quicksort" ]

let test_size_orderings () =
  (* Structural expectations that hold program by program. *)
  List.iter
    (fun (b : Suite.benchmark) ->
      let sizes =
        List.map
          (fun t -> Link.size_bytes (fst (Compile.compile_and_run t b.Suite.source)))
          [ Target.d16; Target.dlxe ]
      in
      match sizes with
      | [ s16; s32 ] ->
        Alcotest.(check bool)
          (b.Suite.name ^ ": D16 binary smaller")
          true (s16 < s32)
      | _ -> assert false)
    Suite.all

let test_path_orderings () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let ic t =
        (snd (Compile.compile_and_run t b.Suite.source)).Machine.ic
      in
      let i16 = ic Target.d16 and i32 = ic Target.dlxe in
      Alcotest.(check bool)
        (Printf.sprintf "%s: DLXe path shorter (%d vs %d)" b.Suite.name i32 i16)
        true (i32 <= i16);
      Alcotest.(check bool)
        (Printf.sprintf "%s: D16 path within 2x" b.Suite.name)
        true (float_of_int i16 /. float_of_int i32 < 2.0))
    Suite.all

let test_restricted_monotonicity () =
  (* Removing registers or the third operand never shrinks code. *)
  List.iter
    (fun (b : Suite.benchmark) ->
      let size t =
        Link.size_bytes (fst (Compile.compile_and_run t b.Suite.source))
      in
      Alcotest.(check bool)
        (b.Suite.name ^ ": 2-address not smaller than 3-address")
        true
        (size Target.dlxe_32_2 >= size Target.dlxe)
    )
    [ Suite.find "queens"; Suite.find "dhrystone"; Suite.find "whetstone" ]

let tests =
  [
    Alcotest.test_case "suite agrees across all targets" `Slow
      test_suite_agreement;
    Alcotest.test_case "known outputs" `Quick test_known_outputs;
    Alcotest.test_case "sorters verify" `Quick test_sorted_outputs;
    Alcotest.test_case "D16 binaries smaller" `Slow test_size_orderings;
    Alcotest.test_case "DLXe paths shorter" `Slow test_path_orderings;
    Alcotest.test_case "restriction monotonicity" `Slow
      test_restricted_monotonicity;
  ]
