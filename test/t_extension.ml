(* Tests for the D16x compare-equal-immediate extension (paper Section
   3.3.3) and for the compiler ablation switches. *)

module Target = Repro_core.Target
module Insn = Repro_core.Insn
module D16x = Repro_core.D16x
module Compile = Repro_harness.Compile
module Opt = Repro_ir.Opt
module Suite = Repro_workloads.Suite
module Machine = Repro_sim.Machine

let test_d16x_legality () =
  let ok i = Alcotest.(check bool) (Insn.to_string i) true (Target.legal Target.d16x i = Ok ()) in
  let bad i = Alcotest.(check bool) (Insn.to_string i) true (Target.legal Target.d16x i <> Ok ()) in
  ok (Insn.Cmpi (Eq, 0, 5, 127));
  ok (Insn.Cmpi (Eq, 0, 5, -128));
  bad (Insn.Cmpi (Eq, 0, 5, 128));
  bad (Insn.Cmpi (Lt, 0, 5, 1));
  bad (Insn.Cmpi (Eq, 3, 5, 1));
  (* The narrowed move immediate. *)
  ok (Insn.Mvi (4, 127));
  bad (Insn.Mvi (4, 128));
  (* Plain D16 still rejects all compare immediates and keeps 9-bit mvi. *)
  Alcotest.(check bool) "base D16 has no cmpi" true
    (Target.legal Target.d16 (Insn.Cmpi (Eq, 0, 5, 1)) <> Ok ());
  Alcotest.(check bool) "base D16 mvi is 9-bit" true
    (Target.legal Target.d16 (Insn.Mvi (4, 255)) = Ok ())

let test_d16x_encoding () =
  let roundtrip i =
    Alcotest.(check bool)
      ("roundtrip " ^ Insn.to_string i)
      true
      (D16x.decode (D16x.encode i) = Some i)
  in
  roundtrip (Insn.Cmpi (Eq, 0, 7, 42));
  roundtrip (Insn.Cmpi (Eq, 0, 15, -1));
  roundtrip (Insn.Mvi (3, -128));
  roundtrip (Insn.Mvi (3, 127));
  (* Non-MVI-space instructions encode identically to base D16. *)
  List.iter
    (fun i ->
      Alcotest.(check int)
        ("same as D16: " ^ Insn.to_string i)
        (Repro_core.D16.encode i) (D16x.encode i))
    [
      Insn.Alu (Add, 3, 3, 4);
      Insn.Load (Lw, 2, 5, 8);
      Insn.Br 64;
      Insn.Cmp (Lt, 0, 1, 2);
    ];
  (* The two 8-bit forms are distinguished by the selector bit. *)
  Alcotest.(check bool) "mvi/cmpeqi distinct" true
    (D16x.encode (Insn.Mvi (3, 5)) <> D16x.encode (Insn.Cmpi (Eq, 0, 3, 5)))

let test_d16x_outputs_match () =
  List.iter
    (fun name ->
      let b = Suite.find name in
      let out t =
        (snd (Compile.compile_and_run t b.Suite.source))
          .Machine.output
      in
      Alcotest.(check string) (name ^ " output") (out Target.d16)
        (out Target.d16x))
    [ "grep"; "towers"; "dhrystone"; "pi" ]

let test_d16x_uses_cmpeqi () =
  (* A program full of equality tests against small constants must actually
     emit compare-immediates on D16x. *)
  let src =
    {|int v[6] = {1, 9, 3, 9, 5, 9};
      int main() {
        int i;
        int nines = 0;
        for (i = 0; i < 6; i++) if (v[i] == 9) nines = nines + 1;
        print_int(nines);
        return 0; }|}
  in
  let img = Compile.compile Target.d16x src in
  let cmpis =
    Array.to_list img.Repro_link.Link.insns
    |> List.filter (function Insn.Cmpi _ -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check bool) "emits cmpeqi" true (cmpis >= 1);
  let _, r = Compile.compile_and_run Target.d16x src in
  Alcotest.(check string) "and is correct" "3" r.Machine.output

let test_d16x_speedup_band () =
  (* Suite-average speedup should be positive and small (paper: "up to 2
     percent"; ours ranges a bit wider per program). *)
  let speedup name =
    let b = Suite.find name in
    let ic t =
      (snd (Compile.compile_and_run t b.Suite.source)).Machine.ic
    in
    1. -. (float_of_int (ic Target.d16x) /. float_of_int (ic Target.d16))
  in
  let sample = [ "grep"; "towers"; "dhrystone"; "queens"; "latex" ] in
  let avg =
    List.fold_left ( +. ) 0. (List.map speedup sample)
    /. float_of_int (List.length sample)
  in
  Alcotest.(check bool)
    (Printf.sprintf "average speedup %.3f in (0, 0.08)" avg)
    true
    (avg > 0. && avg < 0.08)

let test_ablations_preserve_semantics () =
  let ablations =
    [
      { Compile.opt_flags = { Opt.all_flags with do_licm = false };
        fill_delay_slots = true; schedule_loads = true };
      { Compile.opt_flags = { Opt.all_flags with cse = false };
        fill_delay_slots = true; schedule_loads = true };
      { Compile.opt_flags = { Opt.all_flags with strength = false };
        fill_delay_slots = true; schedule_loads = true };
      { Compile.opt_flags = { Opt.all_flags with fold = false };
        fill_delay_slots = true; schedule_loads = true };
      { Compile.opt_flags = Opt.no_flags; fill_delay_slots = false;
        schedule_loads = false };
    ]
  in
  List.iter
    (fun name ->
      let b = Suite.find name in
      List.iter
        (fun t ->
          let reference =
            (snd (Compile.compile_and_run t b.Suite.source))
              .Machine.output
          in
          List.iter
            (fun ab ->
              let _, r =
                Compile.compile_and_run ~ablation:ab t
                  b.Suite.source
              in
              Alcotest.(check string)
                (Printf.sprintf "%s ablated on %s" name t.Target.name)
                reference r.Machine.output)
            ablations)
        [ Target.d16; Target.dlxe ])
    [ "queens"; "grep" ]

let test_nop_padding_costs () =
  (* Disabling delay-slot filling must not change results but must add
     nops: path length grows, useful work does not. *)
  let b = Suite.find "towers" in
  let ab =
    { Compile.no_ablation with fill_delay_slots = false }
  in
  let _, full = Compile.compile_and_run Target.d16 b.Suite.source in
  let _, padded =
    Compile.compile_and_run ~ablation:ab Target.d16 b.Suite.source
  in
  Alcotest.(check string) "same output" full.Machine.output padded.Machine.output;
  Alcotest.(check bool) "padding lengthens the path" true
    (padded.Machine.ic > full.Machine.ic)

(* Property: random D16x-legal instructions round-trip, and decode is total
   over the 16-bit word space. *)
let gen_d16x : Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_bound 15 in
  oneof
    [
      (let* rd = reg and* imm = int_range (-128) 127 in
       return (Insn.Mvi (rd, imm)));
      (let* ra = reg and* imm = int_range (-128) 127 in
       return (Insn.Cmpi (Eq, 0, ra, imm)));
      (let* rd = reg and* rb = reg in
       return (Insn.Alu (Add, rd, rd, rb)));
      (let* rd = reg and* base = reg and* off = int_bound 31 in
       return (Insn.Load (Lw, rd, base, 4 * off)));
      (let* c = oneofl [ Insn.Lt; Ltu; Le; Leu; Eq; Ne ]
       and* ra = reg
       and* rb = reg in
       return (Insn.Cmp (c, 0, ra, rb)));
      (let* off = int_range (-512) 511 in
       return (Insn.Br (2 * off)));
    ]

let qcheck_tests =
  [
    QCheck.Test.make ~name:"d16x generated instructions are legal" ~count:1000
      (QCheck.make ~print:Insn.to_string gen_d16x)
      (fun i -> Target.legal Target.d16x i = Ok ());
    QCheck.Test.make ~name:"d16x encode/decode roundtrip" ~count:1000
      (QCheck.make ~print:Insn.to_string gen_d16x)
      (fun i -> D16x.decode (D16x.encode i) = Some i);
    QCheck.Test.make ~name:"d16x decode total" ~count:2000
      (QCheck.int_bound 65535)
      (fun w ->
        match D16x.decode w with
        | Some i -> D16x.decode (D16x.encode i) = Some i
        | None -> true);
  ]

let tests =
  List.map QCheck_alcotest.to_alcotest qcheck_tests
  @ [
    Alcotest.test_case "d16x legality" `Quick test_d16x_legality;
    Alcotest.test_case "d16x encoding" `Quick test_d16x_encoding;
    Alcotest.test_case "d16x outputs match" `Slow test_d16x_outputs_match;
    Alcotest.test_case "d16x emits cmpeqi" `Quick test_d16x_uses_cmpeqi;
    Alcotest.test_case "d16x speedup band" `Slow test_d16x_speedup_band;
    Alcotest.test_case "ablations preserve semantics" `Slow
      test_ablations_preserve_semantics;
    Alcotest.test_case "nop padding costs" `Quick test_nop_padding_costs;
  ]
