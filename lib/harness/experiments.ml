module Target = Repro_core.Target
module Insn = Repro_core.Insn
module Link = Repro_link.Link
module Machine = Repro_sim.Machine
module Memsys = Repro_sim.Memsys
module Suite = Repro_workloads.Suite
module Stats = Repro_util.Stats
module Opt = Repro_ir.Opt
module A = Artifact

type t = { id : string; title : string; artifact : unit -> Artifact.t }

let suite_names = Plan.suite_names
let cache_names = Plan.cache_names
let d16 = Target.d16
let dlxe = Target.dlxe
let fl = float_of_int

let density_ratio bench target =
  Stats.ratio (Runs.stats bench target).Runs.size_bytes
    (Runs.stats bench d16).Runs.size_bytes

let pathlen_ratio bench target =
  Stats.ratio (Runs.stats bench target).Runs.ic (Runs.stats bench d16).Runs.ic

let average_density target =
  Stats.mean (List.map (fun b -> density_ratio b target) suite_names)

let average_pathlen target =
  Stats.mean (List.map (fun b -> pathlen_ratio b target) suite_names)

let wait_states = [ 0; 1; 2; 3 ]
let miss_penalties = [ 4; 8; 12; 16 ]

let nocache_cycles bench target ~bus_bytes ~wait_states =
  let s = Runs.stats bench target in
  let ireq = if bus_bytes = 4 then s.Runs.ireq32 else s.Runs.ireq64 in
  let dreq = if bus_bytes = 4 then s.Runs.dreq32 else s.Runs.dreq64 in
  s.Runs.ic + s.Runs.interlocks + (wait_states * (ireq + dreq))

let cycle_ratio bench ~bus_bytes ~wait_states =
  Stats.ratio
    (nocache_cycles bench dlxe ~bus_bytes ~wait_states)
    (nocache_cycles bench d16 ~bus_bytes ~wait_states)

let cached_cycles bench target ~size ~penalty =
  let s = Runs.stats bench target in
  let c = Runs.cached bench target ~size ~block:32 ~sub:4 in
  s.Runs.ic + s.Runs.interlocks
  + penalty
    * (c.Memsys.icache.Memsys.misses
      + c.Memsys.dcache_read.Memsys.misses
      + c.Memsys.dcache_write.Memsys.misses)

(* ---- Section 3: instruction set performance ---- *)

let fig4 () =
  let entries = List.map (fun b -> (b, density_ratio b dlxe)) suite_names in
  A.make
    ~caption:"D16 relative density (static code size DLXe/D16; paper Figure 4)"
    ~notes:
      [
        Printf.sprintf "Average: %.2f  (paper: ~1.5)"
          (Stats.mean (List.map snd entries));
      ]
    [ A.bars ~max_value:2.0 entries ]

let fig5 () =
  let entries = List.map (fun b -> (b, pathlen_ratio b dlxe)) suite_names in
  A.make
    ~caption:
      "DLXe path length reduction (DLXe/D16 path lengths, D16 = 1.0; Figure 5)"
    ~notes:
      [
        Printf.sprintf "Average DLXe/D16: %.2f  (paper: ~0.87)"
          (Stats.mean (List.map snd entries));
      ]
    [ A.bars ~max_value:1.2 entries ]

let regs_table ~measure ~label () =
  let header = [ "program"; "DLXe-16reg"; "DLXe-32reg" ] in
  let rows =
    List.map
      (fun b ->
        [ A.text b; A.f2 (measure b Target.dlxe_16_3); A.f2 (measure b dlxe) ])
      suite_names
  in
  let avg t = Stats.mean (List.map (fun b -> measure b t) suite_names) in
  A.make
    ~caption:(label ^ ", relative to D16 = 1.00")
    ~notes:
      [
        Printf.sprintf "Averages: 16reg %.2f, 32reg %.2f"
          (avg Target.dlxe_16_3) (avg dlxe);
      ]
    [ A.table ~header rows ]

let fig6 () =
  regs_table ~measure:density_ratio
    ~label:"Density effects of 16 vs 32 registers (Figure 6)" ()

let fig7 () =
  regs_table ~measure:pathlen_ratio
    ~label:"Path length effects of 16 vs 32 registers (Figure 7)" ()

let data_traffic bench target =
  let s = Runs.stats bench target in
  s.Runs.load_words + s.Runs.store_words

let tab3 () =
  let rows =
    List.map
      (fun b ->
        let base = data_traffic b dlxe in
        let pct t = Stats.percent_increase ~base (data_traffic b t) in
        [ A.text b; A.f2 (pct d16); A.f2 (pct Target.dlxe_16_3) ])
      suite_names
  in
  let avg t =
    Stats.mean
      (List.map
         (fun b ->
           Stats.percent_increase ~base:(data_traffic b dlxe) (data_traffic b t))
         suite_names)
  in
  A.make
    ~caption:
      "Data traffic increase for the smaller register file (% over DLXe/32; Table 3)"
    ~notes:
      [
        Printf.sprintf "Average: D16 %.1f%%, DLXe-16 %.1f%%  (paper: 10.1%%, 9.0%%)"
          (avg d16) (avg Target.dlxe_16_3);
      ]
    [ A.table ~header:[ "program"; "D16"; "DLXe-16" ] rows ]

let addr_table ~measure ~label () =
  let header = [ "program"; "2-address"; "3-address" ] in
  let rows =
    List.map
      (fun b ->
        [ A.text b; A.f2 (measure b Target.dlxe_32_2); A.f2 (measure b dlxe) ])
      suite_names
  in
  let avg t = Stats.mean (List.map (fun b -> measure b t) suite_names) in
  A.make
    ~caption:(label ^ " (DLXe/32, relative to D16 = 1.00)")
    ~notes:
      [
        Printf.sprintf "Averages: 2-addr %.2f, 3-addr %.2f"
          (avg Target.dlxe_32_2) (avg dlxe);
      ]
    [ A.table ~header rows ]

let fig8 () =
  addr_table ~measure:density_ratio
    ~label:"Code density effects of two-address instructions (Figure 8)" ()

let fig9 () =
  addr_table ~measure:pathlen_ratio
    ~label:"Path length effects of two-address instructions (Figure 9)" ()

let fig10 () =
  let entries =
    List.map
      (fun b ->
        ( b,
          Stats.ratio (Runs.stats b d16).Runs.ic
            (Runs.stats b Target.dlxe_16_2).Runs.ic ))
      suite_names
  in
  A.make
    ~caption:
      "Speedup from DLXe immediates and offsets (DLXe/16/2 vs D16 = 1.00; Figure 10)"
    ~notes:
      [
        Printf.sprintf "Average: %.2f  (paper: ~1.10)"
          (Stats.mean (List.map snd entries));
      ]
    [ A.bars ~max_value:1.3 entries ]

(* Table 4: dynamic frequencies of DLXe/16/2 instructions that exceed D16's
   immediate capabilities.  The counting runs are expensive, so the triple
   is memoized in process and in the disk cache. *)
let tab4_frequencies : (float * float * float) Memo.t =
  Memo.on_disk "tab4-immediate-frequencies"

let compute_immediate_frequencies () =
  let target = Target.dlxe_16_2 in
  let total = ref 0 in
  let cmpi = ref 0 in
  let alui = ref 0 in
  let disp = ref 0 in
  List.iter
    (fun bench ->
      let img = Runs.image bench target in
      let counts = Array.make (Array.length img.Link.insns) 0 in
      let on_insn ~iaddr ~dinfo:_ =
        let i = Link.index_at img iaddr in
        if i >= 0 then counts.(i) <- counts.(i) + 1
      in
      ignore (Machine.run ~on_insn img);
      Array.iteri
        (fun i n ->
          if n > 0 then begin
            total := !total + n;
            match img.Link.insns.(i) with
            | Insn.Cmpi _ -> cmpi := !cmpi + n
            | Insn.Alui (op, _, _, imm) ->
              if not (Target.alui_fits d16 op imm) then alui := !alui + n
            | Insn.Mvi (_, imm) ->
              if not (Target.mvi_fits d16 imm) then alui := !alui + n
            | Insn.Mvhi _ -> alui := !alui + n
            | Insn.Load (w, _, _, off) ->
              if not (Target.mem_offset_fits d16 ~word:(w = Insn.Lw) off) then
                disp := !disp + n
            | Insn.Store (w, _, _, off) ->
              if not (Target.mem_offset_fits d16 ~word:(w = Insn.Sw) off) then
                disp := !disp + n
            | Insn.Fload (_, _, _, off) | Insn.Fstore (_, _, _, off) ->
              if not (Target.mem_offset_fits d16 ~word:true off) then
                disp := !disp + n
            | _ -> ()
          end)
        counts)
    suite_names;
  let t = fl !total in
  (fl !cmpi /. t, fl !alui /. t, fl !disp /. t)

let immediate_frequencies () =
  Memo.get
    (Memo.key tab4_frequencies ("tab4", "") ~disk:(fun () ->
         Target.describe Target.dlxe_16_2
         :: Runs.knobs_descr
         :: List.map Runs.bench_fingerprint suite_names))
    compute_immediate_frequencies

let tab4 () =
  let c, a, d = immediate_frequencies () in
  A.make
    ~caption:
      "Average immediate-field instruction frequencies in DLXe/16/2 traces (Table 4)"
    [
      A.table
        ~header:[ "class"; "share"; "paper" ]
        [
          [ A.text "Compare immediate"; A.pct1 (100. *. c); A.text "2.1%" ];
          [ A.text "ALU immediate beyond D16"; A.pct1 (100. *. a); A.text "2.8%" ];
          [
            A.text "Memory displacement beyond D16"; A.pct1 (100. *. d);
            A.text "4.6%";
          ];
          [ A.text "Total"; A.pct1 (100. *. (c +. a +. d)); A.text "9.5%" ];
        ];
    ]

let variant_targets =
  [ Target.dlxe_16_2; Target.dlxe_16_3; Target.dlxe_32_2; dlxe ]

let summary_table ~measure ~label () =
  let header =
    "program" :: "D16" :: List.map (fun t -> t.Target.name) variant_targets
  in
  let rows =
    List.map
      (fun b ->
        A.text b :: A.f2 1.0
        :: List.map (fun t -> A.f2 (measure b t)) variant_targets)
      suite_names
  in
  let avgs =
    A.text "Average" :: A.f2 1.0
    :: List.map
         (fun t ->
           A.f2 (Stats.mean (List.map (fun b -> measure b t) suite_names)))
         variant_targets
  in
  A.make ~caption:label [ A.table ~header (rows @ [ avgs ]) ]

let fig11 () =
  summary_table ~measure:density_ratio
    ~label:"Code density summary, ratios DLXe/D16 (Figure 11)" ()

let fig12 () =
  summary_table ~measure:pathlen_ratio
    ~label:"Path length summary, ratios DLXe/D16 (Figure 12)" ()

let tab5 () =
  let avg m t = Stats.mean (List.map (fun b -> m b t) suite_names) in
  let quadrant m =
    [
      [
        A.text "16 registers";
        A.f2 (avg m Target.dlxe_16_2);
        A.f2 (avg m Target.dlxe_16_3);
      ];
      [
        A.text "32 registers";
        A.f2 (avg m Target.dlxe_32_2);
        A.f2 (avg m dlxe);
      ];
    ]
  in
  A.make ~caption:"Summary of density and path length effects (Table 5)"
    [
      A.table
        ~header:[ "Code size (D16=1.00)"; "Two-Address"; "Three-Address" ]
        (quadrant density_ratio);
      A.table
        ~header:[ "Path length (D16=1.00)"; "Two-Address"; "Three-Address" ]
        (quadrant pathlen_ratio);
    ]

let fig13 () =
  let rows =
    List.map
      (fun b ->
        let traffic =
          Stats.ratio (Runs.stats b dlxe).Runs.ireq32
            (Runs.stats b d16).Runs.ireq32
        in
        [ A.text b; A.f2 traffic; A.f2 (density_ratio b dlxe) ])
      suite_names
  in
  A.make
    ~caption:
      "Instruction traffic vs code size, DLXe/D16 (uniformity check; Figure 13)"
    [ A.table ~header:[ "program"; "traffic ratio"; "static size ratio" ] rows ]

(* ---- Section 4: memory performance ---- *)

let fig14 () =
  let series bus =
    let dlxe_cpi l =
      Stats.mean
        (List.map
           (fun b ->
             Memsys.cpi
               ~cycles:(nocache_cycles b dlxe ~bus_bytes:bus ~wait_states:l)
               ~ic:(Runs.stats b dlxe).Runs.ic)
           suite_names)
    in
    let d16_cpi l =
      Stats.mean
        (List.map
           (fun b ->
             Memsys.cpi
               ~cycles:(nocache_cycles b d16 ~bus_bytes:bus ~wait_states:l)
               ~ic:(Runs.stats b d16).Runs.ic)
           suite_names)
    in
    let d16_norm l =
      Stats.mean
        (List.map
           (fun b ->
             Memsys.normalized_cpi
               ~cycles:(nocache_cycles b d16 ~bus_bytes:bus ~wait_states:l)
               ~reference_ic:(Runs.stats b dlxe).Runs.ic)
           suite_names)
    in
    [
      (Printf.sprintf "DLXe k=%d" (bus / 4), List.map dlxe_cpi wait_states);
      (Printf.sprintf "D16 k=%d" (bus / 2), List.map d16_cpi wait_states);
      ("D16 normalized", List.map d16_norm wait_states);
    ]
  in
  let xs = List.map string_of_int wait_states in
  A.make ~caption:"Normalized CPI, no cache (Figure 14)"
    [
      A.series ~label:"32-bit fetch" ~x_label:"wait states" ~xs (series 4);
      A.series ~label:"64-bit fetch" ~x_label:"wait states" ~xs (series 8);
    ]

let fig15 () =
  let series bus =
    let f t l =
      Stats.mean
        (List.map
           (fun b ->
             let s = Runs.stats b t in
             let ireq = if bus = 4 then s.Runs.ireq32 else s.Runs.ireq64 in
             fl ireq /. fl (nocache_cycles b t ~bus_bytes:bus ~wait_states:l))
           suite_names)
    in
    [
      ("DLXe", List.map (f dlxe) wait_states);
      ("D16", List.map (f d16) wait_states);
    ]
  in
  let xs = List.map string_of_int wait_states in
  A.make
    ~caption:
      "Instruction fetch saturation, requests/cycle, no cache (Figure 15)"
    [
      A.series ~label:"32-bit fetch" ~x_label:"wait states" ~xs (series 4);
      A.series ~label:"64-bit fetch" ~x_label:"wait states" ~xs (series 8);
    ]

let fig16 () =
  A.make
    ~caption:
      "Instruction cache miss rates vs cache size (32B blocks, 4B sub-blocks; Figure 16)"
    (List.map
       (fun b ->
         let rows =
           List.map
             (fun size ->
               let rate t =
                 let c = Runs.cached b t ~size ~block:32 ~sub:4 in
                 Memsys.miss_rate c.Memsys.icache
               in
               [
                 A.text (Printf.sprintf "%dK" (size / 1024));
                 A.f3 (rate d16);
                 A.f3 (rate dlxe);
               ])
             Runs.standard_cache_sizes
         in
         A.table ~label:b ~header:[ "size"; "D16"; "DLXe" ] rows)
       cache_names)

let cpi_vs_penalty ~size () =
  let xs = List.map string_of_int miss_penalties in
  A.make
    ~caption:
      (Printf.sprintf
         "CPI vs miss penalty, %dK instruction and data caches (Figure %s)"
         (size / 1024)
         (if size = 4096 then "17" else "18"))
    (List.map
       (fun b ->
         let cpi t p =
           Memsys.cpi
             ~cycles:(cached_cycles b t ~size ~penalty:p)
             ~ic:(Runs.stats b t).Runs.ic
         in
         let norm p =
           Memsys.normalized_cpi
             ~cycles:(cached_cycles b d16 ~size ~penalty:p)
             ~reference_ic:(Runs.stats b dlxe).Runs.ic
         in
         A.series ~label:b ~x_label:"penalty" ~xs
           [
             ("DLXe", List.map (cpi dlxe) miss_penalties);
             ("D16", List.map (cpi d16) miss_penalties);
             ("D16 normalized", List.map norm miss_penalties);
           ])
       cache_names)

let fig17 () = cpi_vs_penalty ~size:4096 ()
let fig18 () = cpi_vs_penalty ~size:16384 ()

let fig19 () =
  A.make
    ~caption:
      "Instruction traffic (words/cycle) with instruction cache, miss penalty 4 (Figure 19)"
    (List.map
       (fun b ->
         let rows =
           List.map
             (fun size ->
               let wpc t =
                 let c = Runs.cached b t ~size ~block:32 ~sub:4 in
                 let cyc = cached_cycles b t ~size ~penalty:4 in
                 fl c.Memsys.icache.Memsys.words_transferred /. fl cyc
               in
               [
                 A.text (Printf.sprintf "%dK" (size / 1024));
                 A.f3 (wpc d16);
                 A.f3 (wpc dlxe);
               ])
             Runs.standard_cache_sizes
         in
         A.table ~label:b ~header:[ "size"; "D16"; "DLXe" ] rows)
       cache_names)

(* ---- Appendix tables ---- *)

let tab6 () =
  let header =
    "program" :: "D16" :: List.map (fun t -> t.Target.name) variant_targets
  in
  let rows =
    List.map
      (fun b ->
        A.text b
        :: A.int (Runs.stats b d16).Runs.size_bytes
        :: List.map
             (fun t -> A.int (Runs.stats b t).Runs.size_bytes)
             variant_targets)
      suite_names
  in
  A.make ~caption:"Code size in bytes (Table 6)"
    ~notes:
      [
        Printf.sprintf "Relative density averages: %s"
          (String.concat ", "
             (List.map
                (fun t ->
                  Printf.sprintf "%s %.2f" t.Target.name (average_density t))
                variant_targets));
      ]
    [ A.table ~header rows ]

let tab7 () =
  let header =
    "program" :: "D16" :: List.map (fun t -> t.Target.name) variant_targets
  in
  let rows =
    List.map
      (fun b ->
        A.text b
        :: A.int (Runs.stats b d16).Runs.ic
        :: List.map (fun t -> A.int (Runs.stats b t).Runs.ic) variant_targets)
      suite_names
  in
  A.make ~caption:"Path lengths (Table 7)"
    ~notes:
      [
        Printf.sprintf "Path length averages (DLXe/D16): %s"
          (String.concat ", "
             (List.map
                (fun t ->
                  Printf.sprintf "%s %.2f" t.Target.name (average_pathlen t))
                variant_targets));
      ]
    [ A.table ~header rows ]

let tab8 () =
  let rows =
    List.map
      (fun b ->
        let s16 = Runs.stats b d16 in
        let s32 = Runs.stats b dlxe in
        let pct = 100. *. (1. -. (fl s16.Runs.ireq32 /. fl s32.Runs.ireq32)) in
        [
          A.text b;
          A.int s16.Runs.ic;
          A.int s32.Runs.ic;
          A.int s16.Runs.ireq32;
          A.int s32.Runs.ireq32;
          A.f2 pct;
        ])
      suite_names
  in
  A.make
    ~caption:"Path length and instruction traffic in 32-bit words (Table 8)"
    [
      A.table
        ~header:
          [ "program"; "D16 path"; "DLXe path"; "D16 words"; "DLXe words"; "%" ]
        rows;
    ]

let tab9 () =
  let rows =
    List.map
      (fun b ->
        let m t =
          let s = Runs.stats b t in
          s.Runs.loads + s.Runs.stores
        in
        let d = m d16 and x = m dlxe in
        [
          A.text b;
          A.int d;
          A.int x;
          A.f2 (Stats.percent_increase ~base:x d);
        ])
      suite_names
  in
  A.make
    ~caption:"Total loads and stores (Table 9; %% is D16 increase over DLXe)"
    [ A.table ~header:[ "program"; "D16"; "DLXe"; "%" ] rows ]

let tab10 () =
  let rows =
    List.map
      (fun b ->
        let s16 = Runs.stats b d16 in
        let s32 = Runs.stats b dlxe in
        [
          A.text b;
          A.int s16.Runs.ic;
          A.int s16.Runs.interlocks;
          A.f3 (fl s16.Runs.interlocks /. fl s16.Runs.ic);
          A.int s32.Runs.ic;
          A.int s32.Runs.interlocks;
          A.f3 (fl s32.Runs.interlocks /. fl s32.Runs.ic);
        ])
      suite_names
  in
  A.make ~caption:"Delayed load and math unit interlocks (Table 10)"
    [
      A.table
        ~header:
          [
            "program"; "D16 insns"; "D16 locks"; "rate"; "DLXe insns";
            "DLXe locks"; "rate";
          ]
        rows;
    ]

let cycles_table ~bus_bytes ~label () =
  let rows =
    List.map
      (fun b ->
        A.text b
        :: List.map
             (fun l -> A.f2 (cycle_ratio b ~bus_bytes ~wait_states:l))
             wait_states)
      suite_names
  in
  let avgs =
    A.text "Mean"
    :: List.map
         (fun l ->
           A.f2
             (Stats.mean
                (List.map
                   (fun b -> cycle_ratio b ~bus_bytes ~wait_states:l)
                   suite_names)))
         wait_states
  in
  A.make ~caption:label
    [
      A.table
        ~header:[ "program"; "l=0"; "l=1"; "l=2"; "l=3" ]
        (rows @ [ avgs ]);
    ]

let tab11 () =
  cycles_table ~bus_bytes:4
    ~label:"DLXe/D16 performance, 32-bit fetch bus, no cache (Table 11)" ()

let tab12 () =
  cycles_table ~bus_bytes:8
    ~label:"DLXe/D16 cycles, 64-bit fetch bus, no cache (Table 12)" ()

let tab13 () =
  let rows =
    List.concat_map
      (fun b ->
        List.map
          (fun t ->
            let s = Runs.stats b t in
            [
              A.text b;
              A.text t.Target.name;
              A.int s.Runs.ic;
              A.f3 (fl s.Runs.interlocks /. fl s.Runs.ic);
              A.int s.Runs.ireq32;
              A.int s.Runs.loads;
              A.int s.Runs.stores;
            ])
          [ d16; dlxe ])
      cache_names
  in
  A.make ~caption:"Traffic and interlocks for the cache benchmarks (Table 13)"
    [
      A.table
        ~header:
          [
            "program"; "ISA"; "insns"; "lock rate"; "ifetches"; "reads";
            "writes";
          ]
        rows;
    ]

let miss_grid bench =
  List.concat_map
    (fun size ->
      List.map
        (fun block ->
          let sub = min 8 block in
          let c16 = Runs.cached bench d16 ~size ~block ~sub in
          let c32 = Runs.cached bench dlxe ~size ~block ~sub in
          [
            A.text (Printf.sprintf "%dk" (size / 1024));
            A.int block;
            A.f3 (Memsys.miss_rate c16.Memsys.icache);
            A.f3 (Memsys.miss_rate c32.Memsys.icache);
            A.f3 (Memsys.miss_rate c16.Memsys.dcache_read);
            A.f3 (Memsys.miss_rate c32.Memsys.dcache_read);
            A.f3 (Memsys.miss_rate c16.Memsys.dcache_write);
            A.f3 (Memsys.miss_rate c32.Memsys.dcache_write);
          ])
        Runs.standard_blocks)
    Runs.standard_cache_sizes

let miss_grid_header =
  [ "size"; "block"; "I D16"; "I DLXe"; "R D16"; "R DLXe"; "W D16"; "W DLXe" ]

let tab14 () =
  A.make ~caption:"Cache miss rates for assem (Table 14)"
    [ A.table ~header:miss_grid_header (miss_grid "assem") ]

let tab15 () =
  A.make ~caption:"Cache miss rates for ipl (Table 15)"
    [ A.table ~header:miss_grid_header (miss_grid "ipl") ]

let tab16 () =
  A.make ~caption:"Cache miss rates for latex (Table 16)"
    [ A.table ~header:miss_grid_header (miss_grid "latex") ]

(* ---- Cycle-accurate pipeline-model studies (lib/uarch) ---- *)

module Stalls = Repro_uarch.Stalls
module Uconfig = Repro_uarch.Uconfig

let uarch_nocache bench target ~bus_bytes ~wait_states =
  (Runs.uarch bench target (Uconfig.nocache ~bus_bytes ~wait_states))
    .Repro_uarch.Pipeline.stalls

let uarch_cached bench target ~size =
  let cfg = Memsys.cache_config ~size ~block:32 ~sub:4 in
  (Runs.uarch bench target
     (Uconfig.cached ~icache:cfg ~dcache:cfg ~miss_penalty:8))
    .Repro_uarch.Pipeline.stalls

let utab1 () =
  let header =
    [
      "program"; "machine"; "cycles"; "fetch"; "load"; "fp"; "dread"; "dwrite";
      "CPI";
    ]
  in
  let rows stalls_of =
    List.concat_map
      (fun b ->
        List.map
          (fun (t : Target.t) ->
            let u : Stalls.t = stalls_of b t in
            [
              A.text b;
              A.text t.Target.name;
              A.int u.Stalls.cycles;
              A.int u.Stalls.fetch_stalls;
              A.int u.Stalls.load_interlocks;
              A.int u.Stalls.fp_interlocks;
              A.int u.Stalls.dmiss_stalls;
              A.int u.Stalls.wmiss_stalls;
              A.f2 (Stalls.cpi u);
            ])
          [ d16; dlxe ])
      suite_names
  in
  A.make
    ~caption:"EXTENSION: pipeline-model stall breakdown, D16 vs DLXe"
    ~notes:
      [
        "Cacheless dread/dwrite are data bus wait cycles; cached are miss penalties.";
        "Every row satisfies cycles = IC + fetch + load + fp + dread + dwrite.";
      ]
    [
      A.table ~label:"no cache, 32-bit bus, 1 wait state" ~header
        (rows (fun b t -> uarch_nocache b t ~bus_bytes:4 ~wait_states:1));
      A.table ~label:"4K split caches, 32B blocks, 4B sub-blocks, penalty 8"
        ~header
        (rows (fun b t -> uarch_cached b t ~size:4096));
    ]

let ufig1 () =
  let xs = List.map string_of_int wait_states in
  let lines (t : Target.t) =
    let avg component =
      List.map
        (fun l ->
          Stats.mean
            (List.map
               (fun b ->
                 let u = uarch_nocache b t ~bus_bytes:4 ~wait_states:l in
                 fl (component u) /. fl u.Stalls.ic)
               suite_names))
        wait_states
    in
    [
      ("base", avg (fun u -> u.Stalls.ic));
      ("+fetch", avg (fun u -> u.Stalls.ic + u.Stalls.fetch_stalls));
      ( "+interlock",
        avg (fun u -> u.Stalls.ic + u.Stalls.fetch_stalls + Stalls.interlocks u)
      );
      ("+data", avg (fun u -> u.Stalls.cycles));
    ]
  in
  A.make
    ~caption:
      "EXTENSION: CPI decomposition vs wait states, no cache, 32-bit bus \
       (cumulative components, suite average)"
    [
      A.series ~label:"D16" ~x_label:"wait states" ~xs (lines d16);
      A.series ~label:"DLXe" ~x_label:"wait states" ~xs (lines dlxe);
    ]

(* The fused-sweep flagship: the paper's central trade-off as one
   design-space scatter.  Every point is (encoding, memory configuration)
   from the standard pipeline sweep; the three objectives are static code
   size (suite-average, relative to D16), suite-average CPI from the
   cycle-accurate model, and suite-average memory traffic per executed
   instruction.  Cacheless traffic is bus transactions x bus width from
   the measured request counts; cached traffic is the modeled fill
   traffic — 4 bytes per i-fetch word transferred plus one d-cache
   sub-block fill per miss (write-validate, no write-back, matching the
   paper's memory model).  All pipeline numbers come through
   {!Runs.uarch}, whose sweep the Fused plan kind populates from a
   single decode per (benchmark, target). *)
let pfig1 () =
  let traffic_per_insn b (t : Target.t) cfg =
    let s = Runs.stats b t in
    match cfg with
    | Uconfig.Nocache { bus_bytes; _ } ->
      let ireq = if bus_bytes = 4 then s.Runs.ireq32 else s.Runs.ireq64 in
      let dreq = if bus_bytes = 4 then s.Runs.dreq32 else s.Runs.dreq64 in
      fl (bus_bytes * (ireq + dreq)) /. fl s.Runs.ic
    | Uconfig.Cached { dcache; _ } -> (
      match (Runs.uarch b t cfg).Repro_uarch.Pipeline.caches with
      | None -> assert false
      | Some c ->
        fl
          ((4 * c.Memsys.icache.Memsys.words_transferred)
          + dcache.Memsys.sub_block_bytes
            * (c.Memsys.dcache_read.Memsys.misses
              + c.Memsys.dcache_write.Memsys.misses))
        /. fl s.Runs.ic)
  in
  let points =
    List.concat_map
      (fun (t : Target.t) ->
        List.map
          (fun cfg ->
            let cpi =
              Stats.mean
                (List.map
                   (fun b ->
                     Stalls.cpi (Runs.uarch b t cfg).Repro_uarch.Pipeline.stalls)
                   suite_names)
            in
            let traffic =
              Stats.mean
                (List.map (fun b -> traffic_per_insn b t cfg) suite_names)
            in
            (t, cfg, average_density t, cpi, traffic))
          Runs.standard_uarch_configs)
      [ d16; dlxe ]
  in
  let dominates (_, _, d1, c1, t1) (_, _, d2, c2, t2) =
    d1 <= d2 && c1 <= c2 && t1 <= t2 && (d1 < d2 || c1 < c2 || t1 < t2)
  in
  let pareto =
    List.filter
      (fun p -> not (List.exists (fun q -> dominates q p) points))
      points
  in
  let rows =
    List.map
      (fun ((t : Target.t), cfg, d, c, tr as p) ->
        [
          A.text t.Target.name;
          A.text (Uconfig.describe cfg);
          A.f2 d;
          A.f2 c;
          A.f2 tr;
          A.text (if List.memq p pareto then "*" else "");
        ])
      points
  in
  A.make
    ~caption:
      "EXTENSION: encoding x memory-system design space — code size vs CPI \
       vs memory traffic (suite averages; * = Pareto-minimal)"
    ~notes:
      [
        Printf.sprintf "%d of %d points are Pareto-minimal."
          (List.length pareto) (List.length points);
        "Cached traffic is modeled fill traffic: 4 B per fetched i-word plus \
         one d-cache sub-block per miss.";
      ]
    [
      A.table
        ~header:[ "target"; "memory config"; "size"; "CPI"; "B/insn"; "pareto" ]
        rows;
    ]

(* ---- ISA variants (lib/isavar): macro-op fusion and mixed widths ---- *)

module Fusion = Repro_isavar.Fusion

let d16m = Target.d16m

(* Fusion counters always come from the D16 trace: the pass recovers path
   length inside the decoder without touching the encoding, so size and
   fetch-traffic numbers are D16's own. *)
let fused_stalls b cfg = Fusion.charge (Runs.fusion b d16) (Runs.uarch b d16 cfg)

let vtab1 () =
  let cfg = Uconfig.nocache ~bus_bytes:4 ~wait_states:1 in
  let header =
    [ "program"; "machine"; "bytes"; "ops"; "ifetch32"; "cycles"; "CPI" ]
  in
  let plain b (t : Target.t) =
    let s = Runs.stats b t in
    let u = (Runs.uarch b t cfg).Repro_uarch.Pipeline.stalls in
    [
      A.text b; A.text t.Target.name; A.int s.Runs.size_bytes; A.int s.Runs.ic;
      A.int s.Runs.ireq32; A.int u.Stalls.cycles; A.f2 (Stalls.cpi u);
    ]
  in
  let fused b =
    let s = Runs.stats b d16 in
    let u = fused_stalls b cfg in
    [
      A.text b; A.text "D16+fusion"; A.int s.Runs.size_bytes; A.int u.Stalls.ic;
      A.int s.Runs.ireq32; A.int u.Stalls.cycles; A.f2 (Stalls.cpi u);
    ]
  in
  let rows =
    List.concat_map
      (fun b -> [ plain b d16; fused b; plain b d16m; plain b dlxe ])
      suite_names
  in
  let fused_ratio b =
    Stats.ratio (Fusion.dynamic_ops (Runs.fusion b d16)) (Runs.stats b d16).Runs.ic
  in
  let strictly_lower =
    List.for_all
      (fun b ->
        Fusion.dynamic_ops (Runs.fusion b d16) < (Runs.stats b d16).Runs.ic)
      suite_names
  in
  let rule_totals =
    let names = List.map (fun r -> r.Fusion.name) Fusion.default_rules in
    let totals = Array.make (List.length names) 0 in
    List.iter
      (fun b ->
        Array.iteri
          (fun i n -> totals.(i) <- totals.(i) + n)
          (Runs.fusion b d16).Fusion.rule_hits)
      suite_names;
    String.concat ", "
      (List.mapi (fun i n -> Printf.sprintf "%s %d" n totals.(i)) names)
  in
  A.make
    ~caption:
      "EXTENSION: ISA-variant comparison — D16, fused D16, mixed-width D16m, \
       DLXe (no cache, 32-bit bus, 1 wait state)"
    ~notes:
      [
        Printf.sprintf
          "Fused path length / D16: %.3f average; strictly lower on every \
           benchmark: %s"
          (Stats.mean (List.map fused_ratio suite_names))
          (if strictly_lower then "yes" else "NO");
        Printf.sprintf "Suite fusion pairs by rule: %s" rule_totals;
        Printf.sprintf
          "D16m density %.2f, path %.2f (DLXe: %.2f, %.2f; D16 = 1.00)"
          (average_density d16m) (average_pathlen d16m) (average_density dlxe)
          (average_pathlen dlxe);
        "Fusion leaves size and fetch traffic at D16's numbers; D16m trades \
         density for DLXe-style three-address path length.";
      ]
    [ A.table ~header rows ]

let vfig1 () =
  let variants =
    [
      ("D16", average_density d16, fun b cfg ->
        (Runs.uarch b d16 cfg).Repro_uarch.Pipeline.stalls);
      ("D16+fusion", average_density d16, fused_stalls);
      ("D16m", average_density d16m, fun b cfg ->
        (Runs.uarch b d16m cfg).Repro_uarch.Pipeline.stalls);
      ("DLXe", average_density dlxe, fun b cfg ->
        (Runs.uarch b dlxe cfg).Repro_uarch.Pipeline.stalls);
    ]
  in
  (* Per-op CPI is misleading across variants that do the same work in
     different op counts (fusion shrinks the denominator), so the Pareto
     axis is the paper's normalized CPI: cycles per DLXe instruction of
     work, as in fig14. *)
  let points =
    List.concat_map
      (fun (name, density, stalls_of) ->
        List.map
          (fun cfg ->
            let per b =
              let u = stalls_of b cfg in
              ( Stalls.cpi u,
                Memsys.normalized_cpi ~cycles:u.Stalls.cycles
                  ~reference_ic:(Runs.stats b dlxe).Runs.ic )
            in
            let samples = List.map per suite_names in
            let cpi = Stats.mean (List.map fst samples) in
            let ncpi = Stats.mean (List.map snd samples) in
            (name, cfg, density, cpi, ncpi))
          Runs.standard_uarch_configs)
      variants
  in
  let dominates (_, _, d1, _, n1) (_, _, d2, _, n2) =
    d1 <= d2 && n1 <= n2 && (d1 < d2 || n1 < n2)
  in
  let pareto =
    List.filter
      (fun p -> not (List.exists (fun q -> dominates q p) points))
      points
  in
  let rows =
    List.map
      (fun ((name, cfg, d, c, n) as p) ->
        [
          A.text name;
          A.text (Uconfig.describe cfg);
          A.f2 d;
          A.f2 c;
          A.f2 n;
          A.text (if List.memq p pareto then "*" else "");
        ])
      points
  in
  A.make
    ~caption:
      "EXTENSION: density x CPI scatter across ISA variants and memory \
       configurations (suite averages; * = Pareto-minimal on size x nCPI)"
    ~notes:
      [
        Printf.sprintf "%d of %d points are Pareto-minimal."
          (List.length pareto) (List.length points);
        "nCPI is cycles per DLXe instruction of work (fig14's \
         normalization), comparable across variants; CPI is cycles per \
         the variant's own issued op.  Fused-D16 keeps D16's density.  \
         Extends pfig1's frontier with the lib/isavar variants.";
      ]
    [
      A.table
        ~header:[ "variant"; "memory config"; "size"; "CPI"; "nCPI"; "pareto" ]
        rows;
    ]

(* ---- Extensions beyond the paper's published artifacts ---- *)

(* The Section 3.3.3 extension: D16 with an 8-bit compare-equal immediate
   (and a correspondingly narrowed 8-bit mvi).  The paper predicts "up to
   2 percent" path-length improvement. *)
let xfig1 () =
  let rows =
    List.map
      (fun b ->
        let s16 = Runs.stats b d16 in
        let sx = Runs.stats b Target.d16x in
        [
          A.text b;
          A.int s16.Runs.ic;
          A.int sx.Runs.ic;
          A.spct2 (100. *. (1. -. (fl sx.Runs.ic /. fl s16.Runs.ic)));
          A.int s16.Runs.size_bytes;
          A.int sx.Runs.size_bytes;
        ])
      suite_names
  in
  let avg =
    Stats.mean
      (List.map
         (fun b ->
           100.
           *. (1.
              -. fl (Runs.stats b Target.d16x).Runs.ic
                 /. fl (Runs.stats b d16).Runs.ic))
         suite_names)
  in
  A.make
    ~caption:
      "EXTENSION: D16x = D16 + 8-bit compare-equal immediate (paper Section 3.3.3)"
    ~notes:
      [
        Printf.sprintf
          "Average speedup: %+.2f%%  (paper's prediction: up to 2%%)" avg;
      ]
    [
      A.table
        ~header:
          [ "program"; "D16 path"; "D16x path"; "speedup"; "D16 B"; "D16x B" ]
        rows;
    ]

(* Ablation study over the compiler's design choices (DESIGN.md): what each
   optimization is worth, per encoding, on representative programs.  The
   ablated compiles bypass {!Runs}, so the measured ratios are disk-cached
   here with the same key discipline. *)
let ablation_programs = [ "queens"; "grep"; "towers"; "whetstone" ]

let ablations : (string * Compile.ablation) list =
  let base = Compile.no_ablation in
  [
    ("full", base);
    ("no-licm", { base with opt_flags = { Opt.all_flags with do_licm = false } });
    ("no-cse", { base with opt_flags = { Opt.all_flags with cse = false } });
    ("no-strength", { base with opt_flags = { Opt.all_flags with strength = false } });
    ("no-fold", { base with opt_flags = { Opt.all_flags with fold = false } });
    ("no-slot-fill", { base with fill_delay_slots = false });
    ("no-opt", { Compile.opt_flags = Opt.no_flags; fill_delay_slots = false; schedule_loads = false });
  ]

let xtab1_ratios : (string * (string * float list) list) list Memo.t =
  Memo.on_disk "xtab1-ablation"

(* Path-length ratios per target: (target name, (ablation name, ratio per
   program) list) list.  The unablated compile is exactly what {!Runs.stats}
   executes, so its path length — the baseline, and the "full" row — comes
   from there; only the ablated compiles run here. *)
let compute_xtab1 () : (string * (string * float list) list) list =
  List.map
    (fun (t : Target.t) ->
      let rows =
        List.map
          (fun (name, ab) ->
            ( name,
              List.map
                (fun b ->
                  let base_ic = (Runs.stats b t).Runs.ic in
                  let ic =
                    if ab = Compile.no_ablation then base_ic
                    else
                      (snd
                         (Compile.compile_and_run ~ablation:ab t
                            (Suite.find b).Suite.source))
                        .Machine.ic
                  in
                  fl ic /. fl base_ic)
                ablation_programs ))
          ablations
      in
      (t.Target.name, rows))
    [ d16; dlxe ]

let xtab1 () =
  let data =
    Memo.get
      (Memo.key xtab1_ratios ("xtab1", "") ~disk:(fun () ->
           (Runs.knobs_descr :: List.map Target.describe [ d16; dlxe ])
           @ List.map Runs.bench_fingerprint ablation_programs
           @ List.map
               (fun (name, ab) -> name ^ "=" ^ Compile.describe_ablation ab)
               ablations))
      compute_xtab1
  in
  A.make
    ~caption:
      "EXTENSION: compiler ablation (path-length ratio vs the full compiler)"
    (List.map
       (fun (target_name, rows) ->
         A.table ~label:target_name
           ~header:("ablation" :: ablation_programs)
           (List.map
              (fun (name, ratios) -> A.text name :: List.map A.f2 ratios)
              rows))
       data)

let all =
  [
    { id = "fig4"; title = "D16 relative density"; artifact = fig4 };
    { id = "fig5"; title = "DLXe path length reduction"; artifact = fig5 };
    { id = "fig6"; title = "Density effects of 16 vs 32 registers"; artifact = fig6 };
    { id = "fig7"; title = "Path length effects, 16 vs 32 registers"; artifact = fig7 };
    { id = "tab3"; title = "Data traffic increase, smaller register file"; artifact = tab3 };
    { id = "fig8"; title = "Code density effects, two-address"; artifact = fig8 };
    { id = "fig9"; title = "Path length effects, two-address"; artifact = fig9 };
    { id = "fig10"; title = "Effect of large immediates on path lengths"; artifact = fig10 };
    { id = "tab4"; title = "Immediate-field instruction frequencies"; artifact = tab4 };
    { id = "fig11"; title = "Code density summary"; artifact = fig11 };
    { id = "fig12"; title = "Path length summary"; artifact = fig12 };
    { id = "tab5"; title = "Summary of density and path length effects"; artifact = tab5 };
    { id = "fig13"; title = "Instruction traffic vs density"; artifact = fig13 };
    { id = "fig14"; title = "Normalized CPI, no cache"; artifact = fig14 };
    { id = "fig15"; title = "Instruction fetch saturation"; artifact = fig15 };
    { id = "fig16"; title = "Instruction cache miss rates"; artifact = fig16 };
    { id = "fig17"; title = "Performance with 4K caches"; artifact = fig17 };
    { id = "fig18"; title = "Performance with 16K caches"; artifact = fig18 };
    { id = "fig19"; title = "Instruction traffic with cache"; artifact = fig19 };
    { id = "tab6"; title = "Code size summary"; artifact = tab6 };
    { id = "tab7"; title = "Path length summary"; artifact = tab7 };
    { id = "tab8"; title = "Path length and instruction traffic"; artifact = tab8 };
    { id = "tab9"; title = "Total loads and stores"; artifact = tab9 };
    { id = "tab10"; title = "Interlocks"; artifact = tab10 };
    { id = "tab11"; title = "DLXe/D16 cycles, 32-bit bus"; artifact = tab11 };
    { id = "tab12"; title = "DLXe/D16 cycles, 64-bit bus"; artifact = tab12 };
    { id = "tab13"; title = "Traffic and interlocks, cache benchmarks"; artifact = tab13 };
    { id = "tab14"; title = "Cache miss rates for assem"; artifact = tab14 };
    { id = "tab15"; title = "Cache miss rates for ipl"; artifact = tab15 };
    { id = "tab16"; title = "Cache miss rates for latex"; artifact = tab16 };
    { id = "xfig1"; title = "EXT: D16x compare-equal-immediate extension"; artifact = xfig1 };
    { id = "xtab1"; title = "EXT: compiler ablation study"; artifact = xtab1 };
    { id = "utab1"; title = "EXT: pipeline-model stall breakdown"; artifact = utab1 };
    { id = "ufig1"; title = "EXT: CPI decomposition vs wait states"; artifact = ufig1 };
    { id = "pfig1"; title = "EXT: density/CPI/traffic Pareto frontier"; artifact = pfig1 };
    { id = "vtab1"; title = "EXT: ISA-variant comparison (fusion, D16m)"; artifact = vtab1 };
    { id = "vfig1"; title = "EXT: density x CPI scatter with ISA variants"; artifact = vfig1 };
  ]

let by_id id = List.find (fun e -> e.id = id) all

let render e = Artifact.to_text (e.artifact ())

let render_all ?jobs () =
  Pool.run_plan ?jobs (Plan.full ());
  String.concat "\n"
    (List.map
       (fun e ->
         Printf.sprintf "================ %s: %s ================\n%s" e.id
           e.title (render e))
       all)
