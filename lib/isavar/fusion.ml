module Insn = Repro_core.Insn
module Target = Repro_core.Target
module Link = Repro_link.Link
module Predecode = Repro_uarch.Predecode
module Scoreboard = Repro_uarch.Scoreboard
module Pipeline = Repro_uarch.Pipeline
module Stalls = Repro_uarch.Stalls

(* Rules. ------------------------------------------------------------------- *)

type rule = { name : string; matches : Insn.t -> Insn.t -> bool }

let cmp_branch =
  {
    name = "cmp-branch";
    matches =
      (fun i1 i2 ->
        match (i1, i2) with
        | ( (Insn.Cmp (_, 0, _, _) | Insn.Cmpi (_, 0, _, _)),
            (Insn.Bz (0, _) | Insn.Bnz (0, _)) ) ->
          true
        | _ -> false);
  }

let mvi_alu =
  {
    name = "mvi-alu";
    matches =
      (fun i1 i2 ->
        match (i1, i2) with
        | Insn.Mvi (rt, _), Insn.Alu (_, _, _, rb) -> rb = rt
        | _ -> false);
  }

let addr_load =
  {
    name = "addr-load";
    matches =
      (fun i1 i2 ->
        match (i1, i2) with
        | ( Insn.Alui (Insn.Add, rt, _, _),
            (Insn.Load (_, _, base, _) | Insn.Fload (_, _, base, _)) ) ->
          base = rt
        | _ -> false);
  }

let ldc_mv =
  {
    name = "ldc-mv";
    matches =
      (fun i1 i2 ->
        match (i1, i2) with
        | Insn.Ldc (0, _), Insn.Mv (_, 0) -> true
        | _ -> false);
  }

let default_rules = [ cmp_branch; mvi_alu; addr_load; ldc_mv ]

(* Merged descriptors. ------------------------------------------------------ *)

let reads_dst (w : Predecode.write option) (r : Predecode.rreg) =
  match (w, r) with
  | Some { dst = Predecode.Wg g; _ }, Predecode.Rg g' -> g = g'
  | Some { dst = Predecode.Wf f; _ }, Predecode.Rf f' -> f = f'
  | Some { dst = Predecode.Wstatus; _ }, Predecode.Rstatus -> true
  | _ -> false

(* The fused pair issues as one op: it reads the union of the halves'
   sources minus anything the first half produces (forwarded inside the
   fused op), and its architectural result is the second half's
   destination, ready once the slower half is.  A latency-0 first write
   whose destination is not the pair's result leaves zero slack in the
   scoreboard either way, so dropping it is behaviour-preserving; the one
   lossy case (ldc-mv's pool scratch r0) is a register codegen never
   reads past the pair. *)
let merge (d1 : Predecode.desc) (d2 : Predecode.desc) =
  let forwarded =
    List.filter (fun r -> not (reads_dst d1.Predecode.write r)) d2.Predecode.reads
  in
  let reads =
    d1.Predecode.reads
    @ List.filter (fun r -> not (List.mem r d1.Predecode.reads)) forwarded
  in
  let write =
    match (d1.Predecode.write, d2.Predecode.write) with
    | None, w | w, None -> w
    | Some w1, Some w2 ->
      if w1.Predecode.latency > w2.Predecode.latency then
        Some
          {
            w2 with
            Predecode.latency = w1.Predecode.latency;
            cause = w1.Predecode.cause;
          }
      else Some w2
  in
  { Predecode.reads; write }

(* Plans. ------------------------------------------------------------------- *)

type plan = {
  img : Link.image;
  descs : Predecode.desc array;
  pair : int array;  (* per index: first matching rule, or -1 *)
  merged : Predecode.desc array;  (* where pair.(i) >= 0 *)
  rule_names : string array;
}

let plan rules (img : Link.image) =
  let insns = img.Link.insns in
  let n = Array.length insns in
  let descs = Predecode.table img in
  let rules = Array.of_list rules in
  let pair = Array.make (max n 1) (-1) in
  let none = { Predecode.reads = []; write = None } in
  let merged = Array.make (max n 1) none in
  for i = 0 to n - 2 do
    let j = ref 0 in
    while
      !j < Array.length rules
      && not (rules.(!j).matches insns.(i) insns.(i + 1))
    do
      incr j
    done;
    if !j < Array.length rules then begin
      pair.(i) <- !j;
      merged.(i) <- merge descs.(i) descs.(i + 1)
    end
  done;
  { img; descs; pair; merged; rule_names = Array.map (fun r -> r.name) rules }

let static_pairs p =
  Array.fold_left (fun acc r -> if r >= 0 then acc + 1 else acc) 0 p.pair

(* The dynamic engine. ------------------------------------------------------ *)

type counters = {
  ic : int;
  fused : int;
  rule_hits : int array;
  interlock_clock : int;
  load_interlocks : int;
  fp_interlocks : int;
}

let dynamic_ops c = c.ic - c.fused

type stream = {
  plan : plan;
  sb : Scoreboard.t;
  mutable pending : int;
  mutable ic : int;
  mutable fused : int;
  hits : int array;
}

let stream_start plan =
  let t = plan.img.Link.target in
  {
    plan;
    sb = Scoreboard.create ~n_gpr:t.Target.n_gpr ~n_fpr:t.Target.n_fpr;
    pending = -1;
    ic = 0;
    fused = 0;
    hits = Array.make (Array.length plan.rule_names) 0;
  }

let flush st =
  if st.pending >= 0 then begin
    Scoreboard.step st.sb st.plan.descs.(st.pending);
    st.pending <- -1
  end

(* A pair fuses only when its first half executes and the next executed
   record is the textual successor — a taken branch or delay-slot exit
   between the halves leaves both unfused.  Fusion is greedy and
   non-overlapping: the record after a fused pair starts the next
   candidate. *)
let stream_step st ~iaddr =
  let idx = Link.index_at st.plan.img (iaddr land lnot 1) in
  st.ic <- st.ic + 1;
  if st.pending >= 0 && idx = st.pending + 1 then begin
    let r = st.plan.pair.(st.pending) in
    Scoreboard.step st.sb st.plan.merged.(st.pending);
    st.fused <- st.fused + 1;
    st.hits.(r) <- st.hits.(r) + 1;
    st.pending <- -1
  end
  else begin
    flush st;
    if st.plan.pair.(idx) >= 0 then st.pending <- idx
    else Scoreboard.step st.sb st.plan.descs.(idx)
  end

let stream_finish st =
  flush st;
  {
    ic = st.ic;
    fused = st.fused;
    rule_hits = Array.copy st.hits;
    interlock_clock = Scoreboard.clock st.sb;
    load_interlocks = Scoreboard.load_stalls st.sb;
    fp_interlocks = Scoreboard.fp_stalls st.sb;
  }

(* Pricing. ----------------------------------------------------------------- *)

let charge (c : counters) (base : Pipeline.result) =
  let b = base.Pipeline.stalls in
  Stalls.of_parts ~ic:(dynamic_ops c) ~interlock_clock:c.interlock_clock
    ~load_interlocks:c.load_interlocks ~fp_interlocks:c.fp_interlocks
    ~fetch_stalls:b.Stalls.fetch_stalls ~dmiss_stalls:b.Stalls.dmiss_stalls
    ~wmiss_stalls:b.Stalls.wmiss_stalls
