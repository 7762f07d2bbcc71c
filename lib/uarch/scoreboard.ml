type t = {
  ready_g : int array;
  cause_g : Predecode.cause array;
  ready_f : int array;
  cause_f : Predecode.cause array;
  mutable ready_status : int;
  mutable clock : int;
  mutable load_stalls : int;
  mutable fp_stalls : int;
}

let create ~n_gpr ~n_fpr =
  {
    ready_g = Array.make n_gpr 0;
    cause_g = Array.make n_gpr Predecode.Load;
    ready_f = Array.make n_fpr 0;
    cause_f = Array.make n_fpr Predecode.Load;
    ready_status = 0;
    clock = 0;
    load_stalls = 0;
    fp_stalls = 0;
  }

let step t (d : Predecode.desc) =
  List.iter
    (fun (r : Predecode.rreg) ->
      let ready, cause =
        match r with
        | Predecode.Rg i -> (t.ready_g.(i), t.cause_g.(i))
        | Predecode.Rf i -> (t.ready_f.(i), t.cause_f.(i))
        | Predecode.Rstatus -> (t.ready_status, Predecode.Fp)
      in
      if ready > t.clock then begin
        let s = ready - t.clock in
        (match cause with
        | Predecode.Load -> t.load_stalls <- t.load_stalls + s
        | Predecode.Fp -> t.fp_stalls <- t.fp_stalls + s);
        t.clock <- t.clock + s
      end)
    d.Predecode.reads;
  (match d.Predecode.write with
  | Some w ->
    let ready = t.clock + 1 + w.Predecode.latency in
    (match w.Predecode.dst with
    | Predecode.Wg i ->
      t.ready_g.(i) <- ready;
      t.cause_g.(i) <- w.Predecode.cause
    | Predecode.Wf i ->
      t.ready_f.(i) <- ready;
      t.cause_f.(i) <- w.Predecode.cause
    | Predecode.Wstatus -> t.ready_status <- ready)
  | None -> ());
  t.clock <- t.clock + 1

let clock t = t.clock
let load_stalls t = t.load_stalls
let fp_stalls t = t.fp_stalls
