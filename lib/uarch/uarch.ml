module Machine = Repro_sim.Machine

let run_many cfgs img =
  let pipes = List.map (fun cfg -> Pipeline.create cfg img) cfgs in
  let on_insn ~iaddr ~dinfo =
    List.iter (fun p -> Pipeline.step p ~iaddr ~dinfo) pipes
  in
  let r = Machine.run ~on_insn img in
  (r, List.map Pipeline.result pipes)

let run cfg img =
  match run_many [ cfg ] img with
  | r, [ p ] -> (r, p)
  | _ -> assert false
