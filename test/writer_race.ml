(* Two domains each write a one-record trace at the same moment, so both
   hand off their first chunk at once: the start-up race of the trace
   writer's shared flusher domain.  The trace tests run this in fresh
   processes (the flusher starts once per process) with
   REPRO_TRACE_FLUSHER=1.  A hang trips the alarm, whose default action
   kills the process; an exception or an unreadable trace exits
   non-zero.

   usage: writer_race.exe DIR *)

module W = Repro_trace.Trace.Writer
module Reader = Repro_trace.Trace.Reader

let () =
  ignore (Unix.alarm 20);
  let dir = Sys.argv.(1) in
  let path k = Filename.concat dir (Printf.sprintf "t%d.trc" k) in
  let one k =
    let w = W.create ~chunk_records:1 ~insn_bytes:4 (path k) in
    match W.step w ~pc:0 ~dinfo:0 with
    | () -> W.close w
    | exception e ->
      W.abort w;
      raise e
  in
  let d1 = Domain.spawn (fun () -> one 1)
  and d2 = Domain.spawn (fun () -> one 2) in
  Domain.join d1;
  Domain.join d2;
  List.iter
    (fun k ->
      match Reader.open_file (path k) with
      | Ok rd when Reader.n_records rd = 1 -> ()
      | Ok _ -> failwith "wrong record count"
      | Error e -> failwith e)
    [ 1; 2 ]
