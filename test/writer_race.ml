(* The second process of the trace tests' cross-process capture check:
   captures PATH (1000 sequential records) while the test's own writer
   on the same path is still open, and closes.  An exception or an
   unreadable result exits non-zero.

   usage: writer_race.exe PATH *)

module W = Repro_trace.Trace.Writer
module Reader = Repro_trace.Trace.Reader

let () =
  let path = Sys.argv.(1) in
  let w = W.create ~chunk_records:64 ~insn_bytes:4 path in
  (match
     for i = 0 to 999 do
       W.step w ~pc:(8 * i) ~dinfo:0
     done
   with
  | () -> W.close w
  | exception e ->
    W.abort w;
    raise e);
  match Reader.open_file path with
  | Ok rd when Reader.n_records rd = 1000 -> ()
  | Ok _ -> failwith "wrong record count"
  | Error e -> failwith e
