(* Trace files for the replay tests: one execution captured through
   [Machine.run]'s [on_insn] hook, or a hand-written record list, written
   to a temporary file and opened.  The file is removed before the reader
   is returned; the reader maps the file, so it stays valid. *)

module Machine = Repro_sim.Machine
module Target = Repro_core.Target
module Link = Repro_link.Link
module Trace = Repro_trace.Trace

(* [f path] with a fresh temporary path, removed afterwards. *)
let with_temp f =
  let path = Filename.temp_file "repro-test" ".trc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let open_reader path =
  match Trace.Reader.open_file path with
  | Ok rd -> rd
  | Error e -> Alcotest.fail e

(* Execute [img] once, writing every retired record to the trace and
   passing it on to [on_insn]. *)
let capture ?chunk_records ?(on_insn = fun ~iaddr:_ ~dinfo:_ -> ())
    (img : Link.image) =
  with_temp (fun path ->
      let w =
        Trace.Writer.create ?chunk_records
          ~insn_bytes:(Target.insn_bytes img.Link.target)
          path
      in
      let r =
        Machine.run
          ~on_insn:(fun ~iaddr ~dinfo ->
            Trace.Writer.step w ~pc:iaddr ~dinfo;
            on_insn ~iaddr ~dinfo)
          img
      in
      Trace.Writer.close w;
      (r, open_reader path))

(* A trace holding exactly [records], each [(pc, dinfo)]. *)
let of_records ?chunk_records ~insn_bytes records =
  with_temp (fun path ->
      let w = Trace.Writer.create ?chunk_records ~insn_bytes path in
      List.iter (fun (pc, dinfo) -> Trace.Writer.step w ~pc ~dinfo) records;
      Trace.Writer.close w;
      open_reader path)
