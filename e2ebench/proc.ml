(* Child processes, deadlines and the benchmark's working files.

   Every file the benchmark writes lives under [work_dir], relative to
   the checkout root it runs from. *)

module Json = Repro_util.Json

let work_dir = "e2ebench/_work"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p

(* A private copy of a cache directory made of hard links.  The system
   writes cache entries and traces to a temporary file and renames it
   into place, so nothing it does through the copy can change the
   original's bytes. *)
let rec link_tree src dst =
  mkdir_p dst;
  Array.iter
    (fun e ->
      let s = Filename.concat src e and d = Filename.concat dst e in
      match (Unix.lstat s).Unix.st_kind with
      | Unix.S_DIR -> link_tree s d
      | Unix.S_REG -> Unix.link s d
      | _ -> ())
    (Sys.readdir src)

let rec du p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc e -> acc + du (Filename.concat p e)) 0 (Sys.readdir p)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0

(* Peak resident set ([VmHWM]) of a live process, in KiB; 0 if the
   kernel does not report it. *)
let vm_hwm_kb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> Option.value ~default:acc (int_of_string_opt n)
          | [] -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' text)

(* A child stops itself at its deadline: an interval timer survives
   [execve], and SIGALRM's default action ends the process even when it
   is parked in a futex, where no handler of its own would run. *)
let arm_self_deadline seconds =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.; it_value = seconds })

type outcome = Exited of int | Signaled of int

let describe_outcome = function
  | Exited 0 -> "ok"
  | Exited n -> Printf.sprintf "exit %d" n
  | Signaled s when s = Sys.sigalrm -> "killed at its deadline"
  | Signaled s when s = Sys.sigkill -> "killed by the watchdog"
  | Signaled s -> Printf.sprintf "signal %d" s

let spawn ?(env = []) prog args =
  let keep =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           match String.index_opt kv '=' with
           | Some i -> not (List.mem_assoc (String.sub kv 0 i) env)
           | None -> true)
  in
  let env = Array.of_list (keep @ List.map (fun (k, v) -> k ^ "=" ^ v) env) in
  (* The system's own output goes to our stderr: stdout carries only
     the benchmark's report. *)
  Unix.create_process_env prog
    (Array.of_list (prog :: args))
    env Unix.stdin Unix.stderr Unix.stderr

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED n -> Exited n
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Signaled s
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

(* Wait for a process that cannot arm its own deadline; SIGKILL it when
   the deadline passes.  Polls, so use it outside timed sections. *)
let wait_until pid deadline =
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        wait pid
      end
      else begin
        Unix.sleepf 0.01;
        go ()
      end
    | _, Unix.WEXITED n -> Exited n
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Signaled s
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Run this executable in one of its child modes and read the JSON
   object it leaves in [out].  The child arms its own deadline. *)
let run_child ?env ~deadline_s ~out args =
  (try Sys.remove out with Sys_error _ -> ());
  let t0 = Unix.gettimeofday () in
  let pid =
    spawn ?env Sys.executable_name
      ("--child" :: args @ [ "--out"; out; "--deadline"; Printf.sprintf "%g" deadline_s ])
  in
  let outcome = wait pid in
  let wall = Unix.gettimeofday () -. t0 in
  let result =
    match In_channel.with_open_bin out In_channel.input_all with
    | exception Sys_error _ -> None
    | text -> Result.to_option (Json.parse (String.trim text))
  in
  (try Sys.remove out with Sys_error _ -> ());
  (t0, wall, outcome, result)

let write_json path j =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Json.to_string j);
      Out_channel.output_char oc '\n');
  Sys.rename tmp path

let get_float j k = Option.bind (Json.member k j) Json.to_float
let get_int j k = Option.bind (Json.member k j) Json.to_int
let get_str j k = Option.bind (Json.member k j) Json.to_str
