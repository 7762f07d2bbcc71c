(* The [serve-warm] workload: `d16c serve` in its own process over a
   private copy of the warm cache, driven by this process through two
   connections, one thread each, in a closed loop.

   Set-up sends every distinct request once, so every timed request is
   a cache hit and the time goes to the serve plane: framing, coalescing,
   the batching window and the result digests.  After the loop this
   process computes every digest and every rendered text itself, and
   each answer must equal them. *)

module Plan = Repro_harness.Plan
module Experiments = Repro_harness.Experiments
module Diskcache = Repro_harness.Diskcache
module Proto = Repro_serve.Proto
module Wire = Repro_serve.Wire
module Digests = Repro_serve.Digests
module Crc32c = Repro_util.Crc32c
module Json = Repro_util.Json

let now = Unix.gettimeofday
let d16c = "_build/default/bin/d16c.exe"

type item = Sweep of Plan.spec | Render of Experiments.t

let items =
  Array.of_list
    (List.map (fun s -> Sweep s) (Plan.dedup (Plan.full ()))
    @ List.map (fun e -> Render e) Experiments.all)

let class_of = function
  | Sweep s -> (
    match s.Plan.kind with
    | Plan.Stats -> "stats"
    | Plan.Trace -> "trace"
    | Plan.Grid | Plan.Uarch | Plan.Fused -> "batched")
  | Render _ -> "render"

let classes = [ "stats"; "batched"; "trace"; "render" ]

(* The request mix.  Each class keeps its share of the distinct
   requests, so the mix of cheap and window-bound requests is the same
   for every seed; inside a class, Zipf(1.1) weights over a seeded
   permutation decide which requests repeat. *)
let mix seed =
  let rng = Random.State.make [| seed |] in
  let groups =
    List.map
      (fun c ->
        let members =
          List.filter (fun i -> class_of items.(i) = c)
            (List.init (Array.length items) Fun.id)
          |> Array.of_list
        in
        let perm = Sim_wl.shuffle rng members in
        let cdf = Array.make (Array.length perm) 0. in
        let acc = ref 0. in
        Array.iteri
          (fun r _ ->
            acc := !acc +. (1. /. (float_of_int (r + 1) ** 1.1));
            cdf.(r) <- !acc)
          perm;
        (perm, cdf))
      classes
  in
  let sizes = List.map (fun (p, _) -> float_of_int (Array.length p)) groups in
  let total = Tally.sum sizes in
  let lock = Mutex.create () in
  fun () ->
    Mutex.protect lock (fun () ->
        let u = Random.State.float rng total in
        let rec pick u = function
          | [ (g, _) ] -> g
          | (g, size) :: rest -> if u < size then g else pick (u -. size) rest
          | [] -> assert false
        in
        let perm, cdf = pick u (List.combine groups sizes) in
        let v = Random.State.float rng cdf.(Array.length cdf - 1) in
        let rec find lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if cdf.(mid) < v then find (mid + 1) hi else find lo mid
        in
        perm.(find 0 (Array.length cdf - 1)))

(* --- A client with a deadline on every request -------------------------- *)

let request_expected_s = 0.5
let request_deadline_s = 4. *. request_expected_s

type conn = { fd : Unix.file_descr; wire : Wire.conn; mutable next_id : int }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
    (* A receive timeout makes a request that outlives its deadline an
       error instead of a hang. *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO request_deadline_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO request_deadline_s;
    Ok { fd; wire = Wire.of_fd fd; next_id = 1 }
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error (Unix.error_message e)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rpc c req =
  let id = c.next_id in
  c.next_id <- id + 1;
  let env =
    { Proto.id; deadline_ms = Some (1000. *. request_deadline_s); payload = req }
  in
  match Wire.send c.wire (Proto.request_to_json env) with
  | Error e -> Error e
  | Ok () -> (
    match Wire.recv c.wire with
    | Ok (Some j) -> (
      match Proto.response_of_json j with
      | Ok r when r.Proto.id = id -> Ok r.Proto.payload
      | Ok r -> Error (Printf.sprintf "answer to request %d, expected %d" r.Proto.id id)
      | Error e -> Error e)
    | Ok None -> Error "connection closed by the server"
    | Error e -> Error e)

(* --- Answers ------------------------------------------------------------ *)

type answer = {
  item : int;
  start : float;
  stop : float;
  got : (string * float option, string) result;
      (** Digest or text checksum, and the server's own latency. *)
}

let request_of = function
  | Sweep s -> Proto.Sweep s
  | Render e -> Proto.Render e.id

let read_answer it = function
  | Proto.Sweep_r r -> (
    match items.(it) with
    | Sweep s when Plan.spec_to_string r.spec = Plan.spec_to_string s ->
      Ok (r.digest, Some r.ms)
    | _ -> Error "sweep answer for another request")
  | Proto.Render_r r -> (
    match items.(it) with
    | Render e when r.id = e.id ->
      Ok (Printf.sprintf "%08x" (Crc32c.string r.text), None)
    | _ -> Error "render answer for another request")
  | Proto.Error_r { code; message } ->
    Error (Proto.error_code_to_string code ^ ": " ^ message)
  | _ -> Error "unexpected answer"

(* Send [next ()] requests on one connection until [until]; a failed
   request costs the connection, which is opened again. *)
let client_loop ~socket ~until ~next =
  let answers = ref [] in
  let conn = ref (Result.to_option (connect socket)) in
  while now () < until do
    let it = next () in
    let start = now () in
    let got =
      match !conn with
      | None -> Error "not connected"
      | Some c -> (
        match rpc c (request_of items.(it)) with
        | Ok r -> read_answer it r
        | Error e -> Error e)
    in
    let stop = now () in
    Tracer.record ~req:it ("serve." ^ class_of items.(it)) ~start ~stop;
    answers := { item = it; start; stop; got } :: !answers;
    if Result.is_error got then begin
      Option.iter close !conn;
      conn := Result.to_option (connect socket)
    end
  done;
  Option.iter close !conn;
  !answers

(* --- The server --------------------------------------------------------- *)

type server = { pid : int; deadline : float }

let server_expected_s ~seconds = 5. +. seconds
let startup_expected_s = 2.

let start_server ~farm ~socket ~expected_s =
  let deadline = now () +. Tally.deadline_for expected_s in
  let pid =
    Proc.spawn
      ~env:[ ("REPRO_CACHE_DIR", farm); ("REPRO_JOBS", "2") ]
      d16c
      [ "serve"; "--socket"; socket; "--log-interval"; "0" ]
  in
  { pid; deadline }

let await_ready ~socket =
  let until = now () +. (4. *. startup_expected_s) in
  let rec go () =
    match connect socket with
    | Ok c -> Some c
    | Error _ when now () < until ->
      Unix.sleepf 0.005;
      go ()
    | Error _ -> None
  in
  go ()

let kill srv =
  (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Proc.wait srv.pid)

let stop_server tally ~socket srv =
  (match connect socket with
  | Ok c ->
    (match rpc c Proto.Shutdown with
    | Ok Proto.Bye -> ()
    | _ -> Tally.fail tally "shutdown request not acknowledged");
    close c
  | Error e -> Tally.fail tally ("shutdown: " ^ e));
  match Proc.wait_until srv.pid (Float.max srv.deadline (now () +. 1.)) with
  | Proc.Exited 0 -> ()
  | o -> Tally.fail tally ("server: " ^ Proc.describe_outcome o)

(* One set-up repetition: a private copy of the warm cache, a server
   started on it, and every distinct request sent once. *)
let setup_rep tally ~farm ~socket ~expected_s =
  Proc.rm_rf farm;
  (try Sys.remove socket with Sys_error _ -> ());
  let t0 = now () in
  Proc.link_tree Report_wl.warm_dir farm;
  let srv = start_server ~farm ~socket ~expected_s in
  match await_ready ~socket with
  | None ->
    Tally.fail tally "server did not come up";
    kill srv;
    None
  | Some c ->
    let answers =
      List.init (Array.length items) (fun it ->
          let start = now () in
          let got =
            match rpc c (request_of items.(it)) with
            | Ok r -> read_answer it r
            | Error e -> Error e
          in
          { item = it; start; stop = now (); got })
    in
    close c;
    Some (now () -. t0, srv, answers)

let latencies answers =
  List.filter_map
    (fun a -> if Result.is_ok a.got then Some (a.stop -. a.start) else None)
    answers

(* Two callers, this thread and one more, until [seconds] have passed. *)
let timed_loop ~socket ~seconds ~next =
  let t0 = now () in
  let until = t0 +. seconds in
  let other = ref [] in
  let th = Thread.create (fun () -> other := client_loop ~socket ~until ~next) () in
  let mine = client_loop ~socket ~until ~next in
  Thread.join th;
  (mine @ !other, now () -. t0)

let describe it =
  match items.(it) with
  | Sweep s -> Plan.spec_to_string s
  | Render e -> "render " ^ e.id

(* Check every answer against digests and texts computed here, from
   the same cache the server read. *)
let verify tally ~farm answers =
  Diskcache.set_dir farm;
  let digest_times = ref [] in
  let expected = Hashtbl.create 256 in
  let expect it =
    match Hashtbl.find_opt expected it with
    | Some v -> v
    | None ->
      let v =
        match items.(it) with
        | Sweep s ->
          let t0 = now () in
          let d = Digests.of_spec s in
          digest_times := (now () -. t0) :: !digest_times;
          d
        | Render e -> Printf.sprintf "%08x" (Crc32c.string (Experiments.render e))
      in
      Hashtbl.add expected it v;
      v
  in
  List.iter
    (fun a ->
      match a.got with
      | Error e ->
        Tally.fail tally (Printf.sprintf "request %s: %s" (describe a.item) e)
      | Ok (got, _) ->
        if got = expect a.item then Tally.op tally true
        else Tally.fail tally (Printf.sprintf "request %s: wrong answer" (describe a.item)))
    answers;
  !digest_times

let p50_ms answers = 1000. *. Summary.median (latencies answers)

let status_counters ~socket =
  match connect socket with
  | Error _ -> []
  | Ok c ->
    let r = rpc c Proto.Status in
    close c;
    (match r with
    | Ok (Proto.Status_r st) ->
      [
        ("serve.coalesced", st.coalesced);
        ("serve.batches", st.batches);
        ("serve.runs", st.runs);
        ("serve.disk_hits", st.disk_hits);
        ("serve.timeouts", st.timeouts);
        ("serve.shed", st.shed);
      ]
    | _ -> [])

(* Per-layer numbers from the traced loop's answers. *)
let set_layers tally answers ~wall ~untraced_p50 =
  let of_class c = List.filter (fun a -> class_of items.(a.item) = c) answers in
  Tally.set tally "serve.stats_p50_ms" (p50_ms (of_class "stats"));
  Tally.set tally "serve.batched_p50_ms" (p50_ms (of_class "batched"));
  Tally.set tally "serve.render_p50_ms" (p50_ms (of_class "render"));
  let server =
    List.filter_map
      (fun a ->
        match a.got with
        | Ok (_, Some ms) -> Some (ms, 1000. *. (a.stop -. a.start))
        | _ -> None)
      answers
  in
  Tally.set tally "serve.server_p50_ms" (Summary.median (List.map fst server));
  Tally.set tally "serve.overhead_p50_ms"
    (Summary.median (List.map (fun (s, c) -> c -. s) server));
  let busy = Tally.sum (List.map (fun a -> a.stop -. a.start) answers) in
  Tally.set tally "trace.coverage" (busy /. (2. *. wall));
  if untraced_p50 > 0. then
    Tally.set tally "trace.overhead" (p50_ms answers /. untraced_p50)

let run tally ~seed ~seconds ~trace ~write_trace =
  if not (Sys.file_exists d16c) then Tally.fail tally (d16c ^ " is not built")
  else if not (Report_wl.ensure_warm tally) then Tally.fail tally "no warm cache"
  else begin
    let base = Report_wl.work_path "serve" in
    let socket = base ^ ".sock" and farm = base ^ "-cache" in
    let loops = if trace then 2. else 1. in
    (* Three set-ups; the third server stays up for the timed loop. *)
    let rec setups k acc warmups =
      let last = k = 3 in
      let expected_s =
        server_expected_s ~seconds:(if last then loops *. seconds else 0.)
      in
      match setup_rep tally ~farm ~socket ~expected_s with
      | None -> (acc, warmups, None)
      | Some (dt, srv, answers) ->
        if last then (dt :: acc, answers @ warmups, Some srv)
        else begin
          stop_server tally ~socket srv;
          setups (k + 1) (dt :: acc) (answers @ warmups)
        end
    in
    let setup_times, warmups, srv = setups 1 [] [] in
    Tally.set tally "setup_s" (Summary.median setup_times);
    (match srv with
    | None -> ignore (verify tally ~farm warmups)
    | Some srv ->
      let stopped = ref false in
      (* Whatever goes wrong below, the server does not outlive the run. *)
      Fun.protect
        ~finally:(fun () -> if not !stopped then kill srv)
        (fun () ->
          let next = mix seed in
          let answers, wall = timed_loop ~socket ~seconds ~next in
          (* Two callers: the rate is over the loop's wall time. *)
          Tally.set_latency tally (latencies answers) ~busy_s:wall;
          let traced =
            if not trace then []
            else begin
              Tracer.on := true;
              let t, twall = timed_loop ~socket ~seconds ~next in
              Tracer.on := false;
              set_layers tally t ~wall:twall ~untraced_p50:(p50_ms answers);
              t
            end
          in
          Tally.set tally "peak_rss_mb" (float_of_int (Proc.vm_hwm_kb srv.pid) /. 1024.);
          let counters = if trace then status_counters ~socket else [] in
          stop_server tally ~socket srv;
          stopped := true;
          let digest_times = verify tally ~farm (warmups @ answers @ traced) in
          if trace then begin
            List.iter (fun (k, v) -> Tally.set tally k (float_of_int v)) counters;
            Tally.set tally "serve.digest_ms" (1000. *. Summary.median digest_times);
            write_trace (Tracer.to_json ())
          end));
    List.iter Proc.rm_rf [ farm; socket ]
  end
