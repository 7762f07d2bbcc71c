module Json = Repro_util.Json
module Diskcache = Repro_harness.Diskcache
module Experiments = Repro_harness.Experiments

type config = {
  unix_path : string option;
  tcp : (string * int) option;
  jobs : int option;
  max_queue : int;
  default_deadline_ms : float;
  log : string -> unit;
  log_interval_s : float;
}

let default_config () =
  {
    unix_path = Some (Filename.concat (Diskcache.dir ()) "d16c.sock");
    tcp = None;
    jobs = None;
    max_queue = 64;
    default_deadline_ms = 60_000.;
    log = (fun s -> Printf.eprintf "%s\n%!" s);
    log_interval_s = 10.;
  }

type handle = {
  cfg : config;
  batcher : Batcher.t;
  started : float;
  listeners : Unix.file_descr list;
  unix_path : string option;  (* to unlink on teardown *)
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  lock : Mutex.t;
  mutable stopping : bool;
  mutable waited : bool;  (* wait's teardown already ran *)
  mutable conns : (Unix.file_descr * Thread.t) list;
  mutable accept_thread : Thread.t option;
  mutable logger_thread : Thread.t option;
  mutable sleep_seq : int;
  (* Connection-level counters (guarded by [lock]). *)
  mutable c_accepted : int;
  mutable c_completed : int;
  mutable c_failed : int;
  mutable lat_sum_ms : float;
  mutable lat_max_ms : float;
}

let locked h f = Mutex.protect h.lock f

let status_of h =
  let b = Batcher.counters h.batcher in
  locked h (fun () ->
      {
        b with
        Proto.uptime_s = Unix.gettimeofday () -. h.started;
        accepted = h.c_accepted;
        completed = h.c_completed;
        failed = h.c_failed;
        disk_hits = Diskcache.hit_count ();
        disk_misses = Diskcache.miss_count ();
        latency_ms_sum = h.lat_sum_ms;
        latency_ms_max = h.lat_max_ms;
      })

let log_status h =
  let s = status_of h in
  let avg =
    if s.Proto.completed = 0 then 0.
    else s.Proto.latency_ms_sum /. float_of_int s.Proto.completed
  in
  h.cfg.log
    (Printf.sprintf
       "serve: up %.1fs reqs=%d done=%d failed=%d lat(avg/max)=%.1f/%.1fms \
        queue=%d coalesced=%d batches=%d (reqs %d, max %d) runs=%d \
        timeouts=%d shed=%d disk=%d/%d"
       s.Proto.uptime_s s.Proto.accepted s.Proto.completed s.Proto.failed avg
       s.Proto.latency_ms_max s.Proto.queue_depth s.Proto.coalesced
       s.Proto.batches s.Proto.batched s.Proto.max_batch
       s.Proto.runs s.Proto.timeouts s.Proto.shed s.Proto.disk_hits
       s.Proto.disk_misses)

let stop h =
  let first =
    locked h (fun () ->
        if h.stopping then false
        else begin
          h.stopping <- true;
          true
        end)
  in
  if first then
    (* Wake the accept loop; it tears nothing down itself. *)
    ignore (try Unix.write h.stop_w (Bytes.make 1 '!') 0 1 with Unix.Unix_error _ -> 0)

(* One request to one response.  Everything here runs on the connection's
   thread; only [Batcher] jobs touch the pool. *)
let answer h (env : Proto.request Proto.envelope) =
  let t0 = Unix.gettimeofday () in
  let deadline =
    t0
    +. Float.max 1.
         (Option.value ~default:h.cfg.default_deadline_ms env.Proto.deadline_ms)
       /. 1000.
  in
  let submitted sub =
    match sub with
    | Ok ticket -> Batcher.await h.batcher ticket ~deadline
    | Error (code, message) -> Proto.Error_r { code; message }
  in
  let payload =
    match env.Proto.payload with
    | Proto.Ping -> Proto.Pong
    | Proto.Status -> Proto.Status_r (status_of h)
    | Proto.Shutdown ->
      stop h;
      Proto.Bye
    | Proto.Sweep spec -> submitted (Batcher.sweep h.batcher spec)
    | Proto.Render id -> (
      match Experiments.by_id id with
      | e ->
        submitted
          (Batcher.fn h.batcher ~key:("render:" ^ id) (fun () ->
               Proto.Render_r { id; text = Experiments.render e }))
      | exception Not_found ->
        Proto.Error_r
          {
            code = Proto.Bad_request;
            message = Printf.sprintf "unknown experiment id %S" id;
          })
    | Proto.Sleep ms ->
      let key =
        locked h (fun () ->
            h.sleep_seq <- h.sleep_seq + 1;
            Printf.sprintf "sleep:%d" h.sleep_seq)
      in
      submitted
        (Batcher.fn h.batcher ~key (fun () ->
             Unix.sleepf (ms /. 1000.);
             Proto.Slept))
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  locked h (fun () ->
      (match payload with
      | Proto.Error_r _ -> h.c_failed <- h.c_failed + 1
      | _ ->
        h.c_completed <- h.c_completed + 1;
        h.lat_sum_ms <- h.lat_sum_ms +. ms;
        h.lat_max_ms <- Float.max h.lat_max_ms ms);
      ());
  { Proto.id = env.Proto.id; deadline_ms = None; payload }

let bad_request ~id message =
  {
    Proto.id;
    deadline_ms = None;
    payload = Proto.Error_r { code = Proto.Bad_request; message };
  }

let conn_loop h fd =
  let conn = Wire.of_fd fd in
  let send env =
    match Wire.send conn (Proto.response_to_json env) with
    | Ok () -> true
    | Error _ -> false  (* peer gone; the loop ends on the next read *)
  in
  let rec loop () =
    match Wire.recv conn with
    | Ok None -> ()  (* orderly EOF *)
    | Error e ->
      (* Junk framing or a dead socket: answer if the pipe still works,
         then close — resynchronizing inside a corrupt stream is not
         worth the ambiguity. *)
      ignore (send (bad_request ~id:0 e))
    | Ok (Some j) -> (
      locked h (fun () -> h.c_accepted <- h.c_accepted + 1);
      match Proto.request_of_json j with
      | Error e ->
        (* Well-framed but not a request: reply (echoing the id when one
           is recoverable) and keep the connection. *)
        let id =
          Option.value ~default:0 (Option.bind (Json.member "id" j) Json.to_int)
        in
        locked h (fun () -> h.c_failed <- h.c_failed + 1);
        if send (bad_request ~id e) then loop ()
      | Ok env ->
        let resp = answer h env in
        let keep = send resp in
        (* A Shutdown reply is the connection's last word. *)
        if keep && resp.Proto.payload <> Proto.Bye then loop ())
  in
  (try loop () with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  locked h (fun () ->
      h.conns <- List.filter (fun (fd', _) -> fd' <> fd) h.conns)

let accept_loop h =
  let rec loop () =
    match Unix.select (h.stop_r :: h.listeners) [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | ready, _, _ ->
      if List.mem h.stop_r ready then ()
      else begin
        List.iter
          (fun l ->
            if List.mem l ready then
              match Unix.accept ~cloexec:true l with
              | fd, _ ->
                let t = Thread.create (conn_loop h) fd in
                locked h (fun () -> h.conns <- (fd, t) :: h.conns)
              | exception Unix.Unix_error _ -> ())
          h.listeners;
        loop ()
      end
  in
  loop ()

(* Sleep in short slices so a stop is honoured promptly, not at the end
   of a full (possibly many-second) log interval. *)
let rec logger_loop h remaining =
  if not (locked h (fun () -> h.stopping)) then
    if remaining <= 0. then begin
      log_status h;
      logger_loop h h.cfg.log_interval_s
    end
    else begin
      let slice = Float.min 0.1 remaining in
      Thread.delay slice;
      logger_loop h (remaining -. slice)
    end

let listen_unix path =
  (* A stale socket file from a dead server would fail the bind; if
     something answers on it, a live server owns it — refuse. *)
  (match (Unix.stat path).Unix.st_kind with
  | Unix.S_SOCK -> (
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
      Unix.close probe;
      failwith (Printf.sprintf "%s: a server is already listening" path)
    | exception Unix.Unix_error _ ->
      Unix.close probe;
      Unix.unlink path)
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp host port =
  let addr = Unix.inet_addr_of_string host in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

let start (cfg : config) =
  if cfg.unix_path = None && cfg.tcp = None then
    Error "serve: no listener (need a socket path or a TCP address)"
  else
    match
      let unix_l = Option.map listen_unix cfg.unix_path in
      let tcp_l = Option.map (fun (host, port) -> listen_tcp host port) cfg.tcp in
      (unix_l, tcp_l)
    with
    | exception Failure m -> Error m
    | exception Unix.Unix_error (e, _, arg) ->
      Error
        (Printf.sprintf "serve: bind %s: %s"
           (if arg = "" then "listener" else arg)
           (Unix.error_message e))
    | unix_l, tcp_l ->
      let stop_r, stop_w = Unix.pipe ~cloexec:true () in
      let h =
        {
          cfg;
          batcher =
            Batcher.create ?jobs:cfg.jobs ~max_queue:cfg.max_queue ();
          started = Unix.gettimeofday ();
          listeners = List.filter_map Fun.id [ unix_l; tcp_l ];
          unix_path = (if unix_l = None then None else cfg.unix_path);
          stop_r;
          stop_w;
          lock = Mutex.create ();
          stopping = false;
          waited = false;
          conns = [];
          accept_thread = None;
          logger_thread = None;
          sleep_seq = 0;
          c_accepted = 0;
          c_completed = 0;
          c_failed = 0;
          lat_sum_ms = 0.;
          lat_max_ms = 0.;
        }
      in
      h.accept_thread <- Some (Thread.create accept_loop h);
      if cfg.log_interval_s > 0. then
        h.logger_thread <-
          Some (Thread.create (fun () -> logger_loop h cfg.log_interval_s) ());
      cfg.log
        (Printf.sprintf "serve: listening%s%s (queue %d)"
           (match cfg.unix_path with
           | Some p when unix_l <> None -> " on " ^ p
           | _ -> "")
           (match cfg.tcp with
           | Some (host, port) -> Printf.sprintf " on tcp %s:%d" host port
           | None -> "")
           cfg.max_queue);
      Ok h

let wait h =
  Option.iter Thread.join h.accept_thread;
  if locked h (fun () ->
         let first = not h.waited in
         h.waited <- true;
         not first)
  then ()
  else begin
  h.accept_thread <- None;
  (* Finish and answer the work in flight; refuse new work. *)
  Batcher.shutdown h.batcher;
  (* Unblock every connection thread still parked in a read. *)
  List.iter
    (fun (fd, _) ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    (locked h (fun () -> h.conns));
  List.iter (fun (_, t) -> Thread.join t) (locked h (fun () -> h.conns));
  Option.iter Thread.join h.logger_thread;
  h.logger_thread <- None;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) h.listeners;
  Option.iter
    (fun p -> try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
    h.unix_path;
    (try Unix.close h.stop_r with Unix.Unix_error _ -> ());
    (try Unix.close h.stop_w with Unix.Unix_error _ -> ());
    log_status h;
    h.cfg.log "serve: stopped"
  end

let run cfg = Result.map wait (start cfg)
