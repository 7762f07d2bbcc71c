module Pool = Repro_harness.Pool

(* One job: one execution on the pool.  [requests] counts every request
   it answers (the first and each coalesced join) — the [batch] field of
   the responses.  [result] is written exactly once, under the batcher
   lock; tickets poll it through {!await}. *)
type cell = {
  key : string;
  mutable requests : int;
  mutable result : Proto.response option;
}

type ticket = cell

type t = {
  lock : Mutex.t;
  drained : Condition.t;  (* signalled when [dispatched] reaches 0 *)
  pool : Pool.t;
  max_queue : int;
  inflight : (string, cell) Hashtbl.t;  (* dispatched, not yet finished *)
  mutable dispatched : int;  (* jobs on the pool, not yet finished *)
  mutable stopping : bool;
  (* Counters (all guarded by [lock]). *)
  mutable c_coalesced : int;
  mutable c_batches : int;
  mutable c_batched : int;
  mutable c_max_batch : int;
  mutable c_runs : int;
  mutable c_timeouts : int;
  mutable c_shed : int;
}

let locked t f = Mutex.protect t.lock f

let create ?jobs ?(max_queue = 64) () =
  (* A [Pool] with fewer than 2 workers only runs tasks when someone
     [wait]s, which a long-running server never does — so 2 is the
     floor, not an optimization. *)
  let jobs =
    max 2 (match jobs with Some j -> j | None -> Pool.default_jobs ())
  in
  {
    lock = Mutex.create ();
    drained = Condition.create ();
    pool = Pool.create ~jobs;
    max_queue = max 1 max_queue;
    inflight = Hashtbl.create 64;
    dispatched = 0;
    stopping = false;
    c_coalesced = 0;
    c_batches = 0;
    c_batched = 0;
    c_max_batch = 0;
    c_runs = 0;
    c_timeouts = 0;
    c_shed = 0;
  }

(* Runs on a pool worker domain.  The job itself runs outside the lock;
   only result installation and bookkeeping take it. *)
let exec t c f () =
  let r =
    match f () with
    | r -> r
    | exception e ->
      let message = Printexc.to_string e in
      Proto.Error_r { code = Proto.Server_error; message }
  in
  locked t (fun () ->
      let batch = c.requests in
      c.result <-
        Some
          (match r with
          | Proto.Sweep_r s -> Proto.Sweep_r { s with batch }
          | r -> r);
      Hashtbl.remove t.inflight c.key;
      if batch > 1 then begin
        t.c_batches <- t.c_batches + 1;
        t.c_batched <- t.c_batched + batch;
        t.c_max_batch <- max t.c_max_batch batch
      end;
      t.dispatched <- t.dispatched - 1;
      if t.dispatched = 0 then Condition.broadcast t.drained)

let fn t ~key f =
  locked t (fun () ->
      if t.stopping then
        Error (Proto.Shutting_down, "server is shutting down")
      else
        match Hashtbl.find_opt t.inflight key with
        | Some c ->
          (* Single-flight: join the job in flight. *)
          t.c_coalesced <- t.c_coalesced + 1;
          c.requests <- c.requests + 1;
          Ok c
        | None ->
          if t.dispatched >= t.max_queue then begin
            t.c_shed <- t.c_shed + 1;
            Error
              ( Proto.Busy,
                Printf.sprintf "request queue full (%d jobs)" t.max_queue )
          end
          else begin
            let c = { key; requests = 1; result = None } in
            Hashtbl.replace t.inflight key c;
            t.dispatched <- t.dispatched + 1;
            t.c_runs <- t.c_runs + 1;
            Pool.submit t.pool (exec t c f);
            Ok c
          end)

let sweep t (spec : Repro_harness.Plan.spec) =
  fn t ~key:(Digests.key_of_spec spec) (fun () ->
      let t0 = Unix.gettimeofday () in
      let digest = Digests.of_spec spec in
      let ms = (Unix.gettimeofday () -. t0) *. 1000. in
      Proto.Sweep_r { spec; digest; batch = 0; ms })

let await t (cell : ticket) ~deadline =
  let rec poll () =
    match locked t (fun () -> cell.result) with
    | Some r -> r
    | None ->
      let now = Unix.gettimeofday () in
      if now >= deadline then begin
        locked t (fun () -> t.c_timeouts <- t.c_timeouts + 1);
        Proto.Error_r
          {
            code = Proto.Timeout;
            message =
              "deadline passed before the job finished (it keeps running; \
               an identical request will coalesce onto the warm result)";
          }
      end
      else begin
        Thread.delay (Float.min 0.001 (deadline -. now));
        poll ()
      end
  in
  poll ()

let counters t =
  locked t (fun () ->
      {
        Proto.uptime_s = 0.;
        accepted = 0;
        completed = 0;
        failed = 0;
        coalesced = t.c_coalesced;
        batches = t.c_batches;
        batched = t.c_batched;
        max_batch = t.c_max_batch;
        runs = t.c_runs;
        queue_depth = t.dispatched;
        timeouts = t.c_timeouts;
        shed = t.c_shed;
        disk_hits = 0;
        disk_misses = 0;
        latency_ms_sum = 0.;
        latency_ms_max = 0.;
      })

let quiesce t =
  Mutex.lock t.lock;
  t.stopping <- true;
  while t.dispatched > 0 do
    Condition.wait t.drained t.lock
  done;
  Mutex.unlock t.lock

let shutdown t =
  quiesce t;
  Pool.wait t.pool;
  Pool.shutdown t.pool
