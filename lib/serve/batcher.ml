module Plan = Repro_harness.Plan
module Runs = Repro_harness.Runs
module Pool = Repro_harness.Pool

(* One underlying execution; [requests] counts every request it serves
   (direct, coalesced, batched) — the [batch] field of the responses. *)
type run = { mutable requests : int }

(* One job's result slot.  [result] is written exactly once, under the
   batcher lock; tickets poll it through {!await}. *)
type cell = {
  key : string;
  spec : Plan.spec option;  (* None for [fn] jobs *)
  run : run;
  mutable result : Proto.response option;
}

type ticket = cell

(* An open batching group: batchable sweeps for one (bench, target)
   collected during the window.  At most one cell per spec key (same-key
   requests coalesce), so a group holds at most one grid, one uarch and
   one fused cell. *)
type group = {
  g_bench : string;
  g_tname : string;
  g_target : Repro_core.Target.t;
  g_created : float;
  g_run : run;
  mutable g_cells : cell list;
}

type t = {
  lock : Mutex.t;
  drained : Condition.t;  (* signalled when [dispatched] reaches 0 *)
  pool : Pool.t;
  window : float;  (* seconds *)
  max_queue : int;
  inflight : (string, cell) Hashtbl.t;  (* pending or executing *)
  mutable pending : group list;  (* open groups, newest first *)
  mutable dispatched : int;  (* jobs on the pool, not yet finished *)
  mutable stopping : bool;
  mutable ticker_stop : bool;
  mutable ticker : Thread.t option;
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

(* Execution. -------------------------------------------------------------

   Runs on a pool worker domain.  All measurement work happens outside
   the lock; only result installation and bookkeeping take it. *)

let finish t cells ~run ~to_result =
  let results = List.map (fun c -> (c, to_result c)) cells in
  locked t (fun () ->
      let batch = run.requests in
      List.iter
        (fun ((c : cell), r) ->
          c.result <-
            Some
              (match r with
              | Proto.Sweep_r s -> Proto.Sweep_r { s with batch }
              | r -> r);
          Hashtbl.remove t.inflight c.key)
        results;
      let n = List.length cells in
      if n > 1 then begin
        t.c_batches <- t.c_batches + 1;
        t.c_batched <- t.c_batched + n;
        t.c_max_batch <- max t.c_max_batch n
      end;
      t.dispatched <- t.dispatched - 1;
      if t.dispatched = 0 then Condition.broadcast t.drained)

let exec_group t g () =
  let t0 = Unix.gettimeofday () in
  match
    (* A multi-kind group warms both standard sweeps in ONE fused pass —
       one decode of the stored trace serves every cell — after which
       each cell's digest is a warm read-back. *)
    let kinds =
      List.sort_uniq compare
        (List.filter_map
           (fun c -> Option.map (fun s -> s.Plan.kind) c.spec)
           g.g_cells)
    in
    if List.length kinds > 1 || List.mem Plan.Fused kinds then
      Runs.ensure_sweeps ~grid:true ~uarch:true g.g_bench g.g_target;
    List.map
      (fun (c : cell) ->
        match c.spec with
        | Some spec -> (c, Digests.of_spec spec)
        | None -> assert false)
      g.g_cells
  with
  | digests ->
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    finish t g.g_cells ~run:g.g_run ~to_result:(fun c ->
        let digest = List.assq c digests in
        match c.spec with
        | Some spec -> Proto.Sweep_r { spec; digest; batch = 0; ms }
        | None -> assert false)
  | exception e ->
    let message = Printexc.to_string e in
    finish t g.g_cells ~run:g.g_run ~to_result:(fun _ ->
        Proto.Error_r { code = Proto.Server_error; message })

let exec_fn t (c : cell) f () =
  match f () with
  | r -> finish t [ c ] ~run:c.run ~to_result:(fun _ -> r)
  | exception e ->
    let message = Printexc.to_string e in
    finish t [ c ] ~run:c.run ~to_result:(fun _ ->
        Proto.Error_r { code = Proto.Server_error; message })

(* Dispatch with [t.lock] held. *)
let dispatch_group t g =
  t.pending <- List.filter (fun g' -> g' != g) t.pending;
  t.dispatched <- t.dispatched + 1;
  t.c_runs <- t.c_runs + 1;
  Pool.submit t.pool (exec_group t g)

let dispatch_fn t c f =
  t.dispatched <- t.dispatched + 1;
  t.c_runs <- t.c_runs + 1;
  Pool.submit t.pool (exec_fn t c f)

let flush_due t ~now ~all =
  List.iter (dispatch_group t)
    (List.filter
       (fun g -> all || now -. g.g_created >= t.window)
       t.pending)

let rec ticker_loop t =
  let stop =
    locked t (fun () ->
        flush_due t ~now:(Unix.gettimeofday ()) ~all:t.stopping;
        t.ticker_stop)
  in
  if not stop then begin
    Thread.delay (Float.max 0.001 (t.window /. 4.));
    ticker_loop t
  end

let create ?jobs ?(window_ms = 10.) ?(max_queue = 64) () =
  (* A [Pool] with fewer than 2 workers only runs tasks when someone
     [wait]s, which a long-running server never does — so 2 is the
     floor, not an optimization. *)
  let jobs =
    max 2 (match jobs with Some j -> j | None -> Pool.default_jobs ())
  in
  let t =
    {
      lock = Mutex.create ();
      drained = Condition.create ();
      pool = Pool.create ~jobs;
      window = Float.max 0. window_ms /. 1000.;
      max_queue = max 1 max_queue;
      inflight = Hashtbl.create 64;
      pending = [];
      dispatched = 0;
      stopping = false;
      ticker_stop = false;
      ticker = None;
      c_coalesced = 0;
      c_batches = 0;
      c_batched = 0;
      c_max_batch = 0;
      c_runs = 0;
      c_timeouts = 0;
      c_shed = 0;
    }
  in
  t.ticker <- Some (Thread.create ticker_loop t);
  t

let jobs_in_system t = t.dispatched + List.length t.pending

let submit t ~key ~job =
  locked t (fun () ->
      if t.stopping then
        Error (Proto.Shutting_down, "server is shutting down")
      else
        match Hashtbl.find_opt t.inflight key with
        | Some cell ->
          (* Single-flight: join the pending or executing job. *)
          t.c_coalesced <- t.c_coalesced + 1;
          cell.run.requests <- cell.run.requests + 1;
          Ok cell
        | None ->
          if jobs_in_system t >= t.max_queue then begin
            t.c_shed <- t.c_shed + 1;
            Error
              ( Proto.Busy,
                Printf.sprintf "request queue full (%d jobs)" t.max_queue )
          end
          else begin
            let cell = job () in
            Hashtbl.replace t.inflight key cell;
            Ok cell
          end)

let batchable (s : Plan.spec) =
  match s.Plan.kind with
  | Plan.Grid | Plan.Uarch | Plan.Fused -> true
  | Plan.Stats | Plan.Trace -> false

let sweep t (spec : Plan.spec) =
  let key = Digests.key_of_spec spec in
  submit t ~key ~job:(fun () ->
      if batchable spec then begin
        (* Join the open group for this (bench, target), or open one —
           it executes when the window closes. *)
        let tname = spec.Plan.target.Repro_core.Target.name in
        let g =
          match
            List.find_opt
              (fun g -> g.g_bench = spec.Plan.bench && g.g_tname = tname)
              t.pending
          with
          | Some g -> g
          | None ->
            let g =
              {
                g_bench = spec.Plan.bench;
                g_tname = tname;
                g_target = spec.Plan.target;
                g_created = Unix.gettimeofday ();
                g_run = { requests = 0 };
                g_cells = [];
              }
            in
            t.pending <- g :: t.pending;
            g
        in
        let cell = { key; spec = Some spec; run = g.g_run; result = None } in
        g.g_cells <- cell :: g.g_cells;
        g.g_run.requests <- g.g_run.requests + 1;
        cell
      end
      else begin
        let run = { requests = 1 } in
        let cell = { key; spec = Some spec; run; result = None } in
        dispatch_fn t cell (fun () ->
            match cell.spec with
            | Some spec ->
              let t0 = Unix.gettimeofday () in
              let digest = Digests.of_spec spec in
              let ms = (Unix.gettimeofday () -. t0) *. 1000. in
              Proto.Sweep_r { spec; digest; batch = 0; ms }
            | None -> assert false);
        cell
      end)

let fn t ~key f =
  submit t ~key ~job:(fun () ->
      let cell = { key; spec = None; run = { requests = 1 }; result = None } in
      dispatch_fn t cell f;
      cell)

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
        waiting = List.length t.pending;
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
  flush_due t ~now:(Unix.gettimeofday ()) ~all:true;
  while t.dispatched > 0 do
    Condition.wait t.drained t.lock
  done;
  Mutex.unlock t.lock

let shutdown t =
  quiesce t;
  locked t (fun () -> t.ticker_stop <- true);
  Option.iter Thread.join t.ticker;
  t.ticker <- None;
  Pool.wait t.pool;
  Pool.shutdown t.pool
