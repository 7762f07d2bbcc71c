(* Work-queue scheduler over OCaml 5 domains.

   A pool owns a queue of thunks and [jobs] worker domains blocked on a
   condition variable.  [wait] blocks the submitting thread until the
   queue drains and every worker is idle, then re-raises the first task
   exception, if any.  With [jobs <= 1] no domain is spawned: tasks run
   inline in submission order at [wait], which is exactly the historical
   serial execution. *)

type t = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work : Condition.t;  (* signalled when a task is enqueued or at shutdown *)
  idle : Condition.t;  (* signalled when the pool drains *)
  mutable active : int;
  mutable stop : bool;
  mutable errors : exn list;
  mutable domains : unit Domain.t list;
}

let record_error t e =
  Mutex.protect t.lock (fun () -> t.errors <- e :: t.errors)

let rec worker t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stop do
    Condition.wait t.work t.lock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.lock
  else begin
    let task = Queue.pop t.queue in
    t.active <- t.active + 1;
    Mutex.unlock t.lock;
    (try task () with e -> record_error t e);
    Mutex.lock t.lock;
    t.active <- t.active - 1;
    if Queue.is_empty t.queue && t.active = 0 then Condition.broadcast t.idle;
    Mutex.unlock t.lock;
    worker t
  end

let create ~jobs =
  let t =
    {
      jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      active = 0;
      stop = false;
      errors = [];
      domains = [];
    }
  in
  if jobs > 1 then
    t.domains <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker t));
  t

let submit t task =
  Mutex.protect t.lock (fun () ->
      Queue.push task t.queue;
      Condition.signal t.work)

let raise_pending t =
  match
    Mutex.protect t.lock (fun () ->
        let es = t.errors in
        t.errors <- [];
        es)
  with
  | [] -> ()
  | es -> raise (List.nth es (List.length es - 1))

let wait t =
  if t.jobs <= 1 then begin
    let rec drain () =
      match Mutex.protect t.lock (fun () -> Queue.take_opt t.queue) with
      | None -> ()
      | Some task ->
        (try task () with e -> record_error t e);
        drain ()
    in
    drain ()
  end
  else begin
    Mutex.lock t.lock;
    while not (Queue.is_empty t.queue && t.active = 0) do
      Condition.wait t.idle t.lock
    done;
    Mutex.unlock t.lock
  end;
  raise_pending t

let shutdown t =
  Mutex.protect t.lock (fun () ->
      t.stop <- true;
      Condition.broadcast t.work);
  List.iter Domain.join t.domains;
  t.domains <- []

let map_on t f xs =
  let arr = Array.of_list xs in
  let out = Array.make (Array.length arr) None in
  Array.iteri (fun i x -> submit t (fun () -> out.(i) <- Some (f x))) arr;
  wait t;
  Array.to_list (Array.map Option.get out)

let map ?pool ?(jobs = 1) f xs =
  match pool with
  | Some t -> map_on t f xs
  | None ->
    let jobs = max 1 (min jobs (List.length xs)) in
    if jobs <= 1 then List.map f xs
    else begin
      let t = create ~jobs in
      Fun.protect ~finally:(fun () -> shutdown t) (fun () -> map_on t f xs)
    end

let default_jobs () =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)
  | None -> min 16 (max 1 (Domain.recommended_domain_count ()))

let run_plan ?jobs plan =
  let specs = Plan.dedup plan in
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  (* One domain per spec at most.  No chunk hook: a sweep streams from
     its execution and steps each chunk as it fills, so spare domains
     would have no chunk batch to share. *)
  let t = create ~jobs:(min jobs (max 1 (List.length specs))) in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      List.iter (fun s -> submit t (fun () -> Plan.execute s)) specs;
      wait t)
