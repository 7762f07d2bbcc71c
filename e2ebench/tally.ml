(* One benchmark run's account: operations attempted and failed, the
   metrics measured so far, and the run's time budget.

   A run must end within [budget_s] of its start, so every child and
   server gets a deadline of four times its expected wall time, cut
   short by whatever remains of the budget. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  metrics : (string, float) Hashtbl.t;
}

let create () = { attempted = 0; failed = 0; metrics = Hashtbl.create 64 }

let op ?(n = 1) t ok =
  t.attempted <- t.attempted + n;
  if not ok then t.failed <- t.failed + n

let fail t what =
  Printf.eprintf "e2e: FAILED %s\n%!" what;
  op t false

let set t name v = Hashtbl.replace t.metrics name v
let get t name = Hashtbl.find_opt t.metrics name
let started = Unix.gettimeofday ()
let budget_s = 165.

let remaining () = started +. budget_s -. Unix.gettimeofday ()
let deadline_for expected_s = Float.min (4. *. expected_s) (remaining ())

let sum = List.fold_left ( +. ) 0.

(* The latency metrics shared by every workload, from per-operation
   wall times in seconds.  [busy_s] is the time the callers spent
   waiting on operations. *)
let set_latency t walls ~busy_s =
  set t "p50_ms" (1000. *. Summary.median walls);
  set t "p90_ms" (1000. *. Summary.quantile 0.9 walls);
  set t "ops_per_s"
    (if busy_s > 0. then float_of_int (List.length walls) /. busy_s else 0.)
