(* [--compare A B]: two sets of recorded runs, A the parent and B the
   change, one row per workload and end-to-end metric.

   The verdict follows the rule the benchmark's bounds were set for:
   - a spread (interquartile range over median) wider than the bound
     leaves the metric unresolved, unless every run of B reads better
     than every run of A;
   - otherwise B is worse when its median is worse than A's by more
     than the bound;
   - B is better only when it wins at least nine tenths of the runs
     paired by seed, ties counting for neither, and the medians differ
     by more than A's interquartile range;
   - anything else is no change. *)

module Json = Repro_util.Json

type run = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let record_json ~workload ~seed ~trace result =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Int seed);
      ("trace", Json.Int (if trace then 1 else 0));
      ("result", result);
    ]

(* The untraced runs in a file of records. *)
let load file =
  In_channel.with_open_bin file In_channel.input_lines
  |> List.filter_map (fun line ->
         match Json.parse line with
         | Error _ -> None
         | Ok j -> (
           let r = Json.member "result" j in
           let int_of j k = Option.bind j (fun j -> Proc.get_int j k) in
           match
             ( Proc.get_str j "workload",
               Proc.get_int j "seed",
               Proc.get_int j "trace",
               int_of r "attempted",
               int_of r "failed",
               Option.bind r (Json.member "metrics") )
           with
           | Some workload, Some seed, Some 0, Some attempted, Some failed, Some (Json.Obj ms) ->
             let values =
               List.filter_map
                 (fun (k, v) -> Option.map (fun f -> (k, f)) (Proc.get_float v "value"))
                 ms
             in
             Some { workload; seed; attempted; failed; values }
           | _ -> None))

let verdict (m : Decl.metric) a b =
  let xs = List.map snd a and ys = List.map snd b in
  let ma = Summary.median xs and mb = Summary.median ys in
  let better_than x y = if m.lower_is_better then y < x else y > x in
  let worse_by = (if m.lower_is_better then mb -. ma else ma -. mb) /. Float.abs ma in
  let spread = Float.max (Summary.spread xs) (Summary.spread ys) in
  let pairs = List.filter_map (fun (s, y) -> Option.map (fun x -> (x, y)) (List.assoc_opt s a)) b in
  let wins = List.length (List.filter (fun (x, y) -> better_than x y) pairs) in
  let q1, q3 = Summary.quartiles xs in
  if spread > m.bound then
    if List.for_all (fun y -> List.for_all (fun x -> better_than x y) xs) ys then "better"
    else "unresolved"
  else if worse_by > m.bound then "worse"
  else if
    worse_by < 0.
    && pairs <> []
    && 10 * wins >= 9 * List.length pairs
    && Float.abs (mb -. ma) > q3 -. q1
  then "better"
  else "no change"

let fail_frac runs =
  let a = List.fold_left (fun s r -> s + r.attempted) 0 runs in
  let f = List.fold_left (fun s r -> s + r.failed) 0 runs in
  if a = 0 then 0. else float_of_int f /. float_of_int a

let run file_a file_b =
  let decl = Decl.load () in
  let ra = load file_a and rb = load file_b in
  Printf.printf "%-12s %-12s %14s %14s %9s %7s %8s %8s  %s\n" "workload" "metric"
    "median A" "median B" "delta" "bound" "spread A" "spread B" "verdict";
  List.iter
    (fun w ->
      let a = List.filter (fun r -> r.workload = w) ra in
      let b = List.filter (fun r -> r.workload = w) rb in
      if a = [] || b = [] then Printf.printf "%-12s (no runs in %s)\n" w (if a = [] then "A" else "B")
      else begin
        List.iter
          (fun (m : Decl.metric) ->
            let values rs =
              List.filter_map (fun r -> Option.map (fun v -> (r.seed, v)) (List.assoc_opt m.name r.values)) rs
            in
            let va = values a and vb = values b in
            if va <> [] && vb <> [] then begin
              let ma = Summary.median (List.map snd va) and mb = Summary.median (List.map snd vb) in
              Printf.printf "%-12s %-12s %14.4f %14.4f %+8.2f%% %6.1f%% %7.2f%% %7.2f%%  %s\n" w m.name ma mb
                (100. *. (mb -. ma) /. Float.abs ma)
                (100. *. m.bound)
                (100. *. Summary.spread (List.map snd va))
                (100. *. Summary.spread (List.map snd vb))
                (verdict m va vb)
            end)
          decl.end_to_end;
        let fa = fail_frac a and fb = fail_frac b in
        Printf.printf "%-12s %-12s %14.6f %14.6f %+9.6f  (runs: %d A, %d B)\n" w "fail_frac" fa fb (fb -. fa)
          (List.length a) (List.length b)
      end)
    decl.workloads
