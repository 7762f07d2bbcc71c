(* Order statistics over samples. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* First and third quartiles exactly as Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method) gives
   them, so spreads read the same here as in any other tool. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (0., 0.)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m
