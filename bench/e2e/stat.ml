(* Order statistics with the same interpolation as Python's
   [statistics.quantiles(data, n, method="exclusive")], so quartiles
   printed here match the ones any external check computes from the same
   samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* The [i]-th of the [n - 1] cut points dividing sorted [a] into [n]
   groups of equal probability. *)
let cut a ~n i =
  let len = Array.length a in
  if len = 0 then nan
  else if len = 1 then a.(0)
  else
    let m = len + 1 in
    let j = max 1 (min (len - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n

let median xs = cut (sorted xs) ~n:2 1

(* (first quartile, median, third quartile). *)
let quartiles xs =
  let a = sorted xs in
  (cut a ~n:4 1, cut a ~n:4 2, cut a ~n:4 3)

(* Interquartile range as a share of the median (0 when undefined). *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. || Float.is_nan q2 then 0. else (q3 -. q1) /. Float.abs q2
