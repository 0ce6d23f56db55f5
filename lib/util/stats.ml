type t = {
  mutable n : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable lo : float;
  mutable hi : float;
}

let create () = { n = 0; sum = 0.0; sumsq = 0.0; lo = infinity; hi = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sumsq <- t.sumsq +. (x *. x);
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let count t = t.n

let total t = t.sum

let mean t = if t.n = 0 then nan else t.sum /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else
    let n = float_of_int t.n in
    let v = (t.sumsq /. n) -. ((t.sum /. n) ** 2.0) in
    sqrt (Float.max v 0.0)

let min t = t.lo

let max t = t.hi

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let percentile xs p =
  assert (xs <> [] && p >= 0.0 && p <= 100.0);
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = rank -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
