(* Machine-speed calibration. The reference box is a few cores of a
   shared host, and its speed drifts: a neighbour on the same physical
   core can slow dense float work and allocation-heavy list work by
   half or more for tens of seconds at a time, more than a run lasts.
   Two benchmark-owned kernels shaped like the program's hot paths are
   timed between ops:

   - [lu]: a dense LU factorization in a row-major float array, the
     idiom of Linalg.Mat that Noisesim's solves run on;
   - [frontier]: build, sort and prune lists of (cap, slack) pairs, the
     allocation pattern of the DP's candidate lists.

   The kernels are fixed code and fixed data, and call nothing of the
   program's, so their time moves only with the machine. [factor ()] is the latest sample's time over the
   kernels' nominal time on a quiet reference box: an op's time divided
   by it reads in reference-box seconds. *)

(* a fixed pseudo-random sequence in [0, 1): a 31-bit LCG *)
let uniform seed =
  let x = ref seed in
  fun () ->
    x := ((!x * 1103515245) + 12345) land 0x7fffffff;
    float_of_int !x /. 2147483648.0

let lu_n = 200

let lu_matrix =
  let u = uniform 7 in
  Array.init (lu_n * lu_n) (fun k ->
      if k / lu_n = k mod lu_n then float_of_int lu_n else (2.0 *. u ()) -. 1.0)

let lu () =
  let n = lu_n in
  let a = Array.copy lu_matrix in
  for k = 0 to n - 1 do
    let pivot = a.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let f = a.((i * n) + k) /. pivot in
      a.((i * n) + k) <- f;
      for j = k + 1 to n - 1 do
        a.((i * n) + j) <- a.((i * n) + j) -. (f *. a.((k * n) + j))
      done
    done
  done;
  a.((n * n) - 1)

let frontier () =
  let u = uniform 11 in
  let pairs n =
    List.init n (fun _ ->
        let c = u () in
        (c, u ()))
  in
  let prune l =
    let best = ref neg_infinity in
    List.filter
      (fun (_, q) ->
        if q > !best then begin
          best := q;
          true
        end
        else false)
      (List.sort (fun (c1, _) (c2, _) -> Float.compare c1 c2) l)
  in
  let a = pairs 400 and b = pairs 40 in
  List.length
    (prune (List.concat_map (fun (c1, q1) -> List.map (fun (c2, q2) -> (c1 +. c2, Float.min q1 q2)) b) a))

(* {1 Sampling} *)

type kernel = Lu | Frontier

(* the kernels' times on a quiet reference box, s *)
let nominal_s = function Lu -> 0.0040 | Frontier -> 0.0055

let run = function
  | Lu -> ignore (Sys.opaque_identity (lu ()))
  | Frontier -> ignore (Sys.opaque_identity (frontier ()))

(* the kernels each sample times: those of the workload's mixes *)
let kernels = ref []

(* samples are taken only while [active], at most one per [interval_s] *)
let active = ref false
let interval_s = 0.1
let samples = ref [] (* (time, [(kernel, time over nominal)]), newest first *)
let last = ref neg_infinity
let spent_s = ref 0.0 (* wall time spent sampling *)

let sample () =
  let t0 = Util.Clock.now () in
  let f =
    List.map
      (fun k ->
        let (), dt = Util.Clock.timed (fun () -> run k) in
        (k, dt /. nominal_s k))
      !kernels
  in
  let t1 = Util.Clock.now () in
  samples := (t1, f) :: !samples;
  last := t1;
  spent_s := !spent_s +. (t1 -. t0)

let tick () = if !active && Util.Clock.now () -. !last >= interval_s then sample ()

(* [factor mix] maps a time to the machine's slowdown then, for work
   whose share of each kind is [mix] (weights that sum to 1): the median
   of the five samples nearest to it *)
let factor mix =
  let slowdown ratios = List.fold_left (fun a (k, w) -> a +. (w *. List.assoc k ratios)) 0.0 mix in
  let a = Array.of_list (List.rev !samples) in
  let n = Array.length a in
  if n = 0 then fun _ -> 1.0
  else fun t ->
    (* the first sample at or after [t] *)
    let rec search lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if fst a.(mid) < t then search (mid + 1) hi else search lo mid
    in
    let i = search 0 n in
    let lo = max 0 (min (i - 2) (n - 5)) in
    let near = List.init (min 5 n) (fun k -> slowdown (snd a.(lo + k))) in
    Util.Stats.percentile near 50.0
