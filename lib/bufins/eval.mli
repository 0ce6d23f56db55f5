(** From-scratch evaluation of buffer-insertion solutions.

    The algorithms maintain loads, slacks, currents and noise slacks
    incrementally; this module re-derives everything from the applied tree
    with the [Elmore] and [Noise] evaluators, giving an independent check
    (and the numbers reported by the experiments). *)

type report = {
  tree : Rctree.Tree.t;  (** the tree with buffers applied *)
  buffers : int;
  slack : float;  (** eq. (5) timing slack at the source *)
  worst_delay : float;
  noise_violations : (int * float * float) list;
      (** node, noise, margin: the leaves whose noise {!Noise.exceeds} the margin *)
  worst_noise_ratio : float;
      (** max over leaves of noise / margin; a leaf whose margin is zero,
          denormal or negative contributes [infinity] when it sees any
          noise and [0.] otherwise (never [nan]) *)
}

val apply : Rctree.Tree.t -> Rctree.Surgery.placement list -> report

val of_tree : Rctree.Tree.t -> report
(** Evaluate a tree as-is (e.g. the unbuffered baseline). *)

val noise_clean : report -> bool
