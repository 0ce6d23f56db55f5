(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in the project flows through this module so
    that workload generation and property tests are bit-reproducible across
    runs and machines. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator seeded with [seed]. *)

val copy : t -> t
(** [copy r] is an independent generator with the same state as [r]. *)

val split : t -> t
(** [split r] advances [r] and returns a new generator whose stream is
    statistically independent of the rest of [r]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int r n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float r x] is uniform in [\[0, x)]. *)

val range : t -> float -> float -> float
(** [range r lo hi] is uniform in [\[lo, hi)]. Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin flip. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
