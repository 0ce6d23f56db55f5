(** Small descriptive-statistics helpers used by the experiment harness. *)

type t
(** Accumulator over a stream of floats. *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val total : t -> float

val mean : t -> float
(** Mean of the samples seen so far; [nan] when empty. *)

val stddev : t -> float
(** Population standard deviation; [0.] for fewer than two samples. *)

val min : t -> float
(** Smallest sample; [infinity] when empty. *)

val max : t -> float
(** Largest sample; [neg_infinity] when empty. *)

val of_list : float list -> t

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]]: linear-interpolated
    percentile of a non-empty list. *)
