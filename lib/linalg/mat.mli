(** Dense square matrices with LU factorization.

    Backs the AC-moment analyses and the dense path of the MNA transient
    simulator (decks that are not RC forests, and the reference the
    forest solver is checked against): the step matrix is factored once
    per deck and back-substituted per time step.
    Partial pivoting keeps the factorization stable for the mildly
    asymmetric systems produced by companion models. *)

type t

val create : int -> t
(** [create n] is the [n x n] zero matrix. *)

val dim : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val add : t -> int -> int -> float -> unit
(** [add m i j v] accumulates [v] into entry [(i,j)] (MNA stamping). *)

val copy : t -> t

val mul_vec : t -> Vec.t -> Vec.t

type lu
(** An LU factorization with its pivot permutation. *)

exception Singular of int
(** Raised by {!lu_factor} when a pivot column is numerically zero; the
    payload is the elimination step. *)

val lu_factor : t -> lu
(** Factor a copy of the matrix; the argument is not modified. *)

val lu_solve : lu -> Vec.t -> Vec.t
(** Solve [A x = b] for a previously factored [A]. *)

val solve : t -> Vec.t -> Vec.t
(** One-shot [lu_factor] + [lu_solve]. *)
