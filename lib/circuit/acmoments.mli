(** Transfer-function moments of a linear RC circuit — the core of
    AWE [25] / RICE [27] and of moment-matching noise analysis (the
    technique behind the paper's 3dnoise verifier).

    For each driven source [d], the transfer from its voltage to the
    free-node vector is [H_d(s) = (G + sC)^-1 (-G_fd - s C_fd)] with the
    Maclaurin expansion [H_d(s) = sum_k h_k s^k] computed by one
    factorization of [G] and one back-substitution per moment order —
    the leaf-first [LDL^T] of {!Forest} when the deck has no inductor
    rows and an acyclic free-node resistor graph (O(n) per order),
    dense LU otherwise:

    - [G h_0 = -G_fd]  (zero for purely capacitive coupling),
    - [G h_1 = -C h_0 - C_fd],
    - [G h_k = -C h_(k-1)] for [k >= 2]. *)

type t = {
  source : Netlist.node;  (** the driven node this expansion excites *)
  moments : float array array;  (** [moments.(k).(p)]: k-th moment at probe p *)
}

val transfer_moments :
  Netlist.t -> order:int -> probes:Netlist.node list -> t list
(** One entry per driven source, in source order. [order >= 0]; probing
    ground or a driven node yields zeros (its voltage is not part of the
    transfer). Raises [Linalg.Mat.Singular] if some free node lacks a
    resistive path to ground or a source. *)

val transfer_moments_dense :
  Netlist.t -> order:int -> probes:Netlist.node list -> t list
(** {!transfer_moments} on dense LU whatever the deck: the reference the
    forest path is checked against. *)
