(** Buffer libraries.

    The paper's experiments use a library of 11 buffers — 5 inverting and 6
    non-inverting — of varying power levels. [default_library] provides a
    plausible stand-in spanning roughly a 20x drive range (the IBM cell
    library is proprietary; see DESIGN.md, substitution 3). *)

val default_library : Buffer.t list
(** 11 buffers: 6 non-inverting ([bufx1] .. [bufx32]) and 5 inverting
    ([invx1] .. [invx16]), all with a 0.8 V input noise margin. *)

val non_inverting : Buffer.t list -> Buffer.t list

val inverting : Buffer.t list -> Buffer.t list

val min_resistance : Buffer.t list -> Buffer.t
(** The strongest buffer (smallest [r_b]) of a non-empty library; used by
    Algorithms 1 and 2, whose optimal solutions only ever need it
    (Section III-B). *)

val find : Buffer.t list -> string -> Buffer.t option
(** Look a buffer up by name. *)

type prepared = {
  bufs : Buffer.t array;  (** the library, in its original list order *)
  by_r : Buffer.t array;  (** the same buffers sorted by [r_b] ascending *)
  r_min : float;  (** smallest drive resistance in the library, ohm *)
  c_in : float array;  (** attach parameters in [bufs] order, unboxed *)
  r_b : float array;
  d_b : float array;
  nm : float array;
  inverting : bool array;
  energy : float array;  (** per-insertion switching energy in [bufs] order, J *)
}
(** A buffer library preprocessed once per optimizer run: the DP inner
    loops iterate the unboxed parameter arrays instead of chasing a
    [Buffer.t] record per attach, [r_min] feeds the predictive-pruning
    upstream-resistance bound ({!Rctree.Upbound}), and [by_r] gives the
    drive-strength order Li–Shi-style per-type reasoning wants. [bufs]
    keeps the original list order because candidate tie-breaking is
    defined by library iteration order. *)

val prepare : Buffer.t list -> prepared
(** Raises [Invalid_argument] on an empty library. *)
