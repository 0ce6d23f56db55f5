(** Time-domain source waveforms for driven circuit nodes.

    A waveform carries both its value and its exact time derivative; the
    transient engine needs the derivative to build the right-hand side
    contribution of capacitors tied to driven nodes. *)

type t

val value : t -> float -> float

val deriv : t -> float -> float

val settle : t -> float
(** The instant from which {!value} is constant: at every [t >= settle w],
    [value w t] returns the same float. [neg_infinity] for {!dc}, the
    end of the transition for {!ramp}, the last point for {!pwl}. *)

val dc : float -> t
(** Constant voltage. *)

val ramp : t0:float -> t_rise:float -> v0:float -> v1:float -> t
(** Linear transition from [v0] to [v1] starting at [t0] over [t_rise];
    constant outside the transition. Raises [Invalid_argument] unless
    [t_rise > 0.] (so a NaN rise time is refused too). *)

val pwl : (float * float) list -> t
(** Piecewise-linear waveform through the given (time, value) points,
    which must have strictly increasing times; constant before the first
    and after the last point. Raises [Invalid_argument] on an empty list
    or times that do not strictly increase (NaN included). *)
