(** Buffer (repeater) cell model.

    The paper uses the linear gate model of eq. (3): a buffer [b] has input
    capacitance [c_in], intrinsic output resistance [r_b], intrinsic delay
    [d_b], and a tolerable input noise margin [nm] (Section II). Buffers may
    be inverting (Lillis et al. [18]); polarity is tracked by the dynamic
    programs. All values are SI: farads, ohms, seconds, volts.

    Each buffer additionally carries a per-insertion switching [energy]
    (joules), the cost coordinate of the power-aware DP (DESIGN.md §16).
    Libraries without an explicit annotation get a drive-class default. *)

type t = {
  name : string;
  inverting : bool;
  c_in : float;  (** input pin capacitance, F *)
  r_b : float;  (** output (driving) resistance, ohm *)
  d_b : float;  (** intrinsic delay, s *)
  nm : float;  (** tolerable input noise margin, V *)
  energy : float;  (** per-insertion switching energy, J *)
}

val make :
  name:string ->
  inverting:bool ->
  c_in:float ->
  r_b:float ->
  d_b:float ->
  nm:float ->
  ?energy:float ->
  unit ->
  t
(** [energy] defaults to the drive-class [c_in * Vdd^2] with Vdd = 1.2 V,
    monotone in drive strength. *)

val equal : t -> t -> bool

val gate_delay : t -> load:float -> float
(** Eq. (3): [d_b + r_b *. load]. *)

val pp : Format.formatter -> t -> unit
