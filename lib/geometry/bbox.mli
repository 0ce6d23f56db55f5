(** Axis-aligned bounding boxes over {!Point.t}. *)

type t = { xmin : int; ymin : int; xmax : int; ymax : int }

val of_points : Point.t list -> t
(** Bounding box of a non-empty point list. *)

val half_perimeter : t -> int
(** The HPWL lower bound on net wirelength. *)

val contains : t -> Point.t -> bool
