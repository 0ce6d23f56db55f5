(** Append-only solution-trace arena.

    Candidates no longer carry their solution lists: each candidate holds
    an integer {!handle} naming a node in a per-run arena, and the node
    records how the solution was built (buffer attached, branches joined,
    wire resized) together with the handles of its predecessors. Merging
    two candidates or attaching a buffer is then O(1) — one arena node —
    instead of an O(|solution|) list copy, and the placement list is
    materialised by a single {!placements} walk only for the winning root
    candidates.

    Handles are only meaningful against the arena that issued them; an
    arena lives for one optimizer run and is garbage once the winners
    have been reconstructed. *)

type handle = int
(** Index of a trace node in its arena. *)

type node =
  | Leaf  (** a bare sink candidate: empty solution *)
  | Buf of { node : int; dist : float; buffer : Tech.Buffer.t; pred : handle }
      (** [pred]'s solution plus one buffer at [dist] up edge [node] *)
  | Join of { left : handle; right : handle }
      (** branch merge: both sub-solutions, left placements first *)
  | Resize of { node : int; width : float; pred : handle }
      (** [pred]'s solution plus one wire-sizing decision *)

type arena

val create : ?capacity:int -> unit -> arena
(** Fresh arena holding only the shared {!leaf} node. *)

val leaf : handle
(** Handle of the empty solution; valid in every arena. *)

val size : arena -> int
(** Number of nodes currently in the arena (including the leaf). *)

val buf : arena -> node:int -> dist:float -> buffer:Tech.Buffer.t -> pred:handle -> handle
val join : arena -> left:handle -> right:handle -> handle
val resize : arena -> node:int -> width:float -> pred:handle -> handle

val placements : arena -> handle -> Rctree.Surgery.placement list
(** Reconstruct the solution's placement list, bottom-up order (the
    order the eager [sol] lists used to be reported in). One walk over
    the handle's ancestry; recursion depth is the Join nesting depth. *)

val sizes : arena -> handle -> (int * float) list
(** Reconstruct the wire-sizing decisions recorded by [Resize] nodes,
    in the order the eager [sizes] lists used to be reported. *)

val energy : arena -> handle -> float
(** Total switching energy of the solution, J: the sum of
    [buffer.energy] over every [Buf] node in the handle's ancestry.
    The reconstruction-side counterpart of the candidate's [p]
    coordinate — the energy-conservation fuzz oracle checks the two
    agree exactly. *)
