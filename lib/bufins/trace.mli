(** Append-only solution-trace arena.

    Candidates do not carry their solution lists: each candidate holds
    an integer {!handle} naming a node in an arena, and the node
    records how the solution was built (buffer attached, branches
    joined, wire resized) together with the handles of its
    predecessors. Merging two candidates or attaching a buffer is then
    O(1) — one arena node — instead of an O(|solution|) list copy, and
    the placement list is materialised by a single {!placements} walk
    only for the winning root candidates.

    The nodes are unboxed: an arena is a table of fixed-size chunks,
    each a float Bigarray holding 128 nodes in three columns (kind,
    buffer index and tree node; predecessor or left handle; right
    handle, distance or width), so growth allocates one chunk, never a
    copy,
    and the nodes lie outside the OCaml heap: the GC never scans them,
    and an arena kept from run to run does not raise the heap size the
    major GC paces itself by. A [Buf] node names its buffer by a small
    index into the arena's own buffer table. A fresh arena allocates
    nothing until its first node, and {!reset} empties one for reuse
    without freeing its chunks.

    Handles are only meaningful against the arena that issued them, and
    only until its next {!reset}. *)

type handle = int
(** Index of a trace node in its arena. *)

type arena

val create : unit -> arena
(** Fresh arena holding only the shared {!leaf} node. *)

val reset : arena -> unit
(** Forget every node but the leaf and every interned buffer; the
    chunks stay allocated for the next nodes. Every handle the arena
    issued before is dangling afterwards. *)

val header_words : arena -> float
(** The minor words the arena's chunk allocations have taken since its
    creation (each chunk's small Bigarray header): {!Dp.run} leaves
    them out of its [minor_words], which then does not depend on how
    far earlier runs grew a reused arena. *)

val leaf : handle
(** Handle of the empty solution; valid in every arena. *)

val size : arena -> int
(** Number of nodes currently in the arena (including the leaf). *)

val intern : arena -> Tech.Buffer.t -> int
(** The buffer's index in the arena's buffer table, added if new: a
    buffer physically or structurally equal to one already there gets
    that one's index. *)

val buf : arena -> node:int -> dist:float -> buffer:Tech.Buffer.t -> pred:handle -> handle
(** [pred]'s solution plus one buffer at [dist] up edge [node]. Node
    ids must be below 2{^32}, and an arena holds at most 2{^18}
    distinct buffers ([Invalid_argument] otherwise). *)

val buf_ix : arena -> node:int -> dist:float -> ix:int -> pred:handle -> handle
(** {!buf} with the buffer given by its {!intern}ed index. *)

val join : arena -> left:handle -> right:handle -> handle
(** Both sub-solutions, left placements first. *)

val resize : arena -> node:int -> width:float -> pred:handle -> handle
(** [pred]'s solution plus one wire-sizing decision. *)

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
