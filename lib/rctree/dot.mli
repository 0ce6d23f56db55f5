(** Graphviz export of routing trees, for inspecting topologies and
    buffer-insertion solutions. *)

val render : ?name:string -> Tree.t -> string
(** A [digraph] with one node per tree node (source = house shape,
    sinks = boxes labelled with name/margin, buffers = triangles with the
    cell name) and one edge per wire labelled with length and coupled
    current. Deterministic output, suitable for golden tests. *)
