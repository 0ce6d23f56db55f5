(** STA-driven driver upsizing — the gate-sizing companion step the
    paper's introduction groups with buffer insertion among
    interconnect-driven optimizations.

    Greedy and safe: walk the instances on failing paths in criticality
    order, tentatively replace each with its next drive strength, and
    keep the change only if the design's worst slack strictly improves
    (an upsize also loads the upstream net, so it can lose). Runs before
    buffer insertion in [Flow.optimize ~sizing:true]. *)

val run : Tech.Process.t -> Design.t -> Design.t * int
(** Returns the resized design and the number of accepted replacements,
    after at most 3 full sweeps over the instances. *)
