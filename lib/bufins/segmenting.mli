(** Formulation-specific wire segmenting (the paper's footnote 3).

    Uniform segmenting (Alpert–Devgan [1]) spends candidate nodes evenly;
    the noise formulation says where they are actually needed: within a
    fresh buffer's maximal noise-safe span (Theorem 1), a handful of
    positions suffice, while beyond it no spacing of buffers can help.
    [noise_driven] sizes each wire's pieces as a fraction of the
    strongest buffer's Theorem-1 span for {e that wire's} per-unit
    coupling, so heavily coupled wires get dense candidates and quiet
    wires stay coarse — fewer candidates than uniform segmenting at equal
    solution quality (Ablation A'). *)

val noise_driven : lib:Tech.Buffer.t list -> Rctree.Tree.t -> Rctree.Tree.t
(** 0.34 of the safe span bounds each piece, giving about three
    candidate positions per span; wires without coupling get 1 mm
    pieces (delay-driven only). *)
