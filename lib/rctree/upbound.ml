(* Per-node lower bounds on the resistance any candidate must still see
   between this node and the gate that will eventually decouple it — the
   quantity Li & Shi's predictive pruning multiplies a load difference by
   to decide whether a slack gap is already unrecoverable. *)

(* Top-down: a node's bound is the cheapest way a unit of extra load
   here can stop costing slack — either a buffer is inserted at this
   very node (>= the strongest library drive), or the load is carried
   up the parent wire (>= its widest-wire resistance) to wherever the
   parent's bound decouples it. The driver itself closes the recursion
   at the root. [cs] are [v]'s children still to do; no closure, so a
   DP run's allocation does not grow with the tree. *)
let rec down tree ~r_gate_min ~max_width (bound : float array) v = function
  | [] -> ()
  | c :: cs ->
      let w = Tree.wire_to tree c in
      let u = (w.Tree.res /. max_width) +. bound.(v) in
      let insertable =
        match Tree.kind tree c with
        | Tree.Internal -> Tree.feasible tree c
        | Tree.Source _ | Tree.Sink _ | Tree.Buffered _ -> false
      in
      (* [Float.min r_gate_min u], NaN included, r_gate_min being > 0 *)
      bound.(c) <- (if insertable && u >= r_gate_min then r_gate_min else u);
      down tree ~r_gate_min ~max_width bound c (Tree.children tree c);
      down tree ~r_gate_min ~max_width bound v cs

let compute tree ~r_gate_min ~max_width =
  if not (r_gate_min > 0.0) then invalid_arg "Upbound.compute: r_gate_min must be > 0";
  if not (max_width >= 1.0) then invalid_arg "Upbound.compute: max_width must be >= 1";
  let n = Tree.node_count tree in
  let bound = Array.make n infinity in
  let root = Tree.root tree in
  let r_drv =
    match Tree.kind tree root with
    | Tree.Source d -> d.Tree.r_drv
    | Tree.Sink _ | Tree.Internal | Tree.Buffered _ ->
        invalid_arg "Upbound.compute: tree has no source at the root"
  in
  bound.(root) <- r_drv;
  down tree ~r_gate_min ~max_width bound root (Tree.children tree root);
  bound
