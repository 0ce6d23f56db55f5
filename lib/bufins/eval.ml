type report = {
  tree : Rctree.Tree.t;
  buffers : int;
  slack : float;
  worst_delay : float;
  noise_violations : (int * float * float) list;
  worst_noise_ratio : float;
}

(* A zero (or denormal, or negative) margin makes [noise /. m] overflow
   to inf — or produce nan when the noise is also zero, and a nan
   poisons the Float.max fold. Define the ratio directly there: any
   noise against a degenerate margin is an unbounded violation; no
   noise satisfies even a zero margin. *)
let noise_ratio noise m =
  if m >= Float.min_float then noise /. m else if noise > 0.0 then Float.infinity else 0.0

let of_tree tree =
  let leaves = Noise.leaf_noise tree in
  {
    tree;
    buffers = Rctree.Tree.buffer_count tree;
    slack = Elmore.slack tree;
    worst_delay = Elmore.worst_delay tree;
    noise_violations =
      List.filter (fun (_, noise, margin) -> Noise.exceeds ~noise ~margin) leaves;
    worst_noise_ratio =
      List.fold_left (fun acc (_, noise, m) -> Float.max acc (noise_ratio noise m)) 0.0 leaves;
  }

let apply tree placements = of_tree (Rctree.Surgery.apply tree placements)

let noise_clean r = r.noise_violations = []
