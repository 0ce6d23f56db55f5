module T = Rctree.Tree

type oracle =
  | Vangin_vs_brute
  | Alg3_vs_brute
  | Alg1_vs_alg2
  | Alg3_vs_vangin
  | Buffopt_problem3
  | Dp_invariants
  | Dp_trace
  | Pred_vs_sweep
  | Incremental_vs_scratch
  | Parser_roundtrip
  | Power_vs_brute
  | Energy_conservation
  | Power_monotonicity
  | Transient_tree_vs_dense
  | Count_front

let all_oracles =
  [
    Vangin_vs_brute;
    Alg3_vs_brute;
    Alg1_vs_alg2;
    Alg3_vs_vangin;
    Buffopt_problem3;
    Dp_invariants;
    Dp_trace;
    Pred_vs_sweep;
    Incremental_vs_scratch;
    Parser_roundtrip;
    Power_vs_brute;
    Energy_conservation;
    Power_monotonicity;
    Transient_tree_vs_dense;
    Count_front;
  ]

let oracle_name = function
  | Vangin_vs_brute -> "vangin-vs-brute"
  | Alg3_vs_brute -> "alg3-vs-brute"
  | Alg1_vs_alg2 -> "alg1-vs-alg2"
  | Alg3_vs_vangin -> "alg3-vs-vangin"
  | Buffopt_problem3 -> "buffopt-problem3"
  | Dp_invariants -> "dp-invariants"
  | Dp_trace -> "dp-trace"
  | Pred_vs_sweep -> "pred-vs-sweep"
  | Incremental_vs_scratch -> "incremental-vs-scratch"
  | Parser_roundtrip -> "parser"
  | Power_vs_brute -> "power-vs-brute"
  | Energy_conservation -> "energy-conservation"
  | Power_monotonicity -> "power-monotonicity"
  | Transient_tree_vs_dense -> "transient-tree-vs-dense"
  | Count_front -> "count-front"

let oracle_of_name s = List.find_opt (fun o -> oracle_name o = s) all_oracles

type t = {
  tree : T.t;
  lib : Tech.Buffer.t list;
  seg_len : float;
  oracle : oracle;
}

let make ~tree ~lib ~seg_len oracle =
  if lib = [] then invalid_arg "Instance.make: empty buffer library";
  if not (seg_len > 0.0) then invalid_arg "Instance.make: seg_len must be positive";
  if T.buffer_count tree > 0 then
    invalid_arg "Instance.make: instances are unbuffered trees";
  { tree; lib; seg_len; oracle }

let sink_count t = List.length (T.sinks t.tree)

let size t = T.node_count t.tree + List.length t.lib

(* the smallest wire [halve_wire]s will keep shrinking: below this the
   instance is electrically trivial and further halving only burns the
   shrink budget *)
let min_len = 10e-6

(* Rebuild the tree keeping only the sinks [keep_sink] accepts (and the
   nodes above them), with every surviving parent wire passed through
   [map_wire]. Returns [None] when no sink survives. *)
let rebuild ?(keep_sink = fun _ -> true) ?(map_wire = fun _ w -> w) t0 =
  let tree = t0.tree in
  let keep = Array.make (T.node_count tree) false in
  List.iter (fun s -> if keep_sink s then keep.(s) <- true) (T.sinks tree);
  (* postorder lists children before parents, so one sweep propagates
     "has a kept sink below" to the root *)
  List.iter
    (fun v ->
      if keep.(v) then begin
        let p = T.parent tree v in
        if p >= 0 then keep.(p) <- true
      end)
    (T.postorder tree);
  if not (keep.(T.root tree)) then None
  else begin
    let b = Rctree.Builder.create () in
    let rec add v parent =
      let id =
        match T.kind tree v with
        | T.Source d -> Rctree.Builder.add_source b ~r_drv:d.T.r_drv ~d_drv:d.T.d_drv
        | T.Sink s ->
            Rctree.Builder.add_sink b ~parent
              ~wire:(map_wire v (T.wire_to tree v))
              ~name:s.T.sname ~c_sink:s.T.c_sink ~rat:s.T.rat ~nm:s.T.nm
        | T.Internal ->
            Rctree.Builder.add_internal b ~parent
              ~wire:(map_wire v (T.wire_to tree v))
              ~feasible:(T.feasible tree v) ()
        | T.Buffered _ -> invalid_arg "Instance: buffered trees are not instances"
      in
      List.iter (fun c -> if keep.(c) then add c id) (T.children tree v)
    in
    add (T.root tree) (-1);
    Some { t0 with tree = Rctree.Builder.finish b }
  end

let drop_sink t k =
  let sinks = T.sinks t.tree in
  if k < 0 || k >= List.length sinks || List.length sinks <= 1 then None
  else
    let victim = List.nth sinks k in
    rebuild ~keep_sink:(fun s -> s <> victim) t

let drop_buffer t k =
  if k < 0 || k >= List.length t.lib || List.length t.lib <= 1 then None
  else Some { t with lib = List.filteri (fun i _ -> i <> k) t.lib }

let halve_wires t =
  let longest =
    List.fold_left
      (fun acc v ->
        if v = T.root t.tree then acc else Float.max acc (T.wire_to t.tree v).T.length)
      0.0
      (List.init (T.node_count t.tree) (fun i -> i))
  in
  if longest < min_len then None
  else rebuild ~map_wire:(fun _ w -> T.scale_wire w 0.5) t

let halve_wire t v =
  if v <= 0 || v >= T.node_count t.tree || v = T.root t.tree then None
  else if (T.wire_to t.tree v).T.length < min_len then None
  else rebuild ~map_wire:(fun u w -> if u = v then T.scale_wire w 0.5 else w) t
