module T = Rctree.Tree

type result = {
  instance : Instance.t;
  message : string;
  steps : int;
  evals : int;
}

(* All single edits of [inst], biggest reductions first: dropping a sink
   removes whole subtrees, so try every sink before touching the library
   or the wires. *)
let edits inst =
  let sinks = Instance.sink_count inst in
  let lib = List.length inst.Instance.lib in
  let wires =
    List.filter (fun v -> v <> T.root inst.Instance.tree)
      (List.init (T.node_count inst.Instance.tree) (fun i -> i))
  in
  List.concat
    [
      List.init sinks (fun k () -> Instance.drop_sink inst k);
      List.init lib (fun k () -> Instance.drop_buffer inst k);
      [ (fun () -> Instance.halve_wires inst) ];
      List.map (fun v () -> Instance.halve_wire inst v) wires;
    ]

(* oracle calls, at most *)
let max_evals = 300

let shrink ~fails inst ~message =
  let evals = ref 0 in
  let steps = ref 0 in
  let current = ref inst in
  let current_msg = ref message in
  let progress = ref true in
  while !progress && !evals < max_evals do
    progress := false;
    let rec try_edits = function
      | [] -> ()
      | edit :: rest -> (
          if !evals >= max_evals then ()
          else
            match edit () with
            | None -> try_edits rest
            | Some smaller -> (
                incr evals;
                match fails smaller with
                | Some msg ->
                    current := smaller;
                    current_msg := msg;
                    incr steps;
                    progress := true
                    (* restart from the strongest edits on the new instance *)
                | None -> try_edits rest))
    in
    try_edits (edits !current)
  done;
  { instance = !current; message = !current_msg; steps = !steps; evals = !evals }
