let with_cell (d : Design.t) i cell =
  let instances = Array.copy d.Design.instances in
  instances.(i) <- { instances.(i) with Design.cell };
  { d with Design.instances = instances }

(* worst slack over the sinks of the instance's output net *)
let output_slack (timing : Engine.t) net_of i =
  let nt = timing.Engine.nets.(net_of (Design.From_inst i)) in
  Array.fold_left
    (fun acc ((_, r), (_, a)) -> Float.min acc (r -. a))
    infinity
    (Array.map2 (fun r a -> (r, a)) nt.Engine.sink_required nt.Engine.sink_arrival)

let run ?(max_passes = 3) process design =
  (* resizing swaps cells only, so the nets' drivers never change *)
  let net_of = Design.source_nets design in
  let design = ref design in
  let replacements = ref 0 in
  let improved_this_pass = ref true in
  let pass = ref 0 in
  while !improved_this_pass && !pass < max_passes do
    incr pass;
    improved_this_pass := false;
    let timing = ref (Engine.analyze process !design) in
    (* most critical drivers first *)
    let order =
      List.init (Array.length !design.Design.instances) (fun i -> i)
      |> List.map (fun i -> (output_slack !timing net_of i, i))
      |> List.sort compare
      |> List.map snd
    in
    List.iter
      (fun i ->
        if output_slack !timing net_of i < 0.0 then
          match Cell.upsize !design.Design.instances.(i).Design.cell with
          | None -> ()
          | Some bigger ->
              let candidate = with_cell !design i bigger in
              let t' = Engine.analyze process candidate in
              if t'.Engine.wns > !timing.Engine.wns +. 1e-15 then begin
                design := candidate;
                timing := t';
                incr replacements;
                improved_this_pass := true
              end)
      order
  done;
  (!design, !replacements)
