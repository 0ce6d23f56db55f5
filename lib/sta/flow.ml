type report = {
  before : Engine.t;
  after : Engine.t;
  optimized_nets : int;
  inserted_buffers : int;
  infeasible_nets : int;
}

let optimize ?(seg_len = 500e-6) ?(kmax = 16) ?(iterations = 2) process ~lib design =
  let before = Engine.analyze process design in
  let improved : (int, Rctree.Tree.t) Hashtbl.t = Hashtbl.create 32 in
  let touched = Hashtbl.create 32 in
  let infeasible = ref 0 in
  let current = ref before in
  (* the unbuffered Steiner trees of the design: every round
     re-installs its RATs in these, and they stand in for the nets not
     yet buffered, so each net's tree is built once *)
  let steiner =
    Array.map (fun (nt : Engine.net_timing) -> nt.Engine.tree) !current.Engine.nets
  in
  for _round = 1 to max 1 iterations do
    infeasible := 0;
    Array.iteri
      (fun nid (nt : Engine.net_timing) ->
        let worst_slack =
          Array.fold_left
            (fun acc ((_, r), (_, a)) -> Float.min acc (r -. a))
            infinity
            (Array.map2 (fun r a -> (r, a)) nt.Engine.sink_required nt.Engine.sink_arrival)
        in
        if nt.Engine.noise_violations > 0 || worst_slack < 0.0 then begin
          Hashtbl.replace touched nid ();
          (* RATs for the optimizer are measured from the net's driving
             pin; each round re-derives them from the latest STA *)
          let tree = Engine.install_rats steiner.(nid) (Engine.driver_rats nt) in
          match Bufins.Buffopt.optimize ~seg_len ~kmax Bufins.Buffopt.Buffopt ~lib tree with
          | Some r -> Hashtbl.replace improved nid r.Bufins.Buffopt.report.Bufins.Eval.tree
          | None -> incr infeasible
        end)
      !current.Engine.nets;
    let tree nid =
      Some (Option.value (Hashtbl.find_opt improved nid) ~default:steiner.(nid))
    in
    current := Engine.analyze ~trees:tree process design
  done;
  {
    before;
    after = !current;
    optimized_nets = Hashtbl.length touched;
    inserted_buffers = !current.Engine.total_buffers;
    infeasible_nets = !infeasible;
  }

let summary r =
  Printf.sprintf
    "wns %.0f -> %.0f ps | tns %.1f -> %.1f ns | noisy nets %d -> %d | %d nets optimized, %d buffers%s"
    (r.before.Engine.wns *. 1e12)
    (r.after.Engine.wns *. 1e12)
    (r.before.Engine.tns *. 1e9)
    (r.after.Engine.tns *. 1e9)
    r.before.Engine.noisy_nets r.after.Engine.noisy_nets r.optimized_nets r.inserted_buffers
    (if r.infeasible_nets > 0 then Printf.sprintf " (%d infeasible)" r.infeasible_nets else "")
