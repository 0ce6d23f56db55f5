module T = Rctree.Tree

type leaf_report = { leaf : int; peak : float; metric : float; margin : float }

type report = {
  leaves : leaf_report list;
  sim_violations : int;
  metric_violations : int;
  bound_ok : bool;
}

let of_peaks tree peaks =
  let metric_at = Hashtbl.create 16 in
  List.iter (fun (v, noise, _) -> Hashtbl.replace metric_at v noise) (Noise.leaf_noise tree);
  let leaves =
    List.map
      (fun (leaf, peak) ->
        {
          leaf;
          peak;
          metric = (match Hashtbl.find_opt metric_at leaf with Some x -> x | None -> 0.0);
          margin = Noise.margin tree leaf;
        })
      peaks
  in
  let count f = List.length (List.filter f leaves) in
  {
    leaves;
    sim_violations = count (fun l -> l.peak > l.margin +. 1e-9);
    metric_violations = count (fun l -> l.metric > l.margin +. 1e-9);
    bound_ok = List.for_all (fun l -> l.metric >= l.peak -. 1e-4) leaves;
  }

let net ?config ?density p tree =
  let cfg = match config with Some c -> c | None -> Deck.default_config p in
  of_peaks tree
    (List.concat_map
       (fun g -> Deck.peak_noise cfg (Deck.of_stage ?density cfg tree ~gate:g))
       (T.gates tree))

let is_clean r = r.sim_violations = 0
