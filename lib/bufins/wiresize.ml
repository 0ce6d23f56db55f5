module T = Rctree.Tree

let default_widths = [ 1.0; 2.0; 4.0 ]

let run ?(widths = default_widths) ~noise ~lib tree =
  (Dp.run ~widths ~noise ~mode:Dp.Single ~lib tree).Dp.best

let apply_sizes tree sizes =
  let width_of = Hashtbl.create 16 in
  List.iter
    (fun (v, w) ->
      if v < 0 || v >= T.node_count tree || v = T.root tree then
        invalid_arg "Wiresize.apply_sizes: bad node";
      Hashtbl.replace width_of v w)
    sizes;
  T.map_wires tree (fun v w ->
      match Hashtbl.find_opt width_of v with
      | Some width -> T.resize_wire w ~width
      | None -> w)

let evaluate tree (r : Dp.result) = Eval.apply (apply_sizes tree r.Dp.sizes) r.Dp.placements
