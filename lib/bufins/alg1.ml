module T = Rctree.Tree

type result = {
  placements : Rctree.Surgery.placement list;
  count : int;
  ns_at_source : float;
}

let run ~lib tree =
  let b = Tech.Lib.min_resistance lib in
  let sink_id, sink =
    match T.sinks tree with
    | [ s ] -> (
        match T.kind tree s with
        | T.Sink sk -> (s, sk)
        | T.Source _ | T.Internal | T.Buffered _ -> assert false)
    | _ -> invalid_arg "Alg1.run: tree must have exactly one sink"
  in
  let rec up v st acc =
    if v = T.root tree then (st, acc)
    else begin
      let w = T.wire_to tree v in
      let st, placed = Wireclimb.climb ~b ~node:v w st in
      up (T.parent tree v) st (List.rev_append placed acc)
    end
  in
  let st, acc = up sink_id { Wireclimb.i = 0.0; ns = sink.T.nm } [] in
  let r_drv = match T.kind tree (T.root tree) with
    | T.Source d -> d.T.r_drv
    | T.Sink _ | T.Internal | T.Buffered _ -> assert false
  in
  let st, acc =
    if r_drv *. st.Wireclimb.i <= st.Wireclimb.ns +. Candidate.noise_tol then (st, acc)
    else begin
      (* Step 5: the source itself is too noisy; decouple it with a buffer
         immediately below (only helps because r_b < r_drv) *)
      let top_child =
        match T.children tree (T.root tree) with [ c ] -> c | _ -> assert false
      in
      let w = T.wire_to tree top_child in
      ( { Wireclimb.i = 0.0; ns = b.Tech.Buffer.nm },
        { Rctree.Surgery.node = top_child; dist = w.T.length; buffer = b } :: acc )
    end
  in
  let placements = List.rev acc in
  { placements; count = List.length placements; ns_at_source = st.Wireclimb.ns }
