module T = Rctree.Tree

type net_timing = {
  tree : Rctree.Tree.t;
  sink_arrival : (Design.sink * float) array;
  sink_required : (Design.sink * float) array;
  source_arrival : float;
  noise_violations : int;
}

type t = {
  nets : net_timing array;
  wns : float;
  tns : float;
  noisy_nets : int;
  total_buffers : int;
}

let sink_name k = Printf.sprintf "k%d" k

let sink_index name =
  match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
  | Some k when String.length name > 1 && name.[0] = 'k' -> k
  | Some _ | None -> invalid_arg "Engine: foreign sink name in supplied tree"

let net_to_steiner ?rats (design : Design.t) nid =
  let net = design.Design.nets.(nid) in
  let r_drv, d_drv =
    match net.Design.source with
    | Design.From_pi p -> (design.Design.pis.(p).Design.r_pad, design.Design.pis.(p).Design.d_pad)
    | Design.From_inst i ->
        let c = design.Design.instances.(i).Design.cell in
        (c.Cell.r_out, c.Cell.d_intr)
  in
  let pins =
    Array.to_list
      (Array.mapi
         (fun k s ->
           let at = Design.sink_location design s in
           let c_sink, nm =
             match s with
             | Design.To_po p -> (design.Design.pos.(p).Design.c_pad, design.Design.pos.(p).Design.po_nm)
             | Design.To_inst (i, _) ->
                 let c = design.Design.instances.(i).Design.cell in
                 (c.Cell.c_in, c.Cell.nm)
           in
           let rat = match rats with Some r -> r.(k) | None -> 0.0 in
           { Steiner.Net.pname = sink_name k; at; c_sink; rat; nm })
         net.Design.sinks)
  in
  Steiner.Net.make ~name:net.Design.nname
    ~source:(Design.source_location design net.Design.source)
    ~r_drv ~d_drv ~pins

let analyze ?(trees = fun _ -> None) process (design : Design.t) =
  let n_nets = Array.length design.Design.nets in
  let tree_of =
    Array.init n_nets (fun nid ->
        match trees nid with
        | Some t -> t
        | None -> Steiner.Build.tree_of_net process (net_to_steiner design nid))
  in
  (* per net: delay from the driving pin's input to each sink pin *)
  let rel =
    Array.map
      (fun tree ->
        let arr = Elmore.arrivals tree in
        let out = Hashtbl.create 8 in
        List.iter
          (fun s ->
            match T.kind tree s with
            | T.Sink sk -> Hashtbl.replace out (sink_index sk.T.sname) arr.(s)
            | T.Source _ | T.Internal | T.Buffered _ -> ())
          (T.sinks tree);
        out)
      tree_of
  in
  let rel_delay nid k =
    match Hashtbl.find_opt rel.(nid) k with
    | Some d -> d
    | None -> invalid_arg "Engine.analyze: supplied tree is missing a sink"
  in
  (* forward pass *)
  let inst_in_arrival =
    Array.map (fun i -> Array.make i.Design.cell.Cell.n_inputs nan) design.Design.instances
  in
  let po_arrival = Array.make (Array.length design.Design.pos) nan in
  let src_arrival = Array.make n_nets nan in
  let propagate nid =
    let net = design.Design.nets.(nid) in
    Array.iteri
      (fun k s ->
        let a = src_arrival.(nid) +. rel_delay nid k in
        match s with
        | Design.To_po p -> po_arrival.(p) <- a
        | Design.To_inst (i, pin) -> inst_in_arrival.(i).(pin) <- a)
      net.Design.sinks
  in
  let net_of = Design.source_nets design in
  let order = Design.topo_order design in
  Array.iteri
    (fun p _ ->
      let nid = net_of (Design.From_pi p) in
      src_arrival.(nid) <- design.Design.pis.(p).Design.arrival;
      propagate nid)
    design.Design.pis;
  List.iter
    (fun i ->
      let nid = net_of (Design.From_inst i) in
      src_arrival.(nid) <- Array.fold_left Float.max neg_infinity inst_in_arrival.(i);
      propagate nid)
    order;
  (* backward pass *)
  let inst_required = Array.make (Array.length design.Design.instances) infinity in
  let required_of_sink s =
    match s with
    | Design.To_po p -> design.Design.pos.(p).Design.required
    | Design.To_inst (i, _) -> inst_required.(i)
  in
  List.iter
    (fun i ->
      let nid = net_of (Design.From_inst i) in
      let net = design.Design.nets.(nid) in
      let req = ref infinity in
      Array.iteri
        (fun k s -> req := Float.min !req (required_of_sink s -. rel_delay nid k))
        net.Design.sinks;
      inst_required.(i) <- !req)
    (List.rev order);
  (* assemble per-net reports *)
  let nets =
    Array.init n_nets (fun nid ->
        let net = design.Design.nets.(nid) in
        let tree = tree_of.(nid) in
        {
          tree;
          sink_arrival =
            Array.mapi (fun k s -> (s, src_arrival.(nid) +. rel_delay nid k)) net.Design.sinks;
          sink_required = Array.map (fun s -> (s, required_of_sink s)) net.Design.sinks;
          source_arrival = src_arrival.(nid);
          noise_violations = List.length (Noise.violations tree);
        })

  in
  let wns = ref infinity and tns = ref 0.0 in
  Array.iteri
    (fun p (po : Design.po) ->
      let slack = po.Design.required -. po_arrival.(p) in
      wns := Float.min !wns slack;
      if slack < 0.0 then tns := !tns +. slack)
    design.Design.pos;
  {
    nets;
    wns = !wns;
    tns = !tns;
    noisy_nets =
      Array.fold_left (fun acc nt -> if nt.noise_violations > 0 then acc + 1 else acc) 0 nets;
    total_buffers = Array.fold_left (fun acc nt -> acc + T.buffer_count nt.tree) 0 nets;
  }

let driver_rats nt = Array.map (fun (_, r) -> r -. nt.source_arrival) nt.sink_required

let install_rats tree rats = T.with_sink_rats tree (fun s -> rats.(sink_index s.T.sname))

let batch_jobs process (design : Design.t) =
  let sta = analyze process design in
  List.init (Array.length sta.nets) (fun nid ->
      let nt = sta.nets.(nid) in
      let rats = driver_rats nt in
      (net_to_steiner ~rats design nid, install_rats nt.tree rats))

let endpoint_slacks (design : Design.t) t =
  (* each PO's arrival, read off the sink pins of the nets in one pass *)
  let po_arrival = Array.make (Array.length design.Design.pos) nan in
  Array.iter
    (fun nt ->
      Array.iter
        (fun (s, a) ->
          match s with Design.To_po p -> po_arrival.(p) <- a | Design.To_inst _ -> ())
        nt.sink_arrival)
    t.nets;
  Array.to_list
    (Array.mapi
       (fun p (po : Design.po) -> (po.Design.oname, po.Design.required -. po_arrival.(p)))
       design.Design.pos)
