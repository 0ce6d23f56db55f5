type driver = { r_drv : float; d_drv : float }

type sink = { sname : string; c_sink : float; rat : float; nm : float }

type kind = Source of driver | Sink of sink | Internal | Buffered of Tech.Buffer.t

type wire = { length : float; res : float; cap : float; cur : float }

type node = { kind : kind; parent : int; wire : wire option; feasible : bool }

type t = { nodes : node array; kids : int list array; root_id : int }

let zero_wire = { length = 0.0; res = 0.0; cap = 0.0; cur = 0.0 }

let make_wire ~length ~res ~cap ~cur =
  assert (length >= 0.0 && res >= 0.0 && cap >= 0.0 && cur >= 0.0);
  { length; res; cap; cur }

let wire_of_length p len =
  make_wire ~length:len ~res:(Tech.Process.wire_r p len) ~cap:(Tech.Process.wire_c p len)
    ~cur:(Tech.Process.wire_i p len)

let scale_wire w f =
  assert (f >= 0.0 && f <= 1.0);
  { length = w.length *. f; res = w.res *. f; cap = w.cap *. f; cur = w.cur *. f }

let area_frac = 0.4

let resize_wire w ~width =
  assert (width >= 1.0);
  {
    w with
    res = w.res /. width;
    cap = w.cap *. ((area_frac *. width) +. (1.0 -. area_frac));
  }

let node_count t = Array.length t.nodes

let root t = t.root_id

let node t v = t.nodes.(v)

let kind t v = t.nodes.(v).kind

let parent t v = t.nodes.(v).parent

let wire_to t v =
  match t.nodes.(v).wire with
  | Some w -> w
  | None -> invalid_arg "Tree.wire_to: root has no parent wire"

let feasible t v = t.nodes.(v).feasible

let children t v = t.kids.(v)

let is_gate t v = match kind t v with Source _ | Buffered _ -> true | Sink _ | Internal -> false

let is_stage_leaf t v =
  match kind t v with Sink _ | Buffered _ -> true | Source _ | Internal -> false

let select p t =
  let acc = ref [] in
  Array.iteri (fun i n -> if p i n then acc := i :: !acc) t.nodes;
  List.rev !acc

let sinks t = select (fun _ n -> match n.kind with Sink _ -> true | Source _ | Internal | Buffered _ -> false) t

let gates t =
  select (fun _ n -> match n.kind with Source _ | Buffered _ -> true | Sink _ | Internal -> false) t

let internals t =
  select (fun _ n -> match n.kind with Internal -> true | Source _ | Sink _ | Buffered _ -> false) t

let buffer_count t =
  Array.fold_left
    (fun acc n -> match n.kind with Buffered _ -> acc + 1 | Source _ | Sink _ | Internal -> acc)
    0 t.nodes

let postorder t =
  let acc = ref [] in
  let rec go v =
    List.iter go t.kids.(v);
    acc := v :: !acc
  in
  go t.root_id;
  List.rev !acc

let path_up t v =
  let rec go v acc = if v = -1 then List.rev acc else go t.nodes.(v).parent (v :: acc) in
  go v []

let stage_members t g =
  let acc = ref [] in
  let rec go v =
    List.iter
      (fun c ->
        acc := c :: !acc;
        if not (is_stage_leaf t c) then go c)
      t.kids.(v)
  in
  go g;
  List.rev !acc

let stage_leaves t g = List.filter (is_stage_leaf t) (stage_members t g)

let map_wires t f =
  {
    t with
    nodes =
      Array.mapi
        (fun i n -> match n.wire with None -> n | Some w -> { n with wire = Some (f i w) })
        t.nodes;
  }

let with_sink_rat t v ~rat =
  match t.nodes.(v).kind with
  | Sink s ->
      let nodes = Array.copy t.nodes in
      nodes.(v) <- { nodes.(v) with kind = Sink { s with rat } };
      { t with nodes }
  | Source _ | Internal | Buffered _ ->
      invalid_arg "Tree.with_sink_rat: node is not a sink"

let with_sink_rats t f =
  {
    t with
    nodes =
      Array.map
        (fun n ->
          match n.kind with
          | Sink s -> { n with kind = Sink { s with rat = f s } }
          | Source _ | Internal | Buffered _ -> n)
        t.nodes;
  }

let with_wire t v f =
  match t.nodes.(v).wire with
  | Some w ->
      let nodes = Array.copy t.nodes in
      nodes.(v) <- { nodes.(v) with wire = Some (f w) };
      { t with nodes }
  | None -> invalid_arg "Tree.with_wire: the root has no parent wire"

let validate t =
  let n = Array.length t.nodes in
  let first = ref None in
  let fail i msg =
    if !first = None then first := Some (Printf.sprintf "node %d: %s" i msg)
  in
  if n = 0 then first := Some "empty tree"
  else if t.root_id < 0 || t.root_id >= n then first := Some "root out of range"
  else begin
    Array.iteri
      (fun i nd ->
        let is_root = i = t.root_id in
        if is_root <> (nd.parent = -1) then fail i "root/parent mismatch";
        if is_root <> (nd.wire = None) then fail i "root/wire mismatch";
        (match nd.kind with
        | Source _ -> if not is_root then fail i "source away from root"
        | Sink _ | Internal | Buffered _ -> if is_root then fail i "root is not a source");
        (match nd.kind with
        | Sink _ -> if t.kids.(i) <> [] then fail i "sink must be a leaf"
        | Source _ | Internal | Buffered _ -> if t.kids.(i) = [] then fail i "dangling non-sink node");
        if List.length t.kids.(i) > 2 then fail i "more than two children";
        match nd.wire with
        | None -> ()
        | Some w ->
            if w.length < 0.0 || w.res < 0.0 || w.cap < 0.0 || w.cur < 0.0 then
              fail i "negative wire field")
      t.nodes;
    if !first = None then begin
      let seen = Array.make n false in
      let rec go v =
        if seen.(v) then first := Some "cycle detected"
        else begin
          seen.(v) <- true;
          List.iter go t.kids.(v)
        end
      in
      go t.root_id;
      if !first = None && Array.exists not seen then first := Some "unreachable node"
    end
  end;
  match !first with None -> Ok () | Some e -> Error e

let fold_wires f acc t =
  let acc = ref acc in
  Array.iter (fun n -> match n.wire with Some w -> acc := f !acc w | None -> ()) t.nodes;
  !acc

let total_wirelength t = fold_wires (fun a w -> a +. w.length) 0.0 t

let total_wire_cap t = fold_wires (fun a w -> a +. w.cap) 0.0 t

let pp_summary ppf t =
  Format.fprintf ppf "tree<%d nodes, %d sinks, %d buffers, %.2f mm>" (node_count t)
    (List.length (sinks t)) (buffer_count t)
    (total_wirelength t *. 1e3)

let unsafe_make nodes =
  let n = Array.length nodes in
  let kids = Array.make n [] in
  let root_id = ref (-1) in
  Array.iteri
    (fun i nd ->
      if nd.parent = -1 then root_id := i
      else kids.(nd.parent) <- i :: kids.(nd.parent))
    nodes;
  (* children were accumulated in reverse id order; restore id order *)
  Array.iteri (fun i l -> kids.(i) <- List.rev l) kids;
  { nodes; kids; root_id = !root_id }
