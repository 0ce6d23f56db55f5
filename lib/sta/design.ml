type source = From_pi of int | From_inst of int

type sink = To_po of int | To_inst of int * int

type instance = { iname : string; cell : Cell.t; at : Geometry.Point.t }

type net = { nname : string; source : source; sinks : sink array }

type pi = {
  pname : string;
  pat : Geometry.Point.t;
  arrival : float;
  r_pad : float;
  d_pad : float;
}

type po = {
  oname : string;
  oat : Geometry.Point.t;
  required : float;
  c_pad : float;
  po_nm : float;
}

type t = {
  instances : instance array;
  nets : net array;
  pis : pi array;
  pos : po array;
}

let source_location t = function
  | From_pi p -> t.pis.(p).pat
  | From_inst i -> t.instances.(i).at

let sink_location t = function
  | To_po p -> t.pos.(p).oat
  | To_inst (i, _) -> t.instances.(i).at

let topo_order_opt t =
  let ni = Array.length t.instances in
  (* predecessors of an instance: instances feeding any of its inputs *)
  let preds = Array.make ni [] in
  Array.iter
    (fun net ->
      match net.source with
      | From_pi _ -> ()
      | From_inst src ->
          Array.iter
            (fun s ->
              match s with To_inst (i, _) -> preds.(i) <- src :: preds.(i) | To_po _ -> ())
            net.sinks)
    t.nets;
  let state = Array.make ni `White in
  let order = ref [] in
  let ok = ref true in
  let rec visit i =
    match state.(i) with
    | `Black -> ()
    | `Gray -> ok := false
    | `White ->
        state.(i) <- `Gray;
        List.iter visit preds.(i);
        state.(i) <- `Black;
        order := i :: !order
  in
  for i = 0 to ni - 1 do
    visit i
  done;
  if !ok then Some (List.rev !order) else None

let validate t =
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  let ni = Array.length t.instances in
  let input_driven = Array.map (fun inst -> Array.make inst.cell.Cell.n_inputs 0) t.instances in
  let po_driven = Array.make (Array.length t.pos) 0 in
  let source_used = Hashtbl.create 16 in
  Array.iter
    (fun p ->
      if not (Float.is_finite p.arrival && Float.is_finite p.r_pad && Float.is_finite p.d_pad)
      then fail "PI %s: non-finite electricals" p.pname
      else if p.r_pad < 0.0 then fail "PI %s: negative pad resistance" p.pname)
    t.pis;
  Array.iter
    (fun o ->
      if not (Float.is_finite o.required && Float.is_finite o.c_pad && Float.is_finite o.po_nm)
      then fail "PO %s: non-finite electricals" o.oname
      else if o.c_pad < 0.0 then fail "PO %s: negative pad load" o.oname)
    t.pos;
  Array.iteri
    (fun nid net ->
      (match net.source with
      | From_pi p -> if p < 0 || p >= Array.length t.pis then fail "net %s: bad PI" net.nname
      | From_inst i -> if i < 0 || i >= ni then fail "net %s: bad instance source" net.nname);
      (match Hashtbl.find_opt source_used net.source with
      | Some _ -> fail "net %s: source drives several nets" net.nname
      | None -> Hashtbl.replace source_used net.source nid);
      if Array.length net.sinks = 0 then fail "net %s: no sinks" net.nname;
      Array.iter
        (fun s ->
          match s with
          | To_po p ->
              if p < 0 || p >= Array.length t.pos then fail "net %s: bad PO" net.nname
              else po_driven.(p) <- po_driven.(p) + 1
          | To_inst (i, k) ->
              if i < 0 || i >= ni then fail "net %s: bad instance sink" net.nname
              else if k < 0 || k >= t.instances.(i).cell.Cell.n_inputs then
                fail "net %s: bad input index on %s" net.nname t.instances.(i).iname
              else input_driven.(i).(k) <- input_driven.(i).(k) + 1)
        net.sinks;
      (* pin placements inside one net must be pairwise distinct for the
         Steiner constructor *)
      let pts = source_location t net.source :: Array.to_list (Array.map (sink_location t) net.sinks) in
      let sorted = List.sort Geometry.Point.compare pts in
      let rec dup = function
        | a :: (b :: _ as rest) -> Geometry.Point.equal a b || dup rest
        | [] | [ _ ] -> false
      in
      if dup sorted then fail "net %s: coincident pin placements" net.nname)
    t.nets;
  Array.iteri
    (fun i inst ->
      Array.iteri
        (fun k n -> if n <> 1 then fail "instance %s input %d driven %d times" inst.iname k n)
        input_driven.(i);
      if not (Hashtbl.mem source_used (From_inst i)) then
        fail "instance %s output drives no net" inst.iname)
    t.instances;
  Array.iteri
    (fun p n -> if n <> 1 then fail "PO %s driven %d times" t.pos.(p).oname n)
    po_driven;
  Array.iteri
    (fun p pi ->
      if not (Hashtbl.mem source_used (From_pi p)) then fail "PI %s drives no net" pi.pname)
    t.pis;
  match !err with
  | Some e -> Error e
  | None -> ( match topo_order_opt t with Some _ -> Ok () | None -> Error "cyclic design")

let topo_order t =
  match topo_order_opt t with
  | Some o -> o
  | None -> invalid_arg "Design.topo_order: cyclic design"

let source_nets t =
  let by_pi = Array.make (Array.length t.pis) (-1)
  and by_inst = Array.make (Array.length t.instances) (-1) in
  Array.iteri
    (fun nid net ->
      match net.source with
      | From_pi p when p >= 0 && p < Array.length by_pi -> by_pi.(p) <- nid
      | From_inst i when i >= 0 && i < Array.length by_inst -> by_inst.(i) <- nid
      | From_pi _ | From_inst _ -> ())
    t.nets;
  let find a k =
    if k >= 0 && k < Array.length a && a.(k) >= 0 then a.(k)
    else invalid_arg "Design.source_nets: dangling source"
  in
  function From_pi p -> find by_pi p | From_inst i -> find by_inst i

let stats t =
  Printf.sprintf "%d instances, %d nets, %d PIs, %d POs" (Array.length t.instances)
    (Array.length t.nets) (Array.length t.pis) (Array.length t.pos)
