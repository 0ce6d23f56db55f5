module P = Geometry.Point

type t = { adj : (P.t, P.t list) Hashtbl.t; source : P.t }

let neighbours g p = match Hashtbl.find_opt g.adj p with Some l -> l | None -> []

let is_point g p = Hashtbl.mem g.adj p

let add_point g p = if not (is_point g p) then Hashtbl.replace g.adj p []

let aligned a b = a.P.x = b.P.x || a.P.y = b.P.y

let add_edge g a b =
  if not (P.equal a b) then begin
    assert (aligned a b);
    add_point g a;
    add_point g b;
    Hashtbl.replace g.adj a (b :: neighbours g a);
    Hashtbl.replace g.adj b (a :: neighbours g b)
  end

let remove_edge g a b =
  Hashtbl.replace g.adj a (List.filter (fun q -> not (P.equal q b)) (neighbours g a));
  Hashtbl.replace g.adj b (List.filter (fun q -> not (P.equal q a)) (neighbours g b))

let fold_edges g f acc =
  Hashtbl.fold
    (fun a nbrs acc ->
      List.fold_left (fun acc b -> if P.compare a b < 0 then f acc a b else acc) acc nbrs)
    g.adj acc

(* Closest point of segment [a,b] (axis-aligned) to [p], in L1. *)
let project p a b =
  let clamp v lo hi = max lo (min v hi) in
  if a.P.y = b.P.y then P.make (clamp p.P.x (min a.P.x b.P.x) (max a.P.x b.P.x)) a.P.y
  else P.make a.P.x (clamp p.P.y (min a.P.y b.P.y) (max a.P.y b.P.y))

(* Nearest attachment for [p]: an existing point or the interior of an
   existing segment (which the caller must split). *)
let nearest g p =
  let best_pt =
    Hashtbl.fold
      (fun q _ acc ->
        let d = P.manhattan p q in
        match acc with Some (bd, _) when bd <= d -> acc | Some _ | None -> Some (d, `At q))
      g.adj None
  in
  fold_edges g
    (fun acc a b ->
      let q = project p a b in
      let d = P.manhattan p q in
      match acc with
      | Some (bd, _) when bd <= d -> acc
      | Some _ | None -> Some (d, if is_point g q then `At q else `On (a, b, q)))
    best_pt

let attach_point g p =
  match nearest g p with
  | None -> invalid_arg "Build.attach_point: empty tree"
  | Some (_, `At q) -> q
  | Some (_, `On (a, b, q)) ->
      remove_edge g a b;
      add_edge g a q;
      add_edge g q b;
      q

let insert_pin g p =
  if is_point g p then ()
  else begin
    let q = attach_point g p in
    if P.equal p q then ()
    else begin
      let corner = P.make p.P.x q.P.y in
      if P.equal corner p || P.equal corner q then add_edge g p q
      else if is_point g corner then
        (* the corner is already a tree point: attaching both legs would
           close a cycle, so hook the pin straight onto the corner *)
        add_edge g p corner
      else begin
        add_edge g p corner;
        add_edge g corner q
      end
    end
  end

let of_net (net : Net.t) =
  let g = { adj = Hashtbl.create 64; source = net.Net.source } in
  add_point g net.Net.source;
  let pts = Net.all_points net in
  let order = Mst.prim pts in
  Array.iter (fun (child, _) -> insert_pin g pts.(child)) order;
  g

let wirelength g = fold_edges g (fun acc a b -> acc + P.manhattan a b) 0

let segments g = fold_edges g (fun acc a b -> (a, b) :: acc) []

let to_rctree_traced process (net : Net.t) g =
  let b = Rctree.Builder.create () in
  let pin_at = Hashtbl.create 16 in
  List.iter (fun (p : Net.pin) -> Hashtbl.replace pin_at p.Net.at p) net.Net.pins;
  let geometry = ref [] in
  let note id geo = geometry := (id, geo) :: !geometry in
  let add_pin_leaf parent wire (p : Net.pin) =
    let id =
      Rctree.Builder.add_sink b ~parent ~wire ~name:p.Net.pname ~c_sink:p.Net.c_sink
        ~rat:p.Net.rat ~nm:p.Net.nm
    in
    note id None
  in
  let visited = Hashtbl.create 64 in
  let rec emit point geo wire parent_id =
    Hashtbl.replace visited point ();
    let kids = List.filter (fun q -> not (Hashtbl.mem visited q)) (neighbours g point) in
    List.iter (fun q -> Hashtbl.replace visited q ()) kids;
    let pin = Hashtbl.find_opt pin_at point in
    let node_id =
      match (parent_id, pin, kids) with
      | -1, _, _ -> Rctree.Builder.add_source b ~r_drv:net.Net.r_drv ~d_drv:net.Net.d_drv
      | _, Some p, [] ->
          let id =
            Rctree.Builder.add_sink b ~parent:parent_id ~wire ~name:p.Net.pname
              ~c_sink:p.Net.c_sink ~rat:p.Net.rat ~nm:p.Net.nm
          in
          note id geo;
          -2
      | _, _, _ ->
          let id = Rctree.Builder.add_internal b ~parent:parent_id ~wire () in
          note id geo;
          id
    in
    if node_id = -2 then ()
    else begin
      (* an interior pin hangs off its point with a zero-length wire so
         the sink stays a leaf *)
      (match (pin, parent_id) with
      | Some p, _ when kids <> [] || parent_id = -1 ->
          add_pin_leaf node_id Rctree.Tree.zero_wire p
      | Some _, _ | None, _ -> ());
      List.iter
        (fun q ->
          let w = Rctree.Tree.wire_of_length process (Tech.Process.of_nm (P.manhattan point q)) in
          emit q (Some (point, q)) w node_id)
        kids
    end
  in
  emit g.source None Rctree.Tree.zero_wire (-1);
  let tree = Rctree.Builder.finish b in
  let geo = Array.make (Rctree.Tree.node_count tree) None in
  List.iter (fun (id, g) -> geo.(id) <- g) !geometry;
  (tree, geo)

let to_rctree process net g = fst (to_rctree_traced process net g)

let tree_of_net process net = to_rctree process net (of_net net)
