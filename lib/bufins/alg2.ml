module T = Rctree.Tree

(* Solutions live in a per-run Trace arena (like Dp's candidates): [tr]
   names the solution, and the two merge shapes append one Join (plus a
   Buf for a forced decoupling buffer) instead of copying lists. *)
type cand = { i : float; ns : float; count : int; tr : Trace.handle }

type result = {
  placements : Rctree.Surgery.placement list;
  count : int;
  candidates_seen : int;
}

let dominates a b = a.i <= b.i && a.ns >= b.ns && a.count <= b.count

(* (i, ns, count) pruning on the shared sorted-frontier substrate: sort by
   current ascending (the cost), then a linear-sweep prune. *)
let cmp a b =
  match Float.compare a.i b.i with
  | 0 -> ( match Float.compare b.ns a.ns with 0 -> compare a.count b.count | n -> n)
  | n -> n

let prune cands = fst (Frontier.pareto_dom ~cmp ~cost:(fun c -> c.i) ~dominates cands)

let run ~lib tree =
  let b = Tech.Lib.min_resistance lib in
  let r_b = b.Tech.Buffer.r_b and nm_b = b.Tech.Buffer.nm in
  let arena = Trace.create () in
  let join l r = Trace.join arena ~left:l.tr ~right:r.tr in
  let seen = ref 0 in
  let note cands =
    seen := !seen + List.length cands;
    cands
  in
  (* candidates at the top of [v]'s parent wire *)
  let rec above v =
    let w = T.wire_to tree v in
    let cands =
      List.filter_map
        (fun c ->
          match
            Wireclimb.climb ~b ~node:v w { Wireclimb.i = c.i; ns = c.ns }
          with
          | st, placed ->
              let tr =
                List.fold_left
                  (fun pred (p : Rctree.Surgery.placement) ->
                    Trace.buf arena ~node:p.Rctree.Surgery.node ~dist:p.Rctree.Surgery.dist
                      ~buffer:p.Rctree.Surgery.buffer ~pred)
                  c.tr placed
              in
              Some
                {
                  i = st.Wireclimb.i;
                  ns = st.Wireclimb.ns;
                  count = c.count + List.length placed;
                  tr;
                }
          | exception Failure _ -> None)
        (at v)
    in
    if cands = [] then failwith "Alg2.run: no feasible candidate survives a wire";
    prune (note cands)
  (* candidates at node [v] itself (bottom of its parent wire) *)
  and at v =
    match T.kind tree v with
    | T.Sink s -> [ { i = 0.0; ns = s.T.nm; count = 0; tr = Trace.leaf } ]
    | T.Buffered _ -> invalid_arg "Alg2.run: tree already contains buffers"
    | T.Source _ -> assert false
    | T.Internal -> (
        match T.children tree v with
        | [ c ] -> above c
        | [ cl; cr ] -> merge v (above cl) (above cr)
        | _ -> assert false)
  and merge v left right =
    let cl_node, cr_node =
      match T.children tree v with [ a; b ] -> (a, b) | _ -> assert false
    in
    let wl = T.wire_to tree cl_node and wr = T.wire_to tree cr_node in
    let out = ref [] in
    List.iter
      (fun l ->
        List.iter
          (fun r ->
            let i = l.i +. r.i and ns = Float.min l.ns r.ns in
            if r_b *. i <= ns +. Candidate.noise_tol then
              (* Step 7: merging is noise-safe *)
              out := { i; ns; count = l.count + r.count; tr = join l r } :: !out
            else begin
              (* Step 6: a buffer is forced immediately below [v] on one
                 branch; which branch is optimal depends on the upstream,
                 so generate both (when rescuable) *)
              let forced side_node side_wire (decoupled : cand) (other : cand) =
                let i = other.i and ns = Float.min nm_b other.ns in
                if r_b *. i <= ns +. Candidate.noise_tol then
                  Some
                    {
                      i;
                      ns;
                      count = decoupled.count + other.count + 1;
                      tr =
                        Trace.buf arena ~node:side_node ~dist:side_wire.T.length ~buffer:b
                          ~pred:(join decoupled other);
                    }
                else None
              in
              (match forced cl_node wl l r with Some c -> out := c :: !out | None -> ());
              match forced cr_node wr r l with Some c -> out := c :: !out | None -> ()
            end)
          right)
      left;
    if !out = [] then failwith "Alg2.run: merge produced no feasible candidate";
    prune (note !out)
  in
  let root = T.root tree in
  let d = match T.kind tree root with
    | T.Source d -> d
    | T.Sink _ | T.Internal | T.Buffered _ -> assert false
  in
  let r_drv = d.T.r_drv in
  let decouple child (cand : cand) =
    (* buffer immediately below the source on [child]'s wire *)
    let w = T.wire_to tree child in
    {
      cand with
      count = cand.count + 1;
      tr = Trace.buf arena ~node:child ~dist:w.T.length ~buffer:b ~pred:cand.tr;
    }
  in
  let finals =
    match T.children tree root with
    | [ c ] ->
        List.filter_map
          (fun cand ->
            if r_drv *. cand.i <= cand.ns +. Candidate.noise_tol then Some cand
            else
              (* Step 5: decouple the source (r_b < r_drv must hold, which
                 the rescuability invariant guarantees) *)
              Some { (decouple c cand) with i = 0.0; ns = nm_b })
          (above c)
    | [ cl; cr ] ->
        (* a two-fanout source: the driver test and the forced decoupling
           are per-branch — buffering one branch does not shield the other
           from the driver's resistance *)
        let options l r =
          let plain =
            let i = l.i +. r.i and ns = Float.min l.ns r.ns in
            if r_drv *. i <= ns +. Candidate.noise_tol then
              [ { i; ns; count = l.count + r.count; tr = join l r } ]
            else []
          in
          let one_side (decoupled : cand) (other : cand) child =
            let i = other.i and ns = Float.min nm_b other.ns in
            if r_drv *. i <= ns +. Candidate.noise_tol then begin
              let joined =
                {
                  decoupled with
                  tr = join decoupled other;
                  count = decoupled.count + other.count;
                }
              in
              [ { (decouple child joined) with i; ns } ]
            end
            else []
          in
          let both =
            let base = { i = 0.0; ns = nm_b; count = l.count + r.count; tr = join l r } in
            [ decouple cr (decouple cl base) ]
          in
          List.concat [ plain; one_side l r cl; one_side r l cr; both ]
        in
        let left = above cl and right = above cr in
        List.concat_map (fun l -> List.concat_map (fun r -> options l r) right) left
    | _ -> assert false
  in
  match
    List.sort
      (fun (a : cand) (c : cand) ->
        match compare a.count c.count with 0 -> compare c.ns a.ns | x -> x)
      finals
  with
  | [] -> failwith "Alg2.run: no feasible solution"
  | best :: _ ->
      {
        placements = Trace.placements arena best.tr;
        count = best.count;
        candidates_seen = !seen;
      }
