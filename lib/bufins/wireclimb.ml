module T = Rctree.Tree

type state = { i : float; ns : float }

let rescuable (b : Tech.Buffer.t) st =
  b.Tech.Buffer.r_b *. st.i <= st.ns +. Candidate.noise_tol

let climb ~b ~node (w : T.wire) st =
  if not (rescuable b st) then invalid_arg "Wireclimb.climb: state not rescuable";
  let r_b = b.Tech.Buffer.r_b and nm_b = b.Tech.Buffer.nm in
  if w.T.length <= 0.0 then
    (* dimensionless wire (dummy edge): apply its lumped effect, no
       buffer can be positioned on it *)
    ({ i = st.i +. w.T.cur; ns = st.ns -. (w.T.res *. (st.i +. (w.T.cur /. 2.0))) }, [])
  else begin
    let r_per_m = w.T.res /. w.T.length and i_per_m = w.T.cur /. w.T.length in
    let rec go rem dbase st acc =
      let tiny = 1e-12 *. (1.0 +. rem) in
      match Noise.max_safe_length ~r_b ~i_down:st.i ~ns:st.ns ~r_per_m ~i_per_m with
      | None ->
          (* impossible: the rescuability invariant holds at every stop *)
          assert false
      | Some lmax when lmax >= rem -. tiny ->
          let top =
            {
              i = st.i +. (i_per_m *. rem);
              ns = st.ns -. (r_per_m *. rem *. (st.i +. (i_per_m *. rem /. 2.0)));
            }
          in
          (top, List.rev acc)
      | Some lmax ->
          (* a buffer is forced on this wire; Theorem 1 places it as far
             up as possible *)
          let lmax = Float.max lmax 0.0 in
          if lmax <= 0.0 && st.ns >= nm_b then
            (* cannot advance: the fresh-buffer state must make progress *)
            failwith "Wireclimb.climb: wire cannot be made noise-safe with this buffer"
          else begin
            let dist = dbase +. lmax in
            let placement = { Rctree.Surgery.node; dist; buffer = b } in
            go (rem -. lmax) dist { i = 0.0; ns = nm_b } (placement :: acc)
          end
    in
    go w.T.length 0.0 st []
  end
