module T = Rctree.Tree

(* about three candidate positions per safe span *)
let fraction = 0.34

(* pieces of wires without coupling: 1 mm, delay-driven only *)
let fallback = 1e-3

let noise_driven ~lib tree =
  let b = Tech.Lib.min_resistance lib in
  Rctree.Segment.refine_by tree (fun _ w ->
      if w.T.length <= 0.0 || w.T.cur <= 0.0 then fallback
      else begin
        let r_per_m = w.T.res /. w.T.length and i_per_m = w.T.cur /. w.T.length in
        match
          Noise.max_safe_length ~r_b:b.Tech.Buffer.r_b ~i_down:0.0 ~ns:b.Tech.Buffer.nm
            ~r_per_m ~i_per_m
        with
        | Some span when Float.is_finite span -> Float.max (fraction *. span) 1e-6
        | Some _ | None -> fallback
      end)
