type solver = Forest | Dense

type result = {
  times : float array;
  peaks : float array;
  peak_times : float array;
  finals : float array;
  traces : float array array option;
  solver : solver;
}

(* A linear-algebra back end for the shared stepping loop. It keeps the
   unknowns in its own slots: MNA unknown [i] lives at [slot.(i)]. *)
type kernel = {
  solver : solver;
  slot : int array;
  solve_dc : float array -> unit;  (* b <- G^-1 b, in place *)
  stepper : float -> float array -> float array -> unit;
      (* [stepper (2/h) x b] advances one trapezoidal step in place:
         x <- (G + (2/h) C)^-1 (((2/h) C - G) x + b), using b as scratch *)
}

(* {1 Dense LU: any deck, and the reference} *)

let dense_kernel sys =
  let n = Mna.dim sys in
  let g = Mna.g sys and c = Mna.c sys in
  let solve_into lu b = Array.blit (Linalg.Mat.lu_solve lu b) 0 b 0 n in
  let stepper two_h =
    (* A = G + (2/h) C, factored once; B = (2/h) C - G applied per step *)
    let a = Linalg.Mat.copy g and b = Linalg.Mat.copy g in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let cij = Linalg.Mat.get c i j in
        Linalg.Mat.add a i j (two_h *. cij);
        Linalg.Mat.set b i j ((two_h *. cij) -. Linalg.Mat.get g i j)
      done
    done;
    let lu = Linalg.Mat.lu_factor a in
    fun x rhs ->
      let r = Linalg.Mat.mul_vec b x in
      Linalg.Vec.axpy 1.0 rhs r;
      Array.blit (Linalg.Mat.lu_solve lu r) 0 x 0 n
  in
  { solver = Dense; slot = Array.init n Fun.id; solve_dc = solve_into (Linalg.Mat.lu_factor g); stepper }

(* {1 Leaf-first LDL^T on an RC forest}

   With C diagonal too (no capacitor between two free nodes), the step
   matrix G + (2/h) C has G's forest pattern, so both factor leaf-first
   without fill (Forest): O(n) to factor and per step. *)

let forest_kernel (sys : Mna.t) =
  if sys.Mna.c_off <> [] then None
  else
    match Forest.plan sys with
    | None -> None
    | Some plan ->
        let n = Array.length plan.Forest.order in
        let par = plan.Forest.par and off = plan.Forest.off in
        let gd = Forest.gather plan sys.Mna.g_diag in
        let cd = Forest.gather plan sys.Mna.c_diag in
        let solve_dc b =
          let f = Forest.factor plan gd in
          Forest.forward plan f b;
          Forest.backward plan f b b
        in
        let stepper two_h =
          let f = Forest.factor plan (Array.init n (fun k -> gd.(k) +. (two_h *. cd.(k)))) in
          let l = f.Forest.l in
          let bd = Array.init n (fun k -> (two_h *. cd.(k)) -. gd.(k)) in
          fun x b ->
            (* one leaf-first pass forms B x + b and eliminates it:
               B's off-diagonal and L's multiplier both point from a
               slot to its parent, so both land in the parent's entry
               before the sweep reaches it *)
            for k = 0 to n - 1 do
              let p = par.(k) in
              if p >= 0 then begin
                let y = b.(k) +. ((bd.(k) *. x.(k)) -. (off.(k) *. x.(p))) in
                b.(k) <- y;
                b.(p) <- b.(p) -. (off.(k) *. x.(k)) -. (l.(k) *. y)
              end
              else b.(k) <- b.(k) +. (bd.(k) *. x.(k))
            done;
            Forest.backward plan f b x
        in
        Some { solver = Forest; slot = plan.Forest.slot; solve_dc; stepper }

(* {1 The stepping loop} *)

type probe = Zero | Wave of Waveform.t | Slot of int

let run kernel (sys : Mna.t) nl ~record ~dt ~t_end ~probes =
  let n = Mna.dim sys in
  let steps = int_of_float (Float.ceil ((t_end /. dt) -. 1e-9)) in
  let times = Array.init (steps + 1) (fun k -> float_of_int k *. dt) in
  (* the source couplings, flat and in the kernel's slots *)
  let flat (entries : Mna.rhs array) =
    ( Array.map (fun (e : Mna.rhs) -> kernel.slot.(e.Mna.row)) entries,
      Array.map (fun (e : Mna.rhs) -> e.Mna.coeff) entries,
      Array.map (fun (e : Mna.rhs) -> e.Mna.src) entries )
  in
  let g_row, g_coeff, g_src = flat sys.Mna.g_drv and c_row, c_coeff, c_src = flat sys.Mna.c_drv in
  let probes =
    Array.of_list
      (List.map
         (fun node ->
           if node = Netlist.ground then Zero
           else
             match Netlist.driven_waveform nl node with
             | Some w -> Wave w
             | None -> Slot kernel.slot.(sys.Mna.index.(Netlist.node_id node)))
         probes)
  in
  let value x t = function Zero -> 0.0 | Wave w -> Waveform.value w t | Slot i -> x.(i) in
  let nprobe = Array.length probes in
  let peaks = Array.make nprobe 0.0 in
  let peak_times = Array.make nprobe 0.0 in
  let traces = if record then Some (Array.make_matrix nprobe (steps + 1) 0.0) else None in
  let observe k x =
    let t = times.(k) in
    for p = 0 to nprobe - 1 do
      let v = value x t probes.(p) in
      if Float.abs v > peaks.(p) then begin
        peaks.(p) <- Float.abs v;
        peak_times.(p) <- t
      end;
      match traces with Some tr -> tr.(p).(k) <- v | None -> ()
    done
  in
  let waves = sys.Mna.waves in
  let nsrc = Array.length waves in
  (* each source waveform at the previous instant; per step, its sum with
     the current value [vg] drives the conductive RHS and the scaled
     difference [vc] the capacitive one *)
  let v_prev = Array.map (fun w -> Waveform.value w 0.0) waves in
  let vg = Array.make nsrc 0.0 and vc = Array.make nsrc 0.0 in
  (* DC operating point at t = 0: G x = -G_fd v_d(0) *)
  let x = Array.make n 0.0 in
  for e = 0 to Array.length g_row - 1 do
    let i = g_row.(e) in
    x.(i) <- x.(i) -. (g_coeff.(e) *. v_prev.(g_src.(e)))
  done;
  kernel.solve_dc x;
  observe 0 x;
  if steps > 0 then begin
    let step = kernel.stepper (2.0 /. dt) in
    let b = Array.make n 0.0 in
    for k = 1 to steps do
      let t = times.(k) in
      (* Conductive RHS at both ends of the step: -G_fd (v_d(t1) +
         v_d(t0)). Capacitive RHS, charge-exact: the integral of -C_fd
         dv_d/dt over the step is -C_fd (v_d(t1) - v_d(t0)) exactly,
         which keeps trapezoidal integration second-order accurate even
         across waveform kinks; scaled by 2/h to match the step
         equation. *)
      let scale = 2.0 /. (t -. times.(k - 1)) in
      for s = 0 to nsrc - 1 do
        let v = Waveform.value waves.(s) t in
        vg.(s) <- v +. v_prev.(s);
        vc.(s) <- scale *. (v -. v_prev.(s));
        v_prev.(s) <- v
      done;
      Array.fill b 0 n 0.0;
      for e = 0 to Array.length g_row - 1 do
        let i = g_row.(e) in
        b.(i) <- b.(i) -. (g_coeff.(e) *. vg.(g_src.(e)))
      done;
      for e = 0 to Array.length c_row - 1 do
        let i = c_row.(e) in
        b.(i) <- b.(i) -. (c_coeff.(e) *. vc.(c_src.(e)))
      done;
      step x b;
      observe k x
    done
  end;
  let finals = Array.map (value x times.(steps)) probes in
  { times; peaks; peak_times; finals; traces; solver = kernel.solver }

let check_times ~dt ~t_end =
  if dt <= 0.0 || t_end < 0.0 then invalid_arg "Transient.simulate: bad time parameters"

let simulate ?(record = false) nl ~dt ~t_end ~probes =
  check_times ~dt ~t_end;
  let sys = Mna.build nl in
  let kernel = match forest_kernel sys with Some k -> k | None -> dense_kernel sys in
  run kernel sys nl ~record ~dt ~t_end ~probes

let simulate_dense ?(record = false) nl ~dt ~t_end ~probes =
  check_times ~dt ~t_end;
  let sys = Mna.build nl in
  run (dense_kernel sys) sys nl ~record ~dt ~t_end ~probes
