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

   With no inductor rows and no capacitor between two free nodes, C is
   diagonal and the only off-diagonal entries of G are the resistors
   between free nodes. When those form a forest, eliminating leaves
   first creates no fill: each unknown's row below the diagonal holds
   only its parent, so factoring and each solve are O(n). *)

(* Peel leaves of the conductance graph: [Some (order, parent_edge)] with
   every free node in elimination order and the edge to its parent (-1
   for a component's root, the last node of its component to go), or
   [None] on a cycle. A node's incident edge ids are kept XOR-summed, so
   once its degree is 1 the sum is its remaining edge. *)
let peel n (ei : int array) (ej : int array) =
  let degree = Array.make n 0 and incident = Array.make n 0 in
  Array.iteri
    (fun e i ->
      let j = ej.(e) in
      degree.(i) <- degree.(i) + 1;
      degree.(j) <- degree.(j) + 1;
      incident.(i) <- incident.(i) lxor e;
      incident.(j) <- incident.(j) lxor e)
    ei;
  let order = Array.make n 0 and parent_edge = Array.make n (-1) in
  let stack = Array.make n 0 and top = ref 0 and next = ref 0 in
  let push v =
    stack.(!top) <- v;
    incr top
  in
  for v = n - 1 downto 0 do
    if degree.(v) <= 1 then push v
  done;
  (* popping the newest leaf first keeps each chain contiguous in the order *)
  while !top > 0 do
    decr top;
    let v = stack.(!top) in
    order.(!next) <- v;
    incr next;
    if degree.(v) = 1 then begin
      let e = incident.(v) in
      let p = ei.(e) + ej.(e) - v in
      parent_edge.(v) <- e;
      degree.(v) <- 0;
      degree.(p) <- degree.(p) - 1;
      incident.(p) <- incident.(p) lxor e;
      if degree.(p) = 1 then push p
    end
  done;
  if !next = n then Some (order, parent_edge) else None

let forest_kernel (sys : Mna.t) =
  let n = sys.Mna.nf in
  let edges = Array.of_list sys.Mna.g_off in
  if sys.Mna.nl > 0 || sys.Mna.c_off <> [] || Array.length edges >= max n 1 then None
  else begin
    let ei = Array.map (fun (e : Mna.edge) -> e.Mna.i) edges in
    let ej = Array.map (fun (e : Mna.edge) -> e.Mna.j) edges in
    match peel n ei ej with
    | None -> None
    | Some (order, parent_edge) ->
        (* renumber unknowns into elimination order: slot k's parent
           slot [par.(k)] is above k, so both sweeps run over slots *)
        let slot = Array.make n 0 in
        Array.iteri (fun k v -> slot.(v) <- k) order;
        let par = Array.make n (-1) and off = Array.make n 0.0 in
        Array.iteri
          (fun k v ->
            let e = parent_edge.(v) in
            if e >= 0 then begin
              par.(k) <- slot.(ei.(e) + ej.(e) - v);
              off.(k) <- edges.(e).Mna.v
            end)
          order;
        let gd = Array.map (fun v -> sys.Mna.g_diag.(v)) order in
        let cd = Array.map (fun v -> sys.Mna.c_diag.(v)) order in
        (* LDL^T of the matrix with diagonal [diag] and [off] to the
           parent: the pivots' reciprocals and the multipliers *)
        let factor diag =
          let d = Array.copy diag and l = Array.make n 0.0 in
          for k = 0 to n - 1 do
            if Float.abs d.(k) < 1e-300 then raise (Linalg.Mat.Singular k);
            let p = par.(k) in
            if p >= 0 then begin
              l.(k) <- off.(k) /. d.(k);
              d.(p) <- d.(p) -. (l.(k) *. off.(k))
            end
          done;
          (Array.map (fun d -> 1.0 /. d) d, l)
        in
        (* back substitution, x <- (D L^T)^-1 y *)
        let backward dinv l y x =
          for k = n - 1 downto 0 do
            let p = par.(k) in
            x.(k) <- (if p >= 0 then (y.(k) *. dinv.(k)) -. (l.(k) *. x.(p)) else y.(k) *. dinv.(k))
          done
        in
        let solve_dc b =
          let dinv, l = factor gd in
          for k = 0 to n - 1 do
            let p = par.(k) in
            if p >= 0 then b.(p) <- b.(p) -. (l.(k) *. b.(k))
          done;
          backward dinv l b b
        in
        let stepper two_h =
          let dinv, l = factor (Array.init n (fun k -> gd.(k) +. (two_h *. cd.(k)))) in
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
            backward dinv l b x
        in
        Some { solver = Forest; slot; solve_dc; stepper }
  end

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
