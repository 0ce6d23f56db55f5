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
  c_diag : float array option;  (* C in slot order when it is diagonal *)
  solve_dc : float array -> unit;  (* b <- G^-1 b, in place *)
  stepper : float -> float array -> float array -> unit;
      (* [stepper (2/h) x v] advances one trapezoidal step in place:
         x <- (G + (2/h) C)^-1 (((2/h) C - G) x + b), b formed from the
         step's source values [v] ([run]) *)
}

(* The RHS couplings by slot, conductive then capacitive within a slot:
   entry [e] in [at.(k) .. at.(k+1)-1] adds [-coeff.(e) * v.(src.(e))] to
   slot k's RHS, in order; a capacitive entry's source index is past the
   [vg] half of [v] *)
let drivers (sys : Mna.t) slot =
  let nsrc = Array.length sys.Mna.sources and n = Array.length slot in
  let all = Array.append sys.Mna.g_drv sys.Mna.c_drv and ng = Array.length sys.Mna.g_drv in
  let at = Array.make (n + 1) 0 in
  for e = 0 to Array.length all - 1 do
    let k = slot.(all.(e).Mna.row) + 1 in
    at.(k) <- at.(k) + 1
  done;
  for k = 1 to n do
    at.(k) <- at.(k) + at.(k - 1)
  done;
  let next = Array.sub at 0 n in
  let coeff = Array.make (Array.length all) 0.0 and src = Array.make (Array.length all) 0 in
  Array.iteri
    (fun e (r : Mna.rhs) ->
      let i = next.(slot.(r.Mna.row)) in
      coeff.(i) <- r.Mna.coeff;
      src.(i) <- (if e < ng then r.Mna.src else nsrc + r.Mna.src);
      next.(slot.(r.Mna.row)) <- i + 1)
    all;
  (at, coeff, src)

(* Unchecked access for the forest step's sweeps: every slot, parent and
   coupling index they read comes from the plan, and [x] and [v] from
   [run], so each is in range. *)
let ( .%() ) (a : float array) i = Array.unsafe_get a i

let ( .%()<- ) (a : float array) i (v : float) = Array.unsafe_set a i v

let ( .!() ) (a : int array) i = Array.unsafe_get a i

(* the RHS entry of the slot whose couplings are [at.(j) .. at.(j+1)-1]:
   its terms in order, from 0.0 *)
let[@inline] entry at coeff src v j =
  let s = ref 0.0 in
  for e = at.!(j) to at.!(j + 1) - 1 do
    s := !s -. (coeff.%(e) *. v.%(src.!(e)))
  done;
  !s

(* {1 Dense LU: any deck, and the reference} *)

let dense_kernel sys =
  let n = Mna.dim sys in
  let g = Mna.g sys and c = Mna.c sys in
  let slot = Array.init n Fun.id in
  let at, coeff, src = drivers sys slot in
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
    let rhs = Array.make n 0.0 in
    fun x v ->
      Array.fill rhs 0 n 0.0;
      for i = 0 to n - 1 do
        for e = at.(i) to at.(i + 1) - 1 do
          rhs.(i) <- rhs.(i) -. (coeff.(e) *. v.(src.(e)))
        done
      done;
      let r = Linalg.Mat.mul_vec b x in
      Linalg.Vec.axpy 1.0 rhs r;
      Array.blit (Linalg.Mat.lu_solve lu r) 0 x 0 n
  in
  {
    solver = Dense;
    slot;
    c_diag = None;
    solve_dc = solve_into (Linalg.Mat.lu_factor g);
    stepper;
  }

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
        let par = plan.Forest.par and off = plan.Forest.off and slot = plan.Forest.slot in
        let gd = Forest.gather plan sys.Mna.g_diag in
        let cd = Forest.gather plan sys.Mna.c_diag in
        let at, coeff, src = drivers sys slot in
        (* The sweep first reads a slot's entry at the slot itself when no
           child precedes it, and forms it there ([fresh] bit 1), else at
           its first child, which forms its parent's (bit 2). *)
        let fresh = Array.make n 1 in
        Array.iteri
          (fun k p ->
            if p >= 0 && fresh.(p) land 1 = 1 then begin
              fresh.(p) <- fresh.(p) - 1;
              fresh.(k) <- fresh.(k) + 2
            end)
          par;
        let solve_dc b =
          let f = Forest.factor plan gd in
          Forest.forward plan f b;
          Forest.backward plan f b b
        in
        let stepper two_h =
          let f = Forest.factor plan (Array.init n (fun k -> gd.(k) +. (two_h *. cd.(k)))) in
          let l = f.Forest.l and dinv = f.Forest.dinv in
          let bd = Array.init n (fun k -> (two_h *. cd.(k)) -. gd.(k)) in
          let y = Array.make n 0.0 in
          fun x v ->
            (* one leaf-first pass forms B x + b and eliminates it: B's
               off-diagonal and L's multiplier both point from a slot to
               its parent, so both land in the parent's entry before the
               sweep reaches it. A parent in the next slot, the peel's
               common case, takes its entry in [carry], not memory. *)
            let carry = ref 0.0 and carried = ref false in
            for k = 0 to n - 1 do
              let bk =
                if !carried then !carry
                else if fresh.!(k) land 1 = 1 then entry at coeff src v k
                else y.%(k)
              in
              let p = par.!(k) in
              if p >= 0 then begin
                let yk = bk +. ((bd.%(k) *. x.%(k)) -. (off.%(k) *. x.%(p))) in
                y.%(k) <- yk;
                let bp = if fresh.!(k) land 2 = 2 then entry at coeff src v p else y.%(p) in
                let bp = bp -. (off.%(k) *. x.%(k)) -. (l.%(k) *. yk) in
                carried := p = k + 1;
                if !carried then carry := bp else y.%(p) <- bp
              end
              else begin
                y.%(k) <- bk +. (bd.%(k) *. x.%(k));
                carried := false
              end
            done;
            (* back sweep: x <- (D L^T)^-1 y, the parent's fresh value
               carried likewise *)
            let xp = ref 0.0 in
            for k = n - 1 downto 0 do
              let p = par.!(k) in
              let xk =
                if p < 0 then y.%(k) *. dinv.%(k)
                else (y.%(k) *. dinv.%(k)) -. (l.%(k) *. if p = k + 1 then !xp else x.%(p))
              in
              x.%(k) <- xk;
              xp := xk
            done
        in
        Some { solver = Forest; slot; c_diag = Some cd; solve_dc; stepper }

(* {1 The stepping loop} *)

type probe = Zero | Wave of Waveform.t | Slot of int

(* The early exit tests its bound every [check_every] steps: often enough
   to stop within a few steps of the instant it could, rarely enough that
   the O(n) energy sum costs a small fraction of the O(n) steps between. *)
let check_every = 8

(* How far one computed zero-RHS step can stray from the exact one, as a
   share of the state's C-norm sqrt (x^T C x), the norm the energy bound
   is in. In the coordinates y = C^(1/2) x the exact step is a
   contraction (DESIGN §4.1), so after [k] steps the computed state lies
   within the sum of the [k] steps' errors of the exact recursion from
   where the bound was taken. One step forms ((2/h) C - G) x, a sum of at
   most [d + 1] products per node of resistor degree [d], and solves
   with A = (2/h) C + G leaf-first. On a forest the factors reproduce |A|
   exactly (L has one off-diagonal per column), so the factoring and the
   two sweeps are backward stable against |A| with rows of [d + 1]
   entries (Higham, Accuracy and Stability, Thm 10.4). Both halves
   together: at most [4 (d + 2)] roundings of eps/2 against
   |(2/h) C| + |G|. Scaled by C^(-1/2) that matrix has 2-norm at most
   (2/h) (1 + 2 rho), rho = max_k G_kk / ((2/h) C_kk), since every row of
   |G| sums to at most 2 G_kk; and the scaled A^-1 has norm at most h/2.
   So a step errs by at most [2 (d + 2) eps (1 + 2 rho)] of the state's
   C-norm. The bound is relative in that norm, so the span of the node
   capacitances does not enter it; the stiffness [rho] does. It is a few
   tens on most signoff decks and reaches 1e8 where milliohm segments
   sit beside femtofarads. A node without capacitance makes it infinite
   (or NaN), which turns the exit off. *)
let step_error (sys : Mna.t) ~two_h =
  let degree = Array.make (Mna.dim sys) 0 in
  List.iter
    (fun (e : Mna.edge) ->
      degree.(e.Mna.i) <- degree.(e.Mna.i) + 1;
      degree.(e.Mna.j) <- degree.(e.Mna.j) + 1)
    sys.Mna.g_off;
  let d = Array.fold_left max 0 degree in
  let rho = ref 0.0 in
  Array.iteri
    (fun k g -> rho := Float.max !rho (g /. (two_h *. sys.Mna.c_diag.(k))))
    sys.Mna.g_diag;
  float_of_int (2 * (d + 2)) *. epsilon_float *. (1.0 +. (2.0 *. !rho))

(* The early exit runs only where [steps] of those errors stay below this
   share of the state. Above it the first-order sum of step errors could
   understate their compound, and the deck runs the whole window. *)
let max_drift = 1e-3

let run kernel (sys : Mna.t) nl ~record ~early ~dt ~t_end ~probes =
  let n = Mna.dim sys in
  let steps = int_of_float (Float.ceil ((t_end /. dt) -. 1e-9)) in
  let time k = float_of_int k *. dt in
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
    let t = time k in
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
  (* each source waveform at the previous instant; per step, [v] holds
     the sums with the current values [vg], which drive the conductive
     RHS, then the scaled differences [vc], which drive the capacitive *)
  let v_prev = Array.map (fun w -> Waveform.value w 0.0) waves in
  let v = Array.make (2 * nsrc) 0.0 in
  (* DC operating point at t = 0: G x = -G_fd v_d(0) *)
  let x = Array.make n 0.0 in
  Array.iter
    (fun (e : Mna.rhs) ->
      let i = kernel.slot.(e.Mna.row) in
      x.(i) <- x.(i) -. (e.Mna.coeff *. v_prev.(e.Mna.src)))
    sys.Mna.g_drv;
  kernel.solve_dc x;
  observe 0 x;
  (* The certified early exit (DESIGN §4.1). With no resistor tying a
     free node to a driven one, the RHS is zero for every step that
     starts at or after the last waveform's settle instant. Each step is
     then a Cayley transform of a passive RC network, so the C-energy
     x^T C x cannot grow, and with C diagonal every free node obeys
     |x_i| <= sqrt (x^T C x / C_ii) for the rest of the run. Once that
     bound is at or below every probe's recorded peak, no later step can
     raise a peak, and the run stops. *)
  let finished =
    match kernel.c_diag with
    | Some cap when early && Array.length sys.Mna.g_drv = 0 ->
        let settle =
          Array.fold_left (fun a w -> Float.max a (Waveform.settle w)) neg_infinity waves
        in
        (* The slack on the bound: the remaining steps' rounding, at most
           [drift] of the C-norm and so of the bound at every node (the
           factor 2 covers the compound of [drift] <= 1e-3), plus the
           rounding of the energy sum, the square root and the test. *)
        let drift = float_of_int steps *. step_error sys ~two_h:(2.0 /. dt) in
        let margin = (2.0 *. drift) +. (float_of_int (n + 4) *. epsilon_float) in
        let certified = drift <= max_drift in
        let largest x =
          let m = ref 0.0 in
          for j = 0 to n - 1 do
            m := Float.max !m (Float.abs x.(j))
          done;
          !m
        in
        (* every free probe's bound, with its margin, at or below its
           peak; the energy is that of x / m, m = [largest x], so that the
           squares of a small state do not underflow *)
        let bounded x m =
          let e = ref 0.0 in
          for j = 0 to n - 1 do
            let v = x.(j) /. m in
            e := !e +. (cap.(j) *. v *. v)
          done;
          let rec below p =
            p = nprobe
            || (match probes.(p) with
               | Slot i ->
                   (* a subnormal bound would lose the margin to rounding *)
                   let bound = m *. sqrt (!e /. cap.(i)) in
                   bound >= Float.min_float && bound *. (1.0 +. margin) <= peaks.(p)
               | Zero | Wave _ -> true)
               && below (p + 1)
          in
          below 0
        in
        (* a state of exact zeros stays exactly zero, however stiff the
           deck *)
        fun k x ->
          k mod check_every = 0
          && time k >= settle
          &&
          let m = largest x in
          m = 0.0 || (certified && bounded x m)
    | _ -> fun _ _ -> false
  in
  let taken =
    if steps = 0 then 0
    else begin
      let step = kernel.stepper (2.0 /. dt) in
      let rec from k =
        let t = time k in
        (* Conductive RHS at both ends of the step: -G_fd (v_d(t1) +
           v_d(t0)). Capacitive RHS, charge-exact: the integral of -C_fd
           dv_d/dt over the step is -C_fd (v_d(t1) - v_d(t0)) exactly,
           which keeps trapezoidal integration second-order accurate even
           across waveform kinks; scaled by 2/h to match the step
           equation. *)
        let scale = 2.0 /. (t -. time (k - 1)) in
        for s = 0 to nsrc - 1 do
          let vt = Waveform.value waves.(s) t in
          v.(s) <- vt +. v_prev.(s);
          v.(nsrc + s) <- scale *. (vt -. v_prev.(s));
          v_prev.(s) <- vt
        done;
        step x v;
        observe k x;
        if k = steps || finished k x then k else from (k + 1)
      in
      from 1
    end
  in
  let finals = Array.map (value x (time taken)) probes in
  {
    times = Array.init (taken + 1) time;
    peaks;
    peak_times;
    finals;
    traces;
    solver = kernel.solver;
  }

let check_times ~dt ~t_end =
  if dt <= 0.0 || t_end < 0.0 then invalid_arg "Transient.simulate: bad time parameters"

let kernel_of sys = match forest_kernel sys with Some k -> k | None -> dense_kernel sys

let simulate ?(record = false) nl ~dt ~t_end ~probes =
  check_times ~dt ~t_end;
  let sys = Mna.build nl in
  run (kernel_of sys) sys nl ~record ~early:false ~dt ~t_end ~probes

let simulate_peaks nl ~dt ~t_end ~probes =
  check_times ~dt ~t_end;
  let sys = Mna.build nl in
  run (kernel_of sys) sys nl ~record:false ~early:true ~dt ~t_end ~probes

let simulate_dense ?(record = false) nl ~dt ~t_end ~probes =
  check_times ~dt ~t_end;
  let sys = Mna.build nl in
  run (dense_kernel sys) sys nl ~record ~early:false ~dt ~t_end ~probes
