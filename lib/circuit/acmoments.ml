type t = { source : Netlist.node; moments : float array array }

(* [G x = b] solvers, each factoring G once: the leaf-first LDL^T of an
   RC forest (O(n) per solve, C applied through its sparse stamps), or
   dense LU for every other deck *)
let forest_system (sys : Mna.t) plan =
  let f = Forest.factor plan (Forest.gather plan sys.Mna.g_diag) in
  let n = Mna.dim sys in
  let solve b =
    let y = Forest.gather plan b in
    Forest.forward plan f y;
    Forest.backward plan f y y;
    Array.init n (fun i -> y.(plan.Forest.slot.(i)))
  in
  let mul_c h =
    let r = Array.mapi (fun i c -> c *. h.(i)) sys.Mna.c_diag in
    List.iter
      (fun (e : Mna.edge) ->
        r.(e.Mna.i) <- r.(e.Mna.i) +. (e.Mna.v *. h.(e.Mna.j));
        r.(e.Mna.j) <- r.(e.Mna.j) +. (e.Mna.v *. h.(e.Mna.i)))
      sys.Mna.c_off;
    r
  in
  (solve, mul_c)

let dense_system sys =
  let lu = Linalg.Mat.lu_factor (Mna.g sys) in
  let c = Mna.c sys in
  (Linalg.Mat.lu_solve lu, Linalg.Mat.mul_vec c)

let moments_with system nl ~order ~probes =
  if order < 0 then invalid_arg "Acmoments.transfer_moments: negative order";
  let sys = Mna.build nl in
  let solve, mul_c = system sys in
  let probes = Array.of_list probes in
  let extract x =
    Array.map
      (fun p ->
        let i = Mna.free_index sys p in
        if i < 0 then 0.0 else x.(i))
      probes
  in
  List.mapi
    (fun s d ->
      let excitation entries =
        let b = Linalg.Vec.make (Mna.dim sys) in
        Array.iter
          (fun (e : Mna.rhs) -> if e.Mna.src = s then b.(e.Mna.row) <- b.(e.Mna.row) -. e.Mna.coeff)
          entries;
        b
      in
      let moments = Array.make (order + 1) [||] in
      let h = ref (solve (excitation sys.Mna.g_drv)) in
      moments.(0) <- extract !h;
      for k = 1 to order do
        let rhs = mul_c !h in
        Linalg.Vec.scale (-1.0) rhs;
        if k = 1 then Linalg.Vec.axpy 1.0 (excitation sys.Mna.c_drv) rhs;
        h := solve rhs;
        moments.(k) <- extract !h
      done;
      { source = Netlist.of_id d; moments })
    (Array.to_list sys.Mna.sources)

let transfer_moments =
  moments_with (fun sys ->
      match Forest.plan sys with
      | Some plan -> forest_system sys plan
      | None -> dense_system sys)

let transfer_moments_dense = moments_with dense_system
