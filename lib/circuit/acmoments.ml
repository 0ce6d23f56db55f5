type t = { source : Netlist.node; moments : float array array }

let transfer_moments nl ~order ~probes =
  if order < 0 then invalid_arg "Acmoments.transfer_moments: negative order";
  let sys = Mna.build nl in
  let lu = Linalg.Mat.lu_factor (Mna.g sys) in
  let c = Mna.c sys in
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
      let h = ref (Linalg.Mat.lu_solve lu (excitation sys.Mna.g_drv)) in
      moments.(0) <- extract !h;
      for k = 1 to order do
        let rhs = Linalg.Mat.mul_vec c !h in
        Linalg.Vec.scale (-1.0) rhs;
        if k = 1 then Linalg.Vec.axpy 1.0 (excitation sys.Mna.c_drv) rhs;
        h := Linalg.Mat.lu_solve lu rhs;
        moments.(k) <- extract !h
      done;
      { source = Netlist.of_id d; moments })
    (Array.to_list sys.Mna.sources)
