type t = {
  cname : string;
  n_inputs : int;
  c_in : float;
  r_out : float;
  d_intr : float;
  nm : float;
}

let mk cname n_inputs c_in r_out d_intr nm = { cname; n_inputs; c_in; r_out; d_intr; nm }

let library =
  [
    mk "inv_x1" 1 2.5e-15 700.0 25e-12 0.8;
    mk "inv_x4" 1 8e-15 190.0 22e-12 0.8;
    mk "nand2_x1" 2 3.5e-15 800.0 35e-12 0.8;
    mk "nand2_x4" 2 11e-15 220.0 32e-12 0.8;
    mk "nor2_x1" 2 3.8e-15 900.0 38e-12 0.8;
    mk "aoi21_x2" 3 6e-15 450.0 45e-12 0.8;
    (* domino stages: fast but noise-sensitive inputs *)
    mk "dyn_and2" 2 4e-15 260.0 18e-12 0.5;
    mk "dyn_or3" 3 4.5e-15 240.0 16e-12 0.5;
  ]

let find name = List.find (fun c -> c.cname = name) library

let upsize t =
  match t.cname with
  | "inv_x1" -> Some (find "inv_x4")
  | "nand2_x1" -> Some (find "nand2_x4")
  | _ -> None
