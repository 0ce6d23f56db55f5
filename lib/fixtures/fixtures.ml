module T = Rctree.Tree
module B = Rctree.Builder

let fig3 () =
  let b = B.create () in
  let so = B.add_source b ~r_drv:10.0 ~d_drv:0.0 in
  let w1 = T.make_wire ~length:1.0 ~res:2.0 ~cap:1.0 ~cur:4.0 in
  let v1 = B.add_internal b ~parent:so ~wire:w1 () in
  let w2 = T.make_wire ~length:1.0 ~res:3.0 ~cap:1.0 ~cur:2.0 in
  ignore (B.add_sink b ~parent:v1 ~wire:w2 ~name:"s1" ~c_sink:1.0 ~rat:1.0 ~nm:200.0);
  let w3 = T.make_wire ~length:1.0 ~res:2.0 ~cap:1.0 ~cur:6.0 in
  ignore (B.add_sink b ~parent:v1 ~wire:w3 ~name:"s2" ~c_sink:1.0 ~rat:1.0 ~nm:150.0);
  B.finish b

let two_pin ?(r_drv = 100.0) ?(c_sink = 20e-15) ?(rat = 2e-9) ?(nm = 0.8) p ~len =
  let b = B.create () in
  let so = B.add_source b ~r_drv ~d_drv:30e-12 in
  ignore (B.add_sink b ~parent:so ~wire:(T.wire_of_length p len) ~name:"s" ~c_sink ~rat ~nm);
  B.finish b

let balanced ?(fanout_len = 1e-3) p ~levels ~trunk_len =
  let b = B.create () in
  let so = B.add_source b ~r_drv:120.0 ~d_drv:30e-12 in
  let trunk = B.add_internal b ~parent:so ~wire:(T.wire_of_length p trunk_len) () in
  let counter = ref 0 in
  let rec grow parent level =
    if level = 0 then begin
      let name = Printf.sprintf "s%d" !counter in
      incr counter;
      ignore
        (B.add_sink b ~parent ~wire:(T.wire_of_length p fanout_len) ~name ~c_sink:20e-15
           ~rat:2e-9 ~nm:0.8)
    end
    else begin
      let l = B.add_internal b ~parent ~wire:(T.wire_of_length p fanout_len) () in
      let r = B.add_internal b ~parent ~wire:(T.wire_of_length p fanout_len) () in
      grow l (level - 1);
      grow r (level - 1)
    end
  in
  if levels = 0 then grow trunk 0
  else begin
    grow trunk (levels - 1);
    grow trunk (levels - 1)
  end;
  B.finish b

let random_net rng p ~max_sinks ~max_len =
  let b = B.create () in
  let so = B.add_source b ~r_drv:(Util.Rng.range rng 20.0 250.0) ~d_drv:(Util.Rng.range rng 0.0 60e-12) in
  let n_sinks = 1 + Util.Rng.int rng max_sinks in
  (* grow by random attachment: each new sink hangs off a random existing
     attachable node (source or internal) *)
  let attach_points = ref [ so ] in
  let wire () = T.wire_of_length p (Util.Rng.range rng (max_len /. 50.0) max_len) in
  for k = 0 to n_sinks - 1 do
    let parent = List.nth !attach_points (Util.Rng.int rng (List.length !attach_points)) in
    (* interpose a random number of internal nodes *)
    let rec chain parent depth =
      if depth = 0 then parent
      else begin
        let v = B.add_internal b ~parent ~wire:(wire ()) () in
        attach_points := v :: !attach_points;
        chain v (depth - 1)
      end
    in
    let parent = chain parent (Util.Rng.int rng 3) in
    ignore
      (B.add_sink b ~parent ~wire:(wire ())
         ~name:(Printf.sprintf "s%d" k)
         ~c_sink:(Util.Rng.range rng 2e-15 60e-15)
         ~rat:(Util.Rng.range rng 0.2e-9 3e-9)
         ~nm:(Util.Rng.range rng 0.5 1.2))
  done;
  B.finish b

let caterpillar p sinks =
  let rng = Util.Rng.create 99 in
  let b = B.create () in
  let so = B.add_source b ~r_drv:100.0 ~d_drv:30e-12 in
  let attach = ref [ so ] in
  for k = 0 to sinks - 1 do
    let parent = List.nth !attach (Util.Rng.int rng (List.length !attach)) in
    let v =
      B.add_internal b ~parent ~wire:(T.wire_of_length p (Util.Rng.range rng 0.2e-3 1.5e-3)) ()
    in
    attach := v :: !attach;
    ignore
      (B.add_sink b ~parent:v
         ~wire:(T.wire_of_length p (Util.Rng.range rng 0.2e-3 1e-3))
         ~name:(Printf.sprintf "s%d" k) ~c_sink:15e-15 ~rat:4e-9 ~nm:0.8)
  done;
  B.finish b
