let esc s =
  String.concat "" (List.map (fun c -> if c = '"' then "\\\"" else String.make 1 c) (List.init (String.length s) (String.get s)))

let render ?(name = "rctree") t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n  rankdir=LR;\n" (esc name));
  List.iter
    (fun v ->
      let attrs =
        match Tree.kind t v with
        | Tree.Source d ->
            Printf.sprintf "shape=house,label=\"src\\nR=%.0f\"" d.Tree.r_drv
        | Tree.Sink s ->
            Printf.sprintf "shape=box,label=\"%s\\nnm=%.2fV\"" (esc s.Tree.sname) s.Tree.nm
        | Tree.Internal ->
            if Tree.feasible t v then "shape=point" else "shape=point,color=gray"
        | Tree.Buffered b ->
            Printf.sprintf "shape=triangle,label=\"%s\"" (esc b.Tech.Buffer.name)
      in
      Buffer.add_string buf (Printf.sprintf "  n%d [%s];\n" v attrs))
    (List.rev (Tree.postorder t));
  List.iter
    (fun v ->
      if v <> Tree.root t then begin
        let w = Tree.wire_to t v in
        let label =
          if w.Tree.length > 0.0 then
            Printf.sprintf " [label=\"%.2fmm%s\"]" (w.Tree.length *. 1e3)
              (if w.Tree.cur > 0.0 then Printf.sprintf "\\n%.2fmA" (w.Tree.cur *. 1e3) else "")
          else ""
        in
        Buffer.add_string buf (Printf.sprintf "  n%d -> n%d%s;\n" (Tree.parent t v) v label)
      end)
    (List.rev (Tree.postorder t));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
