module T = Rctree.Tree
module S = Rctree.Surgery

type violation = { code : string; node : int; detail : string }

let pp_violation v =
  if v.node >= 0 then Printf.sprintf "[%s] node %d: %s" v.code v.node v.detail
  else Printf.sprintf "[%s] %s" v.code v.detail

type expect = {
  count : int option;
  slack : float option;
  noise_clean : bool;
  feasible_only : bool;
}

let default_expect = { count = None; slack = None; noise_clean = false; feasible_only = false }

let check_placements expect tree pls =
  let n = T.node_count tree in
  let bad = ref [] in
  let push code node detail = bad := { code; node; detail } :: !bad in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (p : S.placement) ->
      if p.S.node < 0 || p.S.node >= n then
        push "placement-range" p.S.node (Printf.sprintf "tree has %d nodes" n)
      else if p.S.node = T.root tree then
        push "placement-root" p.S.node "a buffer cannot replace the source"
      else begin
        let w = T.wire_to tree p.S.node in
        if p.S.dist < 0.0 || p.S.dist > w.T.length then
          push "placement-dist" p.S.node
            (Printf.sprintf "dist %.6g outside parent wire of length %.6g" p.S.dist
               w.T.length);
        if expect.feasible_only then begin
          (* the DP family buffers feasible internal nodes, dist = 0 *)
          if p.S.dist <> 0.0 then
            push "placement-offset" p.S.node
              (Printf.sprintf "DP solutions place at nodes, got dist %.6g" p.S.dist);
          (match T.kind tree p.S.node with
          | T.Internal when T.feasible tree p.S.node -> ()
          | T.Internal -> push "placement-infeasible" p.S.node "node is marked infeasible"
          | _ -> push "placement-infeasible" p.S.node "DP solutions buffer internal nodes")
        end;
        let key = (p.S.node, p.S.dist) in
        if Hashtbl.mem seen key then
          push "placement-duplicate" p.S.node
            (Printf.sprintf "two buffers at dist %.6g" p.S.dist)
        else Hashtbl.add seen key ()
      end)
    pls;
  List.rev !bad

(* Inversion parity seen by every sink of the applied tree: along the
   source->sink path the signal flips at each inverting buffer and must
   arrive true (the polarity constraint of Lillis et al. the DPs track). *)
let check_polarity applied =
  List.filter_map
    (fun s ->
      let inversions =
        List.fold_left
          (fun acc v ->
            match T.kind applied v with
            | T.Buffered b when b.Tech.Buffer.inverting -> acc + 1
            | _ -> acc)
          0 (T.path_up applied s)
      in
      if inversions land 1 = 0 then None
      else
        Some
          {
            code = "polarity";
            node = s;
            detail = Printf.sprintf "sink sees %d inversions" inversions;
          })
    (T.sinks applied)

(* Theorem 1 at every driving gate of the applied tree: the noise the
   gate's output resistance injects must fit the downstream stage's noise
   slack, [r_g * I(g) <= ns]. The stage slack at a gate's *output* is
   derived from the children ([Noise.noise_slack] at a buffer node
   reports the buffer *input*'s margin, i.e. the upstream view). *)
let check_gate_drive applied =
  let curs = Noise.cur_at applied in
  let ns = Noise.noise_slack applied in
  List.filter_map
    (fun g ->
      match T.children applied g with
      | [] -> None
      | children ->
          let r_g =
            match T.kind applied g with
            | T.Source d -> d.T.r_drv
            | T.Buffered b -> b.Tech.Buffer.r_b
            | _ -> assert false
          in
          let i_g = Noise.drive_current applied curs g in
          let stage_ns =
            List.fold_left
              (fun acc c ->
                Float.min acc
                  (ns.(c) -. Noise.wire_noise (T.wire_to applied c) ~downstream:curs.(c)))
              infinity children
          in
          if r_g *. i_g <= stage_ns +. Noise.margin_eps then None
          else
            Some
              {
                code = "gate-drive-noise";
                node = g;
                detail =
                  Printf.sprintf "r_g*I = %.6g V exceeds stage noise slack %.6g V"
                    (r_g *. i_g) stage_ns;
              })
    (T.gates applied)

let check ?(expect = default_expect) tree pls =
  let bad = check_placements expect tree pls in
  if bad <> [] then Error bad
  else
    match S.apply tree pls with
    | exception Invalid_argument m ->
        Error [ { code = "surgery-reject"; node = -1; detail = m } ]
    | applied -> (
        match T.validate applied with
        | Error m -> Error [ { code = "tree-invalid"; node = -1; detail = m } ]
        | Ok () ->
            let report = Bufins.Eval.of_tree applied in
            let bad = ref (check_polarity applied) in
            let push code detail = bad := { code; node = -1; detail } :: !bad in
            (match expect.count with
            | Some c when c <> report.Bufins.Eval.buffers ->
                push "count-mismatch"
                  (Printf.sprintf "optimizer claimed %d buffers, applied tree has %d" c
                     report.Bufins.Eval.buffers)
            | _ -> ());
            (match expect.slack with
            | Some s
              when not (Util.Fx.approx ~rel:1e-9 ~abs:1e-15 s report.Bufins.Eval.slack)
              ->
                push "slack-mismatch"
                  (Printf.sprintf "optimizer claimed %.17g s, evaluator finds %.17g s" s
                     report.Bufins.Eval.slack)
            | _ -> ());
            if expect.noise_clean then begin
              List.iter
                (fun (v, noise, margin) ->
                  bad :=
                    {
                      code = "noise-violation";
                      node = v;
                      detail = Printf.sprintf "noise %.6g V over margin %.6g V" noise margin;
                    }
                    :: !bad)
                report.Bufins.Eval.noise_violations;
              bad := check_gate_drive applied @ !bad
            end;
            if !bad = [] then Ok report else Error !bad)
