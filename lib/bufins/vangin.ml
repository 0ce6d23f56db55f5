let best_exn outcome =
  match outcome.Dp.best with
  | Some r -> r
  | None -> assert false (* the zero-buffer candidate always survives without noise checks *)

let run ?pruning ?memo ~lib tree =
  best_exn (Dp.run ?pruning ?memo ~noise:false ~mode:Dp.Single ~lib tree)

let run_max ?pruning ?memo ~max_buffers ~lib tree =
  best_exn (Dp.run ?pruning ?memo ~noise:false ~mode:(Dp.Up_to max_buffers) ~lib tree)

let by_count ?pruning ?memo ~kmax ~lib tree =
  (Dp.run ?pruning ?memo ~noise:false ~mode:(Dp.Per_count kmax) ~lib tree).Dp.by_count

let run_power ?pruning ?memo ~budget ~kmax ~lib tree =
  best_exn
    (Dp.run ?pruning ?memo ~noise:false ~mode:(Dp.Power_bounded { budget; kmax }) ~lib tree)
