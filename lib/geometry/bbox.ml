type t = { xmin : int; ymin : int; xmax : int; ymax : int }

let of_points = function
  | [] -> invalid_arg "Bbox.of_points: empty"
  | p :: ps ->
      List.fold_left
        (fun b (q : Point.t) ->
          { xmin = min b.xmin q.x; ymin = min b.ymin q.y; xmax = max b.xmax q.x; ymax = max b.ymax q.y })
        { xmin = p.Point.x; ymin = p.Point.y; xmax = p.Point.x; ymax = p.Point.y }
        ps

let half_perimeter b = b.xmax - b.xmin + (b.ymax - b.ymin)

let contains b (p : Point.t) = p.x >= b.xmin && p.x <= b.xmax && p.y >= b.ymin && p.y <= b.ymax
