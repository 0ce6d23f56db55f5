open Helpers
module P = Geometry.Point

let point_gen = QCheck2.Gen.(map (fun (x, y) -> P.make x y) (pair (int_range (-1000) 1000) (int_range (-1000) 1000)))

let tests =
  [
    case "manhattan known" (fun () ->
        Alcotest.(check int) "dist" 7 (P.manhattan (P.make 0 0) (P.make 3 4)));
    qcase "manhattan symmetric" QCheck2.Gen.(pair point_gen point_gen) (fun (a, b) ->
        P.manhattan a b = P.manhattan b a);
    qcase "manhattan identity" point_gen (fun a -> P.manhattan a a = 0);
    qcase "triangle inequality" QCheck2.Gen.(triple point_gen point_gen point_gen)
      (fun (a, b, c) -> P.manhattan a c <= P.manhattan a b + P.manhattan b c);
    case "compare orders lexicographically" (fun () ->
        Alcotest.(check bool) "lt" true (P.compare (P.make 0 5) (P.make 1 0) < 0);
        Alcotest.(check bool) "y tiebreak" true (P.compare (P.make 1 0) (P.make 1 2) < 0));
    qcase "bbox contains its points" QCheck2.Gen.(list_size (int_range 1 20) point_gen)
      (fun pts ->
        let b = Geometry.Bbox.of_points pts in
        List.for_all (Geometry.Bbox.contains b) pts);
    case "half perimeter known" (fun () ->
        let b = Geometry.Bbox.of_points [ P.make 0 0; P.make 3 4 ] in
        Alcotest.(check int) "hp" 7 (Geometry.Bbox.half_perimeter b));
    case "bbox of empty rejected" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Bbox.of_points: empty") (fun () ->
            ignore (Geometry.Bbox.of_points [])));
  ]

let suites = [ ("geometry", tests) ]
