let sweep2 ~cost ~value l =
  let dropped = ref 0 in
  let push kept x =
    match kept with
    | k :: tl when cost k = cost x && value k <= value x -> (
        (* x retro-dominates the newest survivor (equal cost, no better value) *)
        incr dropped;
        match tl with
        | k2 :: _ when value k2 >= value x ->
            incr dropped;
            tl
        | _ -> x :: tl)
    | k :: _ when value k >= value x ->
        incr dropped;
        kept
    | _ -> x :: kept
  in
  let kept = List.fold_left push [] l in
  (List.rev kept, !dropped)

let sweep_dom ~cost ~dominates l =
  let dropped = ref 0 in
  let kept =
    List.fold_left
      (fun kept x ->
        if List.exists (fun k -> dominates k x) kept then begin
          incr dropped;
          kept
        end
        else
          (* x may retro-dominate survivors of equal cost (arbitrary tie order) *)
          x
          :: List.filter
               (fun k ->
                 if cost k = cost x && dominates x k then begin
                   incr dropped;
                   false
                 end
                 else true)
               kept)
      [] l
  in
  (List.rev kept, !dropped)

let pareto_dom ~cmp ~cost ~dominates l = sweep_dom ~cost ~dominates (List.sort cmp l)

let merge2 ~value ~join l r =
  let rec go acc l r =
    match (l, r) with
    | [], _ | _, [] -> List.rev acc
    | a :: ltl, b :: rtl ->
        let acc = join a b :: acc in
        if value a < value b then go acc ltl r
        else if value b < value a then go acc l rtl
        else go acc ltl rtl
  in
  go [] l r

(* balanced pairwise merging: O(total log runs), not O(total * runs) *)
let merge_sorted cmp runs =
  let rec pair_up = function
    | a :: b :: tl -> List.merge cmp a b :: pair_up tl
    | l -> l
  in
  let rec go = function [] -> [] | [ r ] -> r | rs -> go (pair_up rs) in
  go runs
