open Helpers

let rng_tests =
  [
    case "same seed, same stream" (fun () ->
        let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "bits" (Util.Rng.bits64 a) (Util.Rng.bits64 b)
        done);
    case "different seeds differ" (fun () ->
        let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
        Alcotest.(check bool) "differ" true (Util.Rng.bits64 a <> Util.Rng.bits64 b));
    case "copy is independent" (fun () ->
        let a = Util.Rng.create 7 in
        let b = Util.Rng.copy a in
        let x = Util.Rng.bits64 a in
        Alcotest.(check int64) "copy replays" x (Util.Rng.bits64 b));
    case "split decorrelates" (fun () ->
        let a = Util.Rng.create 7 in
        let b = Util.Rng.split a in
        Alcotest.(check bool) "streams differ" true (Util.Rng.bits64 a <> Util.Rng.bits64 b));
    case "split streams share no values" (fun () ->
        (* independence, not just a differing first draw: the child's
           stream and the parent's continued stream never collide over a
           window (2^-56-ish collision odds for honest 64-bit streams) *)
        let parent = Util.Rng.create 99 in
        let child = Util.Rng.split parent in
        let draw r = List.init 256 (fun _ -> Util.Rng.bits64 r) in
        let from_child = draw child and from_parent = draw parent in
        List.iter
          (fun v ->
            Alcotest.(check bool) "value reappears in parent stream" false
              (List.mem v from_parent))
          from_child);
    case "copy replays the source byte for byte" (fun () ->
        (* not just the next draw: after burning part of the stream, a
           copy must track the original over a long window and across
           every derived draw kind *)
        let a = Util.Rng.create 13 in
        for _ = 1 to 10 do
          ignore (Util.Rng.bits64 a)
        done;
        let b = Util.Rng.copy a in
        for i = 1 to 100 do
          Alcotest.(check int64)
            (Printf.sprintf "draw %d" i)
            (Util.Rng.bits64 a) (Util.Rng.bits64 b)
        done;
        Alcotest.(check int) "int draw" (Util.Rng.int a 1000) (Util.Rng.int b 1000);
        Alcotest.(check (float 0.0)) "float draw" (Util.Rng.float a 1.0) (Util.Rng.float b 1.0);
        Alcotest.(check bool) "bool draw" (Util.Rng.bool a) (Util.Rng.bool b));
    qcase "int in range" QCheck2.Gen.(pair small_int (int_range 1 1000)) (fun (seed, n) ->
        let r = Util.Rng.create seed in
        let v = Util.Rng.int r n in
        v >= 0 && v < n);
    qcase "float in range" QCheck2.Gen.(pair small_int (float_range 1e-6 1e6)) (fun (seed, x) ->
        let r = Util.Rng.create seed in
        let v = Util.Rng.float r x in
        v >= 0.0 && v < x);
    qcase "range bounds" QCheck2.Gen.(triple small_int (float_range (-100.) 100.) (float_range 0.1 50.))
      (fun (seed, lo, span) ->
        let r = Util.Rng.create seed in
        let v = Util.Rng.range r lo (lo +. span) in
        v >= lo && v < lo +. span);
    case "shuffle permutes" (fun () ->
        let r = Util.Rng.create 9 in
        let a = Array.init 50 (fun i -> i) in
        Util.Rng.shuffle r a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted);
    case "choice picks member" (fun () ->
        let r = Util.Rng.create 11 in
        for _ = 1 to 50 do
          let v = Util.Rng.choice r [| 2; 4; 8 |] in
          Alcotest.(check bool) "member" true (List.mem v [ 2; 4; 8 ])
        done);
  ]

let stats_tests =
  [
    case "mean/std/min/max" (fun () ->
        let s = Util.Stats.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
        feq "mean" 2.5 (Util.Stats.mean s);
        feq "min" 1.0 (Util.Stats.min s);
        feq "max" 4.0 (Util.Stats.max s);
        feq "std" ~eps:1e-6 (sqrt 1.25) (Util.Stats.stddev s);
        feq "total" 10.0 (Util.Stats.total s);
        Alcotest.(check int) "count" 4 (Util.Stats.count s));
    case "empty accumulator" (fun () ->
        let s = Util.Stats.create () in
        Alcotest.(check int) "count" 0 (Util.Stats.count s);
        Alcotest.(check bool) "mean nan" true (Float.is_nan (Util.Stats.mean s)));
    case "percentile endpoints" (fun () ->
        let xs = [ 5.0; 1.0; 3.0 ] in
        feq "p0" 1.0 (Util.Stats.percentile xs 0.0);
        feq "p100" 5.0 (Util.Stats.percentile xs 100.0);
        feq "p50" 3.0 (Util.Stats.percentile xs 50.0));
    case "percentile interpolates" (fun () ->
        feq "p25" 1.5 (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 25.0));
    qcase "stddev non-negative" QCheck2.Gen.(list_size (int_range 2 40) (float_range (-1e3) 1e3))
      (fun xs ->
        let s = Util.Stats.of_list xs in
        Util.Stats.stddev s >= 0.0);
  ]

let fx_tests =
  [
    case "approx relative" (fun () ->
        Alcotest.(check bool) "close" true (Util.Fx.approx 1.0 (1.0 +. 1e-12));
        Alcotest.(check bool) "far" false (Util.Fx.approx 1.0 1.1));
    case "approx absolute near zero" (fun () ->
        Alcotest.(check bool) "tiny" true (Util.Fx.approx 0.0 1e-13));
    case "clamp" (fun () ->
        feq "below" 1.0 (Util.Fx.clamp ~lo:1.0 ~hi:2.0 0.0);
        feq "above" 2.0 (Util.Fx.clamp ~lo:1.0 ~hi:2.0 3.0);
        feq "inside" 1.5 (Util.Fx.clamp ~lo:1.0 ~hi:2.0 1.5));
    case "si prefixes" (fun () ->
        Alcotest.(check string) "pico" "3.200p" (Util.Fx.si 3.2e-12);
        Alcotest.(check string) "kilo" "2.000k" (Util.Fx.si 2e3);
        Alcotest.(check string) "zero" "0" (Util.Fx.si 0.0));
    case "pct" (fun () ->
        feq "plus" 10.0 (Util.Fx.pct 100.0 110.0);
        feq "zero base" 0.0 (Util.Fx.pct 0.0 5.0));
  ]

let ftab_tests =
  [
    case "render contains cells" (fun () ->
        let t = Util.Ftab.create ~title:"T" ~headers:[ "a"; "bb" ] in
        Util.Ftab.add_row t [ "x"; "y" ];
        let s = Util.Ftab.render t in
        Alcotest.(check bool) "title" true (String.length s > 0 && s.[0] = 'T');
        Alcotest.(check bool) "has x" true (String.index_opt s 'x' <> None);
        Alcotest.(check bool) "has header" true (String.index_opt s 'b' <> None));
    case "rows align" (fun () ->
        let t = Util.Ftab.create ~title:"T" ~headers:[ "col" ] in
        Util.Ftab.add_row t [ "longvalue" ];
        Util.Ftab.add_row t [ "s" ];
        let lines = String.split_on_char '\n' (Util.Ftab.render t) in
        let widths = List.filter_map (fun l -> if l <> "" && l.[0] = '|' then Some (String.length l) else None) lines in
        match widths with
        | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "width" w w') rest
        | [] -> Alcotest.fail "no rows");
  ]


(* appended: dominance-pruning properties for the shared candidate ops *)

(* random trace-construction programs, mirroring every arena constructor *)
type trace_op =
  | OLeaf
  | OBuf of int * trace_op
  | OResize of int * trace_op
  | OJoin of trace_op * trace_op

let trace_op_gen =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then return OLeaf
           else
             frequency
               [
                 (1, return OLeaf);
                 (3, map2 (fun i t -> OBuf (i, t)) (int_range 0 20) (self (n - 1)));
                 (2, map2 (fun i t -> OResize (i, t)) (int_range 0 20) (self (n - 1)));
                 (2, map2 (fun l r -> OJoin (l, r)) (self (n / 2)) (self (n / 2)));
               ]))

(* A Flat row as a record: the reference algorithms of Frontier and the
   properties' generators work on lists of these *)
type row = { c : float; q : float; i : float; ns : float; p : float; tr : float }

let mk c q = { c; q; i = 0.0; ns = 1.0; p = 0.0; tr = 0.0 }

let group_of rows =
  Bufins.Flat.of_array
    (Array.concat (List.map (fun r -> [| r.c; r.q; r.i; r.ns; r.p; r.tr |]) rows))

let rows_of (g : Bufins.Flat.group) =
  List.init g.Bufins.Flat.n (fun k ->
      let f i = g.Bufins.Flat.a.(g.Bufins.Flat.o + (6 * k) + i) in
      { c = f 0; q = f 1; i = f 2; ns = f 3; p = f 4; tr = f 5 })

let cmp_frontier a b =
  match Float.compare a.c b.c with
  | 0 -> (
      match Float.compare b.q a.q with
      | 0 -> ( match Float.compare a.i b.i with 0 -> Float.compare b.ns a.ns | n -> n)
      | n -> n)
  | n -> n

let cmp_frontier_power a b = match cmp_frontier a b with 0 -> Float.compare a.p b.p | n -> n
let dominates_full a b = a.c <= b.c && a.q >= b.q && a.i <= b.i && a.ns >= b.ns

(* a branch pairing, joined eagerly *)
let join ~arena a b =
  {
    c = a.c +. b.c;
    q = Float.min a.q b.q;
    i = a.i +. b.i;
    ns = Float.min a.ns b.ns;
    p = a.p +. b.p;
    tr =
      float_of_int
        (Bufins.Trace.join arena ~left:(int_of_float a.tr) ~right:(int_of_float b.tr));
  }

(* the staged rows [perm.(0 .. n-1)], in that order *)
let staged_rows (s : Bufins.Flat.t) n =
  List.init n (fun k ->
      let x = 6 * s.Bufins.Flat.perm.(k) in
      let f k = s.Bufins.Flat.xs.(x + k) in
      { c = f 0; q = f 1; i = f 2; ns = f 3; p = f 4; tr = f 5 })

(* the staged rows [perm.(0 .. nk-1)] written out: a merge's survivors
   joined, stand-ins given their buffer nodes *)
let written ?(at = 0) ?(bufs = [||]) (s : Bufins.Flat.t) ~arena nk =
  let g = Bufins.Flat.group () in
  Bufins.Flat.write s ~arena ~at ~bufs (Bufins.Flat.store ()) nk g;
  rows_of g

let joined s ~arena nk = written s ~arena nk

(* [walks] as the branch merges take them: walk [w] pairs slot [w] of
   the left side with slot [w] of the right one *)
let sides walks =
  let n = List.length walks in
  ( Array.of_list (List.map fst walks),
    Array.of_list (List.map snd walks),
    Array.init (2 * n) (fun k -> k / 2),
    n )

(* [rows] staged in order and swept by [sweep]: the survivors and the
   drop count *)
let swept (s : Bufins.Flat.t) sweep rows =
  let n = Bufins.Flat.stage s (group_of rows) in
  let nk = sweep n in
  (staged_rows s nk, n - nk)

let candidate_tests =
  let module C = Bufins.Candidate in
  let module Fl = Bufins.Flat in
  let module Fr = Bufins.Frontier in
  (* candidates varying in all four pruning coordinates; coarse grids keep
     dominance chains and equal-cost ties frequent *)
  let gen4 =
    QCheck2.Gen.(
      list_size (int_range 1 30)
        (map
           (fun (c, q, i, ns) ->
             {
               (mk (float_of_int c *. 1e-15) (float_of_int q *. 1e-10)) with
               i = float_of_int i *. 1e-3;
               ns = float_of_int ns *. 0.1;
             })
           (quad (int_range 1 6) (int_range 0 6) (int_range 0 6) (int_range 0 6))))
  in
  let cost a = a.c and value a = a.q in
  (* power-mode candidates on exact binary grids (sums of grid points are
     exact), so loads, slacks and energies tie often, also after a merge *)
  let grid c q p =
    {
      (mk (Float.ldexp (float_of_int c) (-50)) (Float.ldexp (float_of_int q) (-33))) with
      p = Float.ldexp (float_of_int p) (-50);
    }
  in
  let gen_power =
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (map
           (fun ((c, q, p), (i, ns)) ->
             { (grid c q p) with i = float_of_int i *. 1e-3; ns = float_of_int ns *. 0.1 })
           (pair
              (triple (int_range 1 6) (int_range 0 6) (int_range 0 6))
              (pair (int_range 0 2) (int_range 0 2)))))
  in
  let s = Fl.create () in
  let delay n = C.sweep_delay s (C.counts ()) ~bound:0.0 n in
  let full n = C.sweep_full s (C.counts ()) ~bound:0.0 n in
  let power n = C.sweep_power s n in
  (* A delay-mode merge slot: 2-3 walks over swept groups. Loads come on
     three scales — small integers, 1 + k ulp and multiples of 256 — so
     a tiny load added to a big one rounds the ulps away: such a walk
     ties two loads after rounding and lists them out of frontier
     order. Walks share groups, so coordinates also tie across walks. *)
  let gen_slot =
    QCheck2.Gen.(
      let group =
        map2
          (fun scale pts ->
            let c k =
              match scale with
              | 0 -> float_of_int k
              | 1 -> 1.0 +. (float_of_int k *. epsilon_float)
              | _ -> Float.ldexp (float_of_int k) 8
            in
            fst
              (Fr.sweep2 ~cost ~value
                 (List.sort cmp_frontier
                    (List.map (fun (k, q) -> mk (c k) (float_of_int q)) pts))))
          (int_range 0 2)
          (list_size (int_range 1 8) (pair (int_range 0 6) (int_range 0 6)))
      in
      let* pool = array_repeat 4 group in
      let* n = int_range 2 3 in
      list_repeat n (map2 (fun l r -> (pool.(l), pool.(r))) (int_range 0 3) (int_range 0 3)))
  in
  (* a DP group: sorted, current and noise slack fixed, as in delay mode *)
  let gen_group =
    QCheck2.Gen.(
      map (List.sort cmp_frontier_power)
        (list_size (int_range 1 12)
           (map
              (fun (c, q, p) -> grid c q p)
              (triple (int_range 1 6) (int_range 0 6) (int_range 0 7)))))
  in
  (* the quadratic reference of the 3-axis sweep on a sorted list *)
  let ref_sweep_power l =
    List.rev
      (List.fold_left
         (fun kept x ->
           if List.exists (fun k -> k.q >= x.q && k.p <= x.p) kept then kept else x :: kept)
         [] l)
  in
  (* the DP's delay-power branch merge of the walks feeding one slot;
     its counts must add up: every in-budget pairing is generated, and
     all but the survivors are dropped *)
  let merge_power ?(arena = Bufins.Trace.create ()) ?(prune = true) ~budget walks =
    let lt, rt, ws, nw = sides (List.map (fun (l, r) -> (group_of l, group_of r)) walks) in
    let order t =
      let ords = Array.make nw [||] in
      Array.iteri (fun w g -> C.by_slack s g ords w) t;
      ords
    in
    let lo = order lt and ro = order rt in
    let cn = C.counts () in
    let nk = C.merge_delay_power s cn ~budget ~prune lt lo rt ro ws nw in
    let kept = joined s ~arena nk in
    if cn.C.generated - cn.C.pruned <> List.length kept then Alcotest.fail "merge counts";
    if (not prune) && cn.C.pruned <> 0 then Alcotest.fail "an unpruned merge dropped pairings";
    kept
  in
  let strip = List.map (fun x -> { x with tr = 0.0 }) in
  (* each row's trace handle set to its index, so survivors name their
     input *)
  let tag rows = List.mapi (fun k x -> { x with tr = float_of_int k }) rows in
  [
    qcase ~count:80 "specialized sweeps match the generic frontier" gen4 (fun cands ->
        (* the DP's monomorphic kernels must be observationally the
           generic Frontier algorithms *)
        let sorted = tag (List.sort cmp_frontier cands) in
        swept s delay sorted = Fr.sweep2 ~cost ~value sorted
        && swept s full sorted = Fr.sweep_dom ~cost ~dominates:dominates_full sorted);
    qcase ~count:300 "specialized merge matches the generic walk" gen_slot (fun walks ->
        (* The delay-mode merge at bound 0 is every walk's Van Ginneken
           pairings, the walks merged as runs, then the staircase sweep.
           It never joins what the sweep drops, so trace handles differ
           and every kill of an arriving pairing moves from the sweep's
           drops to the pre-kills. Each walk tags its left members with
           their own energy and the right members with a small one, so
           a survivor's [p] names its pairing and ties must resolve to
           the same pairing. *)
        let tag id = List.mapi (fun k x -> { x with p = float_of_int (id k) }) in
        let left w k = 1000 * ((100 * w) + k + 1) in
        let walks = List.mapi (fun w (l, r) -> (tag (left w) l, tag succ r)) walks in
        let arena = Bufins.Trace.create () in
        let runs = List.map (fun (l, r) -> Fr.merge2 ~value ~join:(join ~arena) l r) walks in
        let generic, gdrop = Fr.sweep2 ~cost ~value (Fr.merge_sorted cmp_frontier runs) in
        let lt, rt, ws, nw = sides (List.map (fun (l, r) -> (group_of l, group_of r)) walks) in
        let cn = C.counts () in
        let nk = C.merge_delay s cn ~bound:0.0 ~prune:true lt rt ws nw in
        strip generic = strip (joined s ~arena nk)
        && cn.C.generated + cn.C.skipped = List.length (List.concat runs)
        && cn.C.pruned + cn.C.skipped = gdrop);
    qcase ~count:80 "pareto_dom on full dominance keeps only the 4D front" gen4 (fun cands ->
        let kept, _ = Fr.pareto_dom ~cmp:cmp_frontier ~cost ~dominates:dominates_full cands in
        List.for_all
          (fun a -> List.for_all (fun b -> a == b || not (dominates_full a b)) kept)
          kept
        && List.for_all
             (fun d -> List.memq d kept || List.exists (fun k -> dominates_full k d) kept)
             cands);
    case "merge adds loads and takes worst slacks" (fun () ->
        let a = mk 1e-15 5e-10 and b = mk 2e-15 3e-10 in
        let lt, rt, ws, nw = sides [ (group_of [ a ], group_of [ b ]) ] in
        let nk = C.merge_delay s (C.counts ()) ~bound:0.0 ~prune:true lt rt ws nw in
        match joined s ~arena:(Bufins.Trace.create ()) nk with
        | [ m ] ->
            feq_rel "c" ~eps:1e-12 3e-15 m.c;
            feq_rel "q" ~eps:1e-12 3e-10 m.q
        | _ -> Alcotest.fail "one pairing expected");
    case "inverting buffer flips parity" (fun () ->
        (* an inverter-only library: an odd count leaves the source
           inverted, so only even buckets can hold a solution, and the
           first inverter resets the load to its input pin *)
        let inv = Tech.Lib.find Tech.Lib.default_library "invx4" |> Option.get in
        let p = Tech.Process.default in
        let seg = Rctree.Segment.refine (Fixtures.two_pin p ~len:10e-3) ~max_len:1e-3 in
        let o = Bufins.Dp.run ~noise:false ~mode:(Bufins.Dp.Per_count 4) ~lib:[ inv ] seg in
        Array.iteri
          (fun k r ->
            Alcotest.(check bool) (Printf.sprintf "bucket %d" k) (k mod 2 = 0) (r <> None))
          o.Bufins.Dp.by_count;
        let s1 = Fl.create () in
        let lib = Tech.Lib.prepare [ inv ] in
        let g = group_of [ mk 1e-14 1e-9 ] in
        ignore (C.sources s1 ~power:false ~guard:false lib g);
        Fl.reserve s1 ~used:1 1;
        C.stand_in s1 0 lib s1 0 g;
        let r =
          let arena = Bufins.Trace.create () in
          written s1 ~arena ~at:3 ~bufs:[| Bufins.Trace.intern arena inv |] 1
        in
        feq_rel "load reset" ~eps:1e-12 inv.Tech.Buffer.c_in (List.hd r).c);
    case "meta packing survives merges of buffered branches" (fun () ->
        (* buffer counts add across the merges of buffered branches: every
           bucket's winner has exactly its bucket's count of placements,
           inverters and buffers mixed *)
        let p = Tech.Process.default in
        let lib =
          List.map
            (fun n -> Tech.Lib.find Tech.Lib.default_library n |> Option.get)
            [ "invx4"; "bufx4" ]
        in
        let seg =
          Rctree.Segment.refine (Fixtures.balanced p ~levels:2 ~trunk_len:4e-3) ~max_len:1e-3
        in
        let o = Bufins.Dp.run ~noise:false ~mode:(Bufins.Dp.Per_count 6) ~lib seg in
        let found = ref 0 in
        Array.iteri
          (fun k -> function
            | None -> ()
            | Some (r : Bufins.Dp.result) ->
                incr found;
                Alcotest.(check int) (Printf.sprintf "count %d" k) k r.Bufins.Dp.count;
                Alcotest.(check int)
                  (Printf.sprintf "placements %d" k)
                  k
                  (List.length r.Bufins.Dp.placements))
          o.Bufins.Dp.by_count;
        Alcotest.(check bool) "several buckets" true (!found > 2));
    case "wire step matches eq. 2 and eq. 8" (fun () ->
        let w = Rctree.Tree.make_wire ~length:1e-3 ~res:80.0 ~cap:2e-13 ~cur:1e-3 in
        let a = { (mk 10e-15 1e-9) with i = 2e-3; ns = 0.8 } in
        let n =
          C.climb s (C.counts ()) ~arena:(Bufins.Trace.create ()) ~at:0 ~width:1.0 ~pred:false
            ~bound:0.0 ~noise:false ~drop:false w (group_of [ a ]) 0
        in
        match staged_rows s n with
        | [ r ] ->
            feq_rel "c" ~eps:1e-12 2.1e-13 r.c;
            feq_rel "q" ~eps:1e-9 (1e-9 -. (80.0 *. (1e-13 +. 10e-15))) r.q;
            feq_rel "i" ~eps:1e-12 3e-3 r.i;
            feq_rel "ns" ~eps:1e-9 (0.8 -. (80.0 *. (2e-3 +. 0.5e-3))) r.ns
        | _ -> Alcotest.fail "one row expected");
    (* Buffer insertion's splice of stand-ins, in any order, into a
       slot already swept, as [Dp] runs it: [Flat.splice] and the mode's
       sweep. It must equal the reference sweep of the swept slot
       merged with the sorted stand-ins, drop for drop, and the sweep of
       the union of the unswept slot and the stand-ins, whose drops are
       the slot's own plus the splice's. For each relation; a row's
       trace handle names it, so ties must resolve to the same row. *)
    qcase ~count:300 "insertion splice into a swept slot is the sweep of the union"
      QCheck2.Gen.(pair gen_power gen_power)
      (fun (group, extra) ->
        let group = tag group in
        let extra = List.map (fun x -> { x with tr = x.tr +. 1000.0 }) (tag extra) in
        let staged order sweep base extra =
          ignore (Fl.stage s (group_of (base @ extra)));
          let n = Fl.splice s order (List.length base) (List.length extra) in
          let nk = sweep n in
          (staged_rows s nk, n - nk)
        in
        List.for_all
          (fun (cmp, sweep, splice, reference) ->
            let sorted = List.stable_sort cmp group in
            let base, dg = swept s sweep sorted in
            let spliced, ds =
              splice base extra
            in
            let sorted_extra = List.stable_sort cmp extra in
            let ref_rows, ref_drops = reference (List.merge cmp base sorted_extra) in
            let union, du = swept s sweep (List.merge cmp sorted sorted_extra) in
            spliced = ref_rows && ds = ref_drops && spliced = union && dg + ds = du)
          [
            (cmp_frontier, delay, staged Fl.Plain delay, Fr.sweep2 ~cost ~value);
            ( cmp_frontier,
              full,
              staged Fl.Plain full,
              Fr.sweep_dom ~cost ~dominates:dominates_full );
            ( cmp_frontier_power,
              power,
              staged Fl.Power power,
              fun l ->
                let kept = ref_sweep_power l in
                (kept, List.length l - List.length kept) );
          ]);
    qcase ~count:200 "trace reconstruction matches the eager list semantics" trace_op_gen
      (fun prog ->
        (* the arena walk must reproduce, list for list, what the old
           eager representation built: cons per buffer/sizing, rev_append
           per join, a final reverse for placements only *)
        let lib = Array.of_list Tech.Lib.default_library in
        let buf_of i = lib.(i mod Array.length lib) in
        let arena = Bufins.Trace.create () in
        let rec build = function
          | OLeaf -> (Bufins.Trace.leaf, [], [])
          | OBuf (i, sub) ->
              let h, sol, sizes = build sub in
              let b = buf_of i in
              let dist = float_of_int i *. 1e-6 in
              let p = { Rctree.Surgery.node = i; dist; buffer = b } in
              (Bufins.Trace.buf arena ~node:i ~dist ~buffer:b ~pred:h, p :: sol, sizes)
          | OResize (i, sub) ->
              let h, sol, sizes = build sub in
              let w = 1.0 +. float_of_int (i mod 3) in
              (Bufins.Trace.resize arena ~node:i ~width:w ~pred:h, sol, (i, w) :: sizes)
          | OJoin (l, r) ->
              let hl, soll, sizesl = build l in
              let hr, solr, sizesr = build r in
              ( Bufins.Trace.join arena ~left:hl ~right:hr,
                List.rev_append soll solr,
                List.rev_append sizesl sizesr )
        in
        let check () =
          let h, sol, sizes = build prog in
          Bufins.Trace.placements arena h = List.rev sol && Bufins.Trace.sizes arena h = sizes
        in
        (* the arena's chunks hold 128 nodes: after a reset and a pad that
           ends a few nodes short of a chunk boundary, the program's nodes
           straddle it, and a second build on top lands in later chunks *)
        let pad n =
          for _ = 1 to n do
            ignore (Bufins.Trace.join arena ~left:Bufins.Trace.leaf ~right:Bufins.Trace.leaf)
          done
        in
        let first = check () in
        Bufins.Trace.reset arena;
        pad (125 + (Hashtbl.hash prog mod 130));
        first && check () && check ());
    (* coordinates from subnormal to 1e300 beside small grid values,
       slacks and noise slacks of either sign; members repeat a pool's
       loads, so equal loads (and equal merged loads) are common *)
    (let gen_extreme =
       QCheck2.Gen.(
         let mag scale =
           oneof
             [
               oneofl [ 0.0; 5e-324; 2.5e-310; 1e-300; 1e300 ];
               map (fun k -> float_of_int k *. scale) (int_range 1 6);
             ]
         in
         let signed scale =
           map2 (fun sign x -> sign *. x) (oneofl [ 1.0; -1.0 ]) (mag scale)
         in
         let* loads = array_repeat 3 (mag 1e-15) in
         list_size (int_range 1 30)
           (let* c = oneof [ mag 1e-15; map (fun k -> loads.(k)) (int_range 0 2) ]
            and* q = signed 1e-10
            and* i = mag 1e-3
            and* ns = signed 0.1 in
            pure { (mk c q) with i; ns }))
     in
     qcase ~count:300 "coordinates-first noise merge matches the list sweep"
       QCheck2.Gen.(oneof [ pair gen4 gen4; pair gen_extreme gen_extreme ])
       (fun (a, b) ->
         (* every candidate carries a unique energy tag, so a pairing's
            [p] names it and ties are checked to resolve to the same
            pairing; [m] repeats [l]'s coordinates, so the second walk
            ties the first everywhere. The reference joins every pairing,
            sorts them stably and sweeps them with Frontier's generic
            list sweep under the same rule. *)
         let tag id = List.mapi (fun k x -> { x with p = float_of_int (id k) }) in
         let sorted = List.sort cmp_frontier a in
         let l = tag (fun k -> 1000 * (k + 1)) sorted in
         let m = tag (fun k -> 1000 * (k + 100)) sorted in
         let r = tag Fun.id (List.sort cmp_frontier b) in
         let walks = [ (l, r); (m, r) ] in
         let arena = Bufins.Trace.create () in
         let pairs =
           List.concat_map
             (fun (l, r) -> List.concat_map (fun x -> List.map (join ~arena x) r) l)
             walks
         in
         let sorted_pairs = List.stable_sort cmp_frontier pairs in
         List.for_all
           (fun bound ->
             let dominates k x = C.kills_full ~bound k.c k.q k.i k.ns x.c x.q x.i x.ns in
             let listed, ldrop = Fr.sweep_dom ~cost ~dominates sorted_pairs in
             let lt, rt, ws, nw =
               sides (List.map (fun (l, r) -> (group_of l, group_of r)) walks)
             in
             let cn = C.counts () in
             let nk = C.merge_noise s cn ~bound lt rt ws nw in
             strip listed = strip (joined s ~arena nk)
             && cn.C.generated + cn.C.skipped = List.length pairs
             && cn.C.pruned + cn.C.skipped = ldrop
             && (bound > 0.0 || cn.C.skipped = 0))
           [ 0.0; 1e5 ]));
    qcase ~count:200 "insertion's energy order is the stable sort by energy" gen_power
      (fun cands ->
        (* grid energies, so ties are common and must keep group order *)
        let a = Array.of_list cands in
        let by_energy = C.by_energy s (group_of cands) in
        List.init (Array.length a) (fun k -> by_energy.(k))
        = List.stable_sort
            (fun x y -> Float.compare a.(x).p a.(y).p)
            (List.init (Array.length a) Fun.id));
    qcase ~count:200 "delay-power sweep matches the quadratic 3-axis sweep" gen_power
      (fun cands ->
        (* load is sorted, so a candidate falls iff an earlier survivor
           has at least its slack for at most its energy; i and ns vary
           and reorder equal-(c, q) runs without joining the relation *)
        let sorted = tag (List.sort cmp_frontier_power cands) in
        let kept, dropped = swept s power sorted in
        let reference = ref_sweep_power sorted in
        kept = reference && dropped = List.length sorted - List.length kept);
    qcase ~count:300 "delay-power branch merge matches the exhaustive pairing sweep"
      QCheck2.Gen.(quad gen_group gen_group gen_group (int_range 0 14))
      (fun (l, r, m, cut) ->
        (* two walks into one slot, the second sharing the first's right
           group; the budget sits on the exact grid of pairing energies,
           so it cuts through ties *)
        let budget = Float.ldexp (float_of_int cut) (-50) in
        let walks = [ (l, r); (m, r) ] in
        let arena = Bufins.Trace.create () in
        let exhaustive =
          List.concat_map
            (fun (l, r) ->
              List.concat_map
                (fun a ->
                  List.filter_map
                    (fun b -> if a.p +. b.p > budget then None else Some (join ~arena a b))
                    r)
                l)
            walks
        in
        let reference = ref_sweep_power (List.sort cmp_frontier_power exhaustive) in
        strip (merge_power ~budget walks) = strip reference);
    qcase ~count:300 "delay-power branch merge breaks ties as the materializing merge did"
      QCheck2.Gen.(quad gen_group gen_group gen_group (int_range 0 14))
      (fun (l, r, m, cut) ->
        (* Every input candidate is tagged with its own Buf node, so a
           survivor's placements name its pairing. The reference
           enumerates the staircase pairings with lists, joins them in
           emission order, lists each walk newest pairing first and the
           walks in the order given, then sorts stably and sweeps: the
           coordinates-first merge must pick the same pairing out of
           every run of equal coordinates. The three walks share groups,
           and the groups' slacks come from seven grid values, so equal
           merged slacks arrive from different walks and from both
           passes of one walk. Without pruning, every in-budget pairing
           must come out in that stable order. *)
        let budget = Float.ldexp (float_of_int cut) (-50) in
        let arena = Bufins.Trace.create () in
        let buffer = List.hd Tech.Lib.default_library in
        let next = ref 0 in
        let tag =
          List.map (fun x ->
              incr next;
              let h =
                Bufins.Trace.buf arena ~node:!next ~dist:0.0 ~buffer ~pred:Bufins.Trace.leaf
              in
              { x with tr = float_of_int h })
        in
        let l = tag l and r = tag r and m = tag m in
        let walks = [ (l, r); (m, r); (l, m) ] in
        let slack_order = List.stable_sort (fun x y -> Float.compare y.q x.q) in
        let pass ~strict walk prefix emit =
          List.iter
            (fun a ->
              let ahead =
                List.filter (fun b -> if strict then b.q > a.q else b.q >= a.q) prefix
              in
              let stair =
                List.fold_left
                  (fun st b ->
                    if List.exists (fun k -> k.c <= b.c && k.p <= b.p) st then st
                    else b :: List.filter (fun k -> not (k.c >= b.c && k.p >= b.p)) st)
                  [] ahead
              in
              List.iter (emit a) (List.sort (fun x y -> Float.compare x.c y.c) stair))
            walk
        in
        let run (l, r) =
          let pairs = ref [] in
          let emit a b = if a.p +. b.p <= budget then pairs := join ~arena a b :: !pairs in
          pass ~strict:false (slack_order l) (slack_order r) emit;
          pass ~strict:true (slack_order r) (slack_order l) (fun b a -> emit a b);
          !pairs
        in
        let listed = List.stable_sort cmp_frontier_power (List.concat_map run walks) in
        let nodes x =
          List.map
            (fun p -> p.Rctree.Surgery.node)
            (Bufins.Trace.placements arena (int_of_float x.tr))
        in
        List.map nodes (merge_power ~arena ~budget walks)
        = List.map nodes (ref_sweep_power listed)
        && List.map nodes (merge_power ~arena ~prune:false ~budget walks)
           = List.map nodes listed);
    (* The insertion's one-pass source choice against the per-type scan
       it replaced, on groups with duplicate members, equal slacks,
       currents and noise slacks on the [noise_tol] boundary, and
       magnitudes from subnormal to 1e300 in every coordinate. *)
    (let noise_ok ~r_gate a = r_gate *. a.i <= a.ns +. C.noise_tol in
     (* the per-type scan as buffer insertion ran it: one walk over the
        group per type, the first source in group order on equal slack *)
     let scan ~guard (b : Tech.Buffer.t) group =
       let best = ref neg_infinity and pick = ref (-1) in
       List.iteri
         (fun j a ->
           if (not guard) || noise_ok ~r_gate:b.Tech.Buffer.r_b a then begin
             let q = a.q -. Tech.Buffer.gate_delay b ~load:a.c in
             if q > !best then begin
               best := q;
               pick := j
             end
           end)
         group;
       (!best, !pick)
     in
     let extreme = [ 0.0; 5e-324; 2.5e-310; 1e-300; 1e300 ] in
     let coord scale =
       QCheck2.Gen.(
         let* sign = oneofl [ 1.0; -1.0 ] in
         map (fun x -> sign *. x)
           (oneof [ oneofl extreme; map (fun k -> float_of_int k *. scale) (int_range 0 4) ]))
     in
     let positive scale =
       QCheck2.Gen.(
         oneof
           [
             oneofl [ 5e-324; 2.5e-310; 1e-300; 1e300 ];
             map (fun k -> float_of_int k *. scale) (int_range 1 4);
           ])
     in
     let gen =
       QCheck2.Gen.(
         let* types =
           list_size (int_range 1 11)
             (map2
                (fun r_b d_b ->
                  Tech.Buffer.make ~name:"b" ~inverting:false ~c_in:1e-15 ~r_b ~d_b ~nm:0.8 ())
                (positive 100.0)
                (oneof [ pure 0.0; positive 1e-11 ]))
         in
         let rs =
           Array.of_list (List.map (fun (b : Tech.Buffer.t) -> b.Tech.Buffer.r_b) types)
         in
         let member =
           let* c = coord 1e-15 and* q = coord 1e-10 and* i = coord 1e-3 and* ns = coord 0.1 in
           (* half the members sit on, or one ulp beside, some type's
              attach boundary [r *. i = ns +. noise_tol] *)
           let* edge = int_range 0 5 and* k = int_range 0 (Array.length rs - 1) in
           let ns =
             let at = (rs.(k) *. i) -. C.noise_tol in
             match edge with 0 -> at | 1 -> Float.pred at | 2 -> Float.succ at | _ -> ns
           in
           pure { c; q; i; ns; p = 0.0; tr = 0.0 }
         in
         let* pool = array_repeat 3 member in
         let* group =
           list_size (int_range 1 12)
             (oneof [ member; map (fun k -> pool.(k)) (int_range 0 2) ])
         in
         pure (types, group))
     in
     (* the selector's entries as (type, source, slack bits) *)
     let chosen ~power ~guard types group =
       let n = C.sources s ~power ~guard (Tech.Lib.prepare types) (group_of group) in
       List.init n (fun m ->
           (s.Fl.js.(2 * m), s.Fl.js.((2 * m) + 1), Int64.bits_of_float s.Fl.xs.((6 * m) + 1)))
     in
     qcase ~count:2000 "one-pass source choice matches the per-type scan bit for bit" gen
       (fun (types, group) ->
         List.for_all
           (fun guard ->
             let scanned =
               List.concat
                 (List.mapi
                    (fun k b ->
                      let q, j = scan ~guard b group in
                      if q = neg_infinity then [] else [ (k, j, Int64.bits_of_float q) ])
                    types)
             in
             chosen ~power:false ~guard types group = scanned)
           [ true; false ]));
    (* The power-mode staircase against its definition, on exact binary
       grids: slacks, loads and energies tie often. A buffer energy of 8
       to 32 J absorbs some source energies in rounding, so a run of
       equal insertion energy can hold sources of different energy,
       whose energy order is not their group order. Drive resistances
       up to 100 ohm put the attach guard on both sides of many
       members. *)
    (let ldexp k e = Float.ldexp (float_of_int k) e in
     let gen =
       QCheck2.Gen.(
         let* types =
           list_size (int_range 1 4)
             (map3
                (fun r d e ->
                  Tech.Buffer.make ~name:"b" ~inverting:false ~c_in:1e-15 ~r_b:(float_of_int r)
                    ~d_b:(ldexp d (-33)) ~nm:0.8 ~energy:(ldexp e (-50)) ())
                (oneofl [ 1; 2; 50; 100 ])
                (int_range 0 3)
                (oneof [ int_range 0 3; map (fun k -> k lsl 53) (int_range 1 4) ]))
         in
         let member =
           map
             (fun ((c, q, p), (i, ns)) ->
               {
                 c = ldexp c (-50);
                 q = ldexp q (-33);
                 i = float_of_int i *. 1e-3;
                 ns = float_of_int ns *. 0.1;
                 p = ldexp p (-50);
                 tr = 0.0;
               })
             (pair
                (triple (int_range 0 6) (int_range 0 6) (int_range 0 6))
                (pair (int_range 0 2) (int_range 0 2)))
         in
         let* pool = array_repeat 3 member in
         let* group =
           list_size (int_range 1 20)
             (oneof [ member; map (fun k -> pool.(k)) (int_range 0 2) ])
         in
         pure (types, group))
     in
     (* every eligible source's (insertion slack, energy); those no
        other source weakly dominates, the first index on full ties, in
        falling slack *)
     let reference ~guard types group =
       let group = List.mapi (fun j a -> (j, a)) group in
       List.concat
         (List.mapi
            (fun k (b : Tech.Buffer.t) ->
              let points =
                List.filter_map
                  (fun (j, a) ->
                    if guard && not (b.Tech.Buffer.r_b *. a.i <= a.ns +. C.noise_tol) then None
                    else
                      Some
                        ( j,
                          a.q -. Tech.Buffer.gate_delay b ~load:a.c,
                          a.p +. b.Tech.Buffer.energy ))
                  group
              in
              let dominated (j, q, e) =
                List.exists
                  (fun (j', q', e') ->
                    j' <> j && q' >= q && e' <= e && (q' > q || e' < e || j' < j))
                  points
              in
              List.filter (fun x -> not (dominated x)) points
              |> List.stable_sort (fun (_, q, _) (_, q', _) -> Float.compare q' q)
              |> List.map (fun (j, q, _) -> (k, j, Int64.bits_of_float q)))
            types)
     in
     qcase ~count:2000 "power-mode sources are each type's (slack, energy) staircase" gen
       (fun (types, group) ->
         List.for_all
           (fun guard ->
             let lib = Tech.Lib.prepare types in
             let n = C.sources s ~power:true ~guard lib (group_of group) in
             List.init n (fun m ->
                 ( s.Fl.js.(2 * m),
                   s.Fl.js.((2 * m) + 1),
                   Int64.bits_of_float s.Fl.xs.((6 * m) + 1) ))
             = reference ~guard types group)
           [ true; false ]));
    case "a materialized stand-in is the candidate add_buffer builds" (fun () ->
        (* [add_buffer]: the eager insertion, a new candidate and its Buf
           node *)
        let add_buffer ~arena ~at (b : Tech.Buffer.t) a =
          {
            c = b.Tech.Buffer.c_in;
            q = a.q -. Tech.Buffer.gate_delay b ~load:a.c;
            i = 0.0;
            ns = b.Tech.Buffer.nm;
            p = a.p +. b.Tech.Buffer.energy;
            tr =
              float_of_int
                (Bufins.Trace.buf arena ~node:at ~dist:0.0 ~buffer:b
                   ~pred:(int_of_float a.tr));
          }
        in
        let bufs = Array.of_list Tech.Lib.default_library in
        let plib = Tech.Lib.prepare Tech.Lib.default_library in
        let ntypes = Array.length bufs in
        let arena = Bufins.Trace.create () in
        (* sources with their own arena nodes and energies: a lighter,
           slower one that costs less, and one buffered twice *)
        let group =
          [
            add_buffer ~arena ~at:3 bufs.(0) (mk 2e-14 1e-9);
            add_buffer ~arena ~at:4 bufs.(9) (mk 1e-15 9e-10);
            add_buffer ~arena ~at:5 bufs.(4)
              (add_buffer ~arena ~at:2 bufs.(7) (mk 3e-14 2e-9));
          ]
        in
        let g = group_of group and src = Array.of_list group in
        let bits x = List.map Int64.bits_of_float [ x.c; x.q; x.i; x.ns; x.p ] in
        List.iter
          (fun power ->
            let n = C.sources s ~power ~guard:false plib g in
            if power then Alcotest.(check bool) "several members per type" true (n > ntypes)
            else Alcotest.(check int) "one source per type" ntypes n;
            let entries =
              List.init n (fun m ->
                  (s.Fl.js.(2 * m), s.Fl.js.((2 * m) + 1), s.Fl.xs.((6 * m) + 1)))
            in
            (* every entry staged as a stand-in; none has its node before
               the write-out *)
            let pending = Fl.create () in
            Fl.reserve pending ~used:0 n;
            let size = Bufins.Trace.size arena in
            List.iteri (fun m _ -> C.stand_in pending m plib s m g) entries;
            let ix = Array.map (Bufins.Trace.intern arena) bufs in
            let written = written pending ~arena ~at:7 ~bufs:ix n in
            Alcotest.(check int) "one node per stand-in" (size + n) (Bufins.Trace.size arena);
            List.iteri
              (fun m (k, j, _) ->
                let mode = if power then "power" else "delay" in
                let what = Printf.sprintf "%s type %d" mode k in
                let eager = add_buffer ~arena ~at:7 bufs.(k) src.(j) in
                let x = List.nth written m in
                Alcotest.(check bool) (what ^ ": coordinates") true (bits x = bits eager);
                Alcotest.(check bool) (what ^ ": placements") true
                  (Bufins.Trace.placements arena (int_of_float x.tr)
                  = Bufins.Trace.placements arena (int_of_float eager.tr)))
              entries)
          [ false; true ]);
    (* The noise-mode climb against its definition: the wire step on
       every member, and a member dropped, and counted, when the
       previously kept one kills it under the 4D rule. Wire values,
       coordinates and bounds run from subnormal to 1e300, so products
       overflow and underflow; members repeat a pool's loads, so equal
       loads are common. Compared bit for bit. *)
    (let extreme = [ 0.0; 5e-324; 2.5e-310; 1e-300; 1e300 ] in
     let mag scale =
       QCheck2.Gen.(
         oneof [ oneofl extreme; map (fun k -> float_of_int k *. scale) (int_range 1 6) ])
     in
     let signed scale =
       QCheck2.Gen.(map2 (fun sign x -> sign *. x) (oneofl [ 1.0; -1.0 ]) (mag scale))
     in
     let gen =
       QCheck2.Gen.(
         let* w =
           map3
             (fun res cap cur -> Rctree.Tree.make_wire ~length:1e-4 ~res ~cap ~cur)
             (mag 10.0) (mag 1e-14) (mag 1e-4)
         in
         let* loads = array_repeat 3 (mag 1e-15) in
         let* group =
           list_size (int_range 1 30)
             (let* c = oneof [ mag 1e-15; map (fun k -> loads.(k)) (int_range 0 2) ]
              and* q = signed 1e-10
              and* i = mag 1e-3
              and* ns = signed 0.1 in
              pure { (mk c q) with i; ns })
         in
         let* bound = oneof [ pure 0.0; mag 100.0 ] in
         pure (w, List.sort cmp_frontier group, bound))
     in
     let bits x = List.map Int64.bits_of_float [ x.c; x.q; x.i; x.ns; x.p; x.tr ] in
     let add_wire (w : Rctree.Tree.wire) a =
       {
         a with
         c = a.c +. w.Rctree.Tree.cap;
         q = a.q -. (w.Rctree.Tree.res *. ((w.Rctree.Tree.cap /. 2.0) +. a.c));
         i = a.i +. w.Rctree.Tree.cur;
         ns = a.ns -. (w.Rctree.Tree.res *. (a.i +. (w.Rctree.Tree.cur /. 2.0)));
       }
     in
     qcase ~count:2000 "noise-mode climb keeps and counts what the 4D kill rule keeps" gen
       (fun (w, group, bound) ->
         let cn = C.counts () in
         let n =
           C.climb s cn ~arena:(Bufins.Trace.create ()) ~at:0 ~width:1.0 ~pred:true ~bound
             ~noise:true ~drop:false w (group_of group) 0
         in
         let emitted = cn.C.generated and prekilled = cn.C.skipped in
         let climbed = staged_rows s n in
         let kept, killed =
           List.fold_left
             (fun (kept, killed) a ->
               let x = add_wire w a in
               match kept with
               | prev :: _
                 when C.kills_full ~bound prev.c prev.q prev.i prev.ns x.c x.q x.i x.ns ->
                   (kept, killed + 1)
               | _ -> (x :: kept, killed))
             ([], 0) group
         in
         List.map bits climbed = List.rev_map bits kept
         && emitted = List.length kept
         && prekilled = killed));
    (* Count dominance on staged rows ([C.front_drop]) against its
       definition: a row from [from] on falls exactly when a witness of
       some lower count's group dominates it — (c, q) in delay mode,
       [kills_full] at bound 0 in noise mode, (c, q, p) in power mode —
       and the rest keep their order, bit for bit. Coordinates run from
       subnormal to 1e300 beside small grid values, with loads drawn
       from a shared pool so that equal loads meet across groups. *)
    (let gen =
       QCheck2.Gen.(
         let mag scale =
           oneof
             [
               oneofl [ 0.0; 5e-324; 2.5e-310; 1e-300; 1e300 ];
               map (fun k -> float_of_int k *. scale) (int_range 1 6);
             ]
         in
         let signed scale =
           map2 (fun sign x -> sign *. x) (oneofl [ 1.0; -1.0 ]) (mag scale)
         in
         let* loads = array_repeat 4 (mag 1e-15) in
         let row =
           let* c = oneof [ mag 1e-15; map (fun k -> loads.(k)) (int_range 0 3) ]
           and* q = signed 1e-10
           and* i = mag 1e-3
           and* ns = signed 0.1
           and* p = mag 1e-14 in
           pure { (mk c q) with i; ns; p }
         in
         let group = map (List.sort cmp_frontier_power) (list_size (int_range 0 12) row) in
         triple (list_size (int_range 0 4) group) group (int_range 0 12))
     in
     qcase ~count:2000 "count dominance drops exactly what a lower count dominates" gen
       (fun (fronts, rows, from) ->
         let bits x = List.map Int64.bits_of_float [ x.c; x.q; x.i; x.ns; x.p ] in
         List.for_all
           (fun (noise, power, dominates) ->
             let f = C.front () in
             C.front_clear f;
             List.iter (fun g -> C.front_add f ~noise ~power (group_of g)) fronts;
             let n = Fl.stage s (group_of rows) in
             let kept = staged_rows s (C.front_drop s (C.counts ()) f ~noise ~power ~from n) in
             let expected =
               List.filteri
                 (fun k x ->
                   k < from || not (List.exists (List.exists (fun w -> dominates w x)) fronts))
                 rows
             in
             List.map bits kept = List.map bits expected)
           [
             (false, false, fun w x -> w.c <= x.c && w.q >= x.q);
             ( true,
               false,
               fun w x -> C.kills_full ~bound:0.0 w.c w.q w.i w.ns x.c x.q x.i x.ns );
             (false, true, fun w x -> w.c <= x.c && w.q >= x.q && w.p <= x.p);
           ]));
  ]

let clock_tests =
  [
    case "now is non-decreasing within a domain" (fun () ->
        let last = ref (Util.Clock.now ()) in
        for _ = 1 to 50_000 do
          let t = Util.Clock.now () in
          Alcotest.(check bool) "monotone" true (t >= !last);
          last := t
        done);
    case "timed elapses non-negatively" (fun () ->
        let v, dt = Util.Clock.timed (fun () -> 42) in
        Alcotest.(check int) "value" 42 v;
        Alcotest.(check bool) "elapsed >= 0" true (dt >= 0.0));
    case "concurrent domains each see a monotone clock" (fun () ->
        (* the high-water mark is Domain.DLS-local: workers hammering
           [now] concurrently must each observe a non-decreasing stream,
           with no cross-domain interference through a shared mark *)
        let ok = Array.init 4 (fun _ -> Atomic.make true) in
        let sample slot =
          let last = ref neg_infinity in
          for _ = 1 to 20_000 do
            let t = Util.Clock.now () in
            if t < !last then Atomic.set ok.(slot) false;
            last := t
          done
        in
        let helpers =
          List.init 3 (fun i -> Domain.spawn (fun () -> sample (i + 1)))
        in
        sample 0;
        List.iter Domain.join helpers;
        Array.iteri
          (fun i o ->
            Alcotest.(check bool) (Printf.sprintf "domain %d monotone" i) true
              (Atomic.get o))
          ok);
  ]

let suites =
  [
    ("util.rng", rng_tests);
    ("util.stats", stats_tests);
    ("util.fx", fx_tests);
    ("util.ftab", ftab_tests);
    ("util.clock", clock_tests);
    ("bufins.candidate", candidate_tests);
  ]
