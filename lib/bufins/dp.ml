module T = Rctree.Tree
module C = Candidate

type mode =
  | Single
  | Per_count of int
  | Up_to of int
  | Power_bounded of { budget : float; kmax : int }

type mutation = Cq_noise_prune | No_attach_guard | Loose_pred_bound

type stats = {
  generated : int;
  pruned : int;
  pred_pruned : int;
  power_pruned : int;
  count_pruned : int;
  peak_width : int;
  arena : int;
  minor_words : float;
}

let considered s = s.generated + s.pred_pruned + s.power_pruned

let survivors s = s.generated - s.pruned - s.count_pruned

type result = {
  slack : float;
  placements : Rctree.Surgery.placement list;
  sizes : (int * float) list;
  count : int;
  energy : float;
  stats : stats;
}

type outcome = { best : result option; by_count : result option array; stats : stats }

(* The memo (DESIGN.md §14.4, dp.mli) caches each node's [above] table —
   the DP summary of its subtree — copied out of the row stack, stamped
   with the climb bound it was built under and, memo-wide, with the
   configuration. The rows' trace handles point into the memo's
   resident, append-only arena, which only [clear] replaces. *)

module Memo = struct
  type entry = {
    kept : Flat.table;  (** the above-table, pre-insertion *)
    bound : float;  (** climb bound the entry was built under *)
  }

  type t = {
    mutable entries : entry option array;  (* indexed by node id *)
    mutable stamp : string;  (* config fingerprint; "" = never stamped *)
    mutable arena : Trace.arena;
    mutable hits : int;
    mutable misses : int;
  }

  let create () =
    { entries = [||]; stamp = ""; arena = Trace.create (); hits = 0; misses = 0 }

  let clear t =
    t.entries <- [||];
    t.stamp <- "";
    t.arena <- Trace.create ()

  let dirty t tree v =
    if Array.length t.entries > 0 then
      List.iter
        (fun u -> if u < Array.length t.entries then t.entries.(u) <- None)
        (T.path_up tree v)

  let stored t =
    Array.fold_left (fun a e -> if e = None then a else a + 1) 0 t.entries

  let arena_nodes t = Trace.size t.arena - 1
  let hits t = t.hits
  let misses t = t.misses

  (* RATs and wire values are deliberately absent: edits to them are the
     caller's dirty-marking duty (plus the per-entry bound stamp), and
     hashing them here would turn every edit into a full cache drop. *)
  let stamp ~pruning ~widths ~mutation ~noise ~mode ~lib tree =
    let topo = ref 0 in
    for v = 0 to T.node_count tree - 1 do
      let tag =
        match T.kind tree v with
        | T.Source _ -> 0
        | T.Sink _ -> 1
        | T.Internal -> 2
        | T.Buffered _ -> 3
      in
      topo := Hashtbl.hash (!topo, T.parent tree v, tag, T.feasible tree v)
    done;
    Marshal.to_string
      (pruning, widths, mutation, noise, mode, lib, T.node_count tree, !topo)
      []
end

(* What a domain's runs reuse (DESIGN.md §8): the memo-less runs'
   arena, reset by each, the staging areas, the row stack, the count
   fronts and the power mode's slack orders. Everything here grows past
   256 words when it grows, so a run's minor words do not depend on the
   runs before it. *)
type scratch = {
  arena : Trace.arena;
  areas : Flat.t array;  (* each parity's staging area *)
  src : Flat.t;
  rows : Flat.store;
  fronts : C.front array;
  ords : int array array array;  (* per side, each slot's child group's slack order *)
  mutable busy : bool;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      let areas = [| Flat.create (); Flat.create () |] in
      (* the walk staircases, created now rather than in a run *)
      Array.iter (fun a -> Flat.reserve_walks a 1) areas;
      {
        arena = Trace.create ();
        areas;
        src = Flat.create ();
        rows = Flat.store ();
        fronts = [| C.front (); C.front () |];
        ords = [| Array.make Flat.least [||]; Array.make Flat.least [||] |];
        busy = false;
      })

(* the library's indices in [arena]'s buffer table, in list order *)
let intern arena lib = Array.of_list (List.map (Trace.intern arena) lib)

(* The run state (DESIGN.md §8): every mode flag, resolved once (and
   [mutation] read only here), the domain's scratch, the table stack,
   the per-run arrays and the counters. A node's table holds one group
   per slot [2*bucket + parity], its rows on the domain's row stack,
   written above its children's and slid down over them. *)
type run = {
  tree : T.t;
  memo : Memo.t option;
  sc : scratch;
  arena : Trace.arena;  (* [sc]'s, or the memo's *)
  bufs : int array;  (* the library's indices in [arena]'s buffer table *)
  plib : Tech.Lib.prepared;
  widths : float list;
  staircase : bool;  (* (c, q) staircases, (c, q, p) in power mode; else 4D dominance *)
  drop : bool;  (* noise mode: climbed rows of negative noise slack are dropped *)
  guard : bool;  (* noise mode: a gate never drives a candidate it would make noisy *)
  power : bool;  (* energy is a pruning axis and an insertion budget (DESIGN.md §16) *)
  pred : bool;  (* Li & Shi's predictive pruning (DESIGN.md §12) *)
  prune : bool;
  counted : bool;
  outcount : bool;  (* count dominance as the tables are built (DESIGN.md §17) *)
  front_only : bool;  (* the winners: the count-slack front *)
  nbuckets : int;
  nslots : int;
  eff_budget : float;
  bounds : float array;  (* every node's Upbound bound, with [pred] *)
  order : Flat.order;
  walks : int array;
  starts : int array;  (* a wire's climbs' run starts *)
  held : int array;  (* per parity: [c * nslots + t], child [c]'s slot [t] left staged *)
  bases : Flat.table;  (* slot [t]'s base: [based.(t)] or the climbed child's group *)
  based : Flat.table;
  nb : int array;  (* per parity: the base's staged rows *)
  top : int array;  (* per parity: the first stand-in's row, -1 before staging *)
  ne : int array;  (* per parity: the stand-ins staged *)
  mutable tables : Flat.table array;  (* the table stack, [ntab] deep *)
  mutable ntab : int;
  mutable last : int;  (* the rows' offset of the last non-empty slot made final *)
  cn : C.counts;
  mutable peak_width : int;
  words0 : float;  (* minor words, less the arena's chunk headers, at the start *)
  arena0 : int;
}

let start (sc : scratch) ~pruning ~widths ~mutation ~memo ~noise ~mode ~lib tree =
  (* a memo-less run's nodes go into the domain's arena, emptied; its
     buffers are interned before the count starts, since the table
     grows only on a domain's first runs *)
  let own = Option.is_none memo in
  if own then Trace.reset sc.arena;
  let own_bufs = if own then intern sc.arena lib else [||] in
  (* Gc.minor_words reads the domain's own counter, word-precise across
     minor collections: concurrent domains never contaminate a run's
     delta *)
  let minor0 = Gc.minor_words () in
  (* with a memo, candidates go into its resident arena so cached trace
     handles from earlier runs stay reconstructible; a mismatched config
     stamp drops the cache before any entry could be misread *)
  let arena =
    match memo with
    | None -> sc.arena
    | Some (m : Memo.t) ->
        let stamp = Memo.stamp ~pruning ~widths ~mutation ~noise ~mode ~lib tree in
        if m.Memo.stamp <> stamp then begin
          Memo.clear m;
          m.Memo.stamp <- stamp
        end;
        if Array.length m.Memo.entries <> T.node_count tree then
          m.Memo.entries <- Array.make (T.node_count tree) None;
        m.Memo.arena
  in
  let counted, kmax, budget, power, front_only =
    match mode with
    | Single -> (false, 0, infinity, false, false)
    | Per_count k -> (true, k, infinity, false, false)
    | Up_to k -> (true, k, infinity, false, true)
    | Power_bounded { budget; kmax } -> (true, kmax, budget, true, true)
  in
  if power && not (budget >= 0.0) then invalid_arg "Dp.run: negative power budget";
  if power && noise then invalid_arg "Dp.run: power mode is delay-only";
  let nslots = 2 * (kmax + 1) and plib = Tech.Lib.prepare lib in
  (* The slope says nothing about the energy axis a budget must
     preserve, and Ablation B ([`Off]) wants the full population. *)
  let pred = (not power) && pruning = `Predictive in
  let bounds =
    if not pred then [||]
    else begin
      let max_width = List.fold_left Float.max 1.0 widths in
      let b = Rctree.Upbound.compute tree ~r_gate_min:plib.Tech.Lib.r_min ~max_width in
      (* the Loose_pred_bound mutation over-prunes: the predictive
         engine's outcomes drift from the sweep-only reference *)
      if mutation = Some Loose_pred_bound then Array.iteri (fun i x -> b.(i) <- x *. 1.25) b;
      b
    end
  in
  sc.rows.Flat.len <- 0;
  if Array.length sc.ords.(0) < nslots then
    for side = 0 to 1 do
      sc.ords.(side) <- Array.make nslots [||]
    done;
  {
    tree;
    memo;
    sc;
    arena;
    bufs = (if own then own_bufs else intern arena lib);
    plib;
    widths;
    (* mutation smoke (DESIGN.md §10): deliberately broken variants used
       only to prove the Check subsystem catches them *)
    staircase = (not noise) || mutation = Some Cq_noise_prune;
    drop = noise;
    guard = noise && mutation <> Some No_attach_guard;
    power;
    pred;
    prune = pruning <> `Off;
    counted;
    outcount = pruning <> `Off && front_only;
    front_only;
    nbuckets = kmax + 1;
    nslots;
    (* ulp-scale headroom: energy accumulates in tree-merge order, so at
       an exact-boundary budget the optimum can land one rounding step
       above it; the winner still meets it at the same tolerance *)
    eff_budget = budget +. (Float.abs budget *. 1e-12);
    bounds;
    order = (if power then Flat.Power else Flat.Plain);
    walks = Array.make (2 * (kmax + 1)) 0;
    starts = Array.make (List.length widths + 2) 0;
    held = [| -1; -1 |];
    bases = Array.make nslots Flat.empty;
    based = Array.init nslots (fun _ -> Flat.group ());
    nb = [| 0; 0 |];
    top = [| 0; 0 |];
    ne = [| 0; 0 |];
    tables = Array.make 8 [||];
    ntab = 0;
    last = -1;
    cn = C.counts ();
    peak_width = 0;
    words0 = minor0 -. Trace.header_words arena;
    arena0 = Trace.size arena;
  }

let write r a ~at n d = Flat.write a ~arena:r.arena ~at ~bufs:r.bufs r.sc.rows n d
let site_bound r v = if r.pred then r.bounds.(v) else 0.0

let note_width r (tbl : Flat.table) =
  for t = 0 to r.nslots - 1 do
    if tbl.(t).Flat.n > r.peak_width then r.peak_width <- tbl.(t).Flat.n
  done

(* The highest bucket with a row, -1 for none. *)
let live r (tbl : Flat.table) =
  let t = ref (r.nslots - 1) in
  while !t >= 0 && tbl.(!t).Flat.n = 0 do
    decr t
  done;
  !t asr 1

(* A table off the table stack, every slot empty. The stack mirrors
   the row stack: a node's table is taken above its children's and,
   once built, moved down over them ([built]). *)
let fresh r =
  if r.ntab = Array.length r.tables then
    r.tables <- Array.append r.tables (Array.make r.ntab [||]);
  if Array.length r.tables.(r.ntab) = 0 then
    r.tables.(r.ntab) <- Array.init r.nslots (fun _ -> Flat.group ());
  let tbl = r.tables.(r.ntab) in
  r.ntab <- r.ntab + 1;
  Flat.clear tbl;
  tbl

(* [tbl], the top table, built above row [base] and table [tb] *)
let built r ~base ~tb tbl =
  Flat.slide r.sc.rows ~base tbl;
  r.tables.(r.ntab - 1) <- r.tables.(tb);
  r.tables.(tb) <- tbl;
  r.ntab <- tb + 1;
  tbl

(* The sweep of the staged rows [perm.(0 .. n-1)]; returns the
   survivors' count. Only the noise sweep reads the site's [bound]: the
   delay staircases kill before staging. The rows were counted generated
   when staged, so every drop, a kill on arrival too, is [pruned]. *)
let sweep r a ~bound n =
  if not r.prune then n
  else begin
    let cn = r.cn and pruned = r.cn.C.pruned and skipped = r.cn.C.skipped in
    let nk =
      if not r.staircase then C.sweep_full a cn ~bound n
      else if r.power then C.sweep_power a n
      else C.sweep_delay a cn ~bound:0.0 n
    in
    cn.C.pruned <- pruned + n - nk;
    cn.C.skipped <- skipped;
    nk
  end

(* count dominance (DESIGN.md §17) on the staged rows from [from] on *)
let front r a p ~from n =
  C.front_drop a r.cn r.sc.fronts.(p) ~noise:(not r.staircase) ~power:r.power ~from n

(* A sink's table: its one row, in slot 0. *)
let seed r v (sk : T.sink) =
  let tbl = fresh r and src = r.sc.src in
  r.cn.C.generated <- r.cn.C.generated + 1;
  Flat.reserve src ~used:0 1;
  let xs = src.Flat.xs in
  xs.(0) <- sk.T.c_sink;
  xs.(1) <- sk.T.rat;
  xs.(2) <- 0.0;
  xs.(3) <- sk.T.nm;
  xs.(4) <- 0.0;
  xs.(5) <- float_of_int Trace.leaf;
  src.Flat.js.(0) <- 0;
  src.Flat.perm.(0) <- 0;
  write r src ~at:v 1 tbl.(0);
  tbl

(* the climbs of [g] at widths [f ..], run after run *)
let rec climbs r s ~at ~bound w g f = function
  | [] -> ()
  | width :: rest ->
      let w' = if width = 1.0 then w else T.resize_wire w ~width in
      r.starts.(f + 1) <-
        C.climb s r.cn ~arena:r.arena ~at ~width ~pred:r.pred ~bound ~noise:(not r.staircase)
          ~drop:r.drop w' g r.starts.(f);
      climbs r s ~at ~bound w g (f + 1) rest

(* A table through the wire below node [at], at every width
   (simultaneous wire sizing, Lillis et al. [18]): each width's climb
   is one run, and the runs are merged, ties to the earlier width. Slot
   [t] is climbed in parity [t]'s area, where its survivors stay staged
   until the area's next use. *)
let climb r ~at ~bound w (tbl : Flat.table) =
  let widths = if w.T.length <= 0.0 then [ 1.0 ] else r.widths in
  let nfam = List.length widths and out = fresh r in
  for t = 0 to r.nslots - 1 do
    let p = t land 1 in
    if tbl.(t).Flat.n > 0 then begin
      let s = r.sc.areas.(p) in
      climbs r s ~at ~bound w tbl.(t) 0 widths;
      Flat.merge_runs s r.order r.starts 0 nfam;
      write r s ~at (sweep r s ~bound r.starts.(nfam)) out.(t);
      r.held.(p) <- (at * r.nslots) + t
    end
  done;
  out

(* The walks feeding slot [t] of a branch node — every pair of
   non-empty child groups of [t]'s parity whose buckets sum to [t]'s,
   the left bucket falling — staged in [a] and decided together
   (DESIGN.md §12): Van Ginneken's walk, every pairing in noise mode,
   the staircase pairings of the slack-ordered sides in power mode;
   without [prune], all of Van Ginneken's but in power mode. *)
let merge r a ~bound (lt : Flat.table) (rt : Flat.table) t =
  let p = t land 1 and k = t asr 1 and nw = ref 0 in
  for kl = k downto 0 do
    let sl = (2 * kl) + p and sr = (2 * (k - kl)) + p in
    if lt.(sl).Flat.n > 0 && rt.(sr).Flat.n > 0 then begin
      r.walks.(2 * !nw) <- sl;
      r.walks.((2 * !nw) + 1) <- sr;
      incr nw
    end
  done;
  let nw = !nw and cn = r.cn and prune = r.prune and ords = r.sc.ords in
  if nw = 0 then 0
  else if r.power then
    C.merge_delay_power a cn ~budget:r.eff_budget ~prune lt ords.(0) rt ords.(1) r.walks nw
  else if r.staircase || not prune then C.merge_delay a cn ~bound ~prune lt rt r.walks nw
  else C.merge_noise a cn ~bound lt rt r.walks nw

(* slot [t]'s group [g] staged in parity [p]'s area: where the climb of
   child [c] (-1: none) left it, if the area still holds it *)
let stage r p c t g =
  let held = c >= 0 && r.held.(p) = (c * r.nslots) + t in
  r.held.(p) <- -1;
  if held then Flat.top r.sc.areas.(p) g.Flat.n else Flat.stage r.sc.areas.(p) g

(* Slot [t]'s base: the climbed child [c]'s rows, or the branch's
   pairings, less what the front drops. It is staged wherever stand-ins
   may join it, and written unless it is the child's group unchanged;
   it is the next bucket's insertion sources (Figs. 5 and 11). *)
let base r ~bound v c (lt : Flat.table) rt t =
  let p = t land 1 and k = t asr 1 in
  let a = r.sc.areas.(p) in
  let staged = c < 0 || (r.outcount && k > 0) in
  let n =
    if c >= 0 then begin
      if staged then ignore (stage r p c t lt.(t));
      lt.(t).Flat.n
    end
    else merge r a ~bound lt rt t
  in
  let n = if r.outcount && k > 0 && n > 0 then front r a p ~from:0 n else n in
  r.nb.(p) <- n;
  r.top.(p) <- (if staged then Flat.top a n else -1);
  r.ne.(p) <- 0;
  if c >= 0 && n = lt.(t).Flat.n then r.bases.(t) <- lt.(t)
  else begin
    write r a ~at:v n r.based.(t);
    r.bases.(t) <- r.based.(t)
  end

(* Buffer insertion into bucket [k]: the sources are the bucket below's
   bases, or this one's in Single mode. Stand-ins past the budget
   ([power_pruned]) and pre-checks ([pred_pruned]) are never staged; the
   rest are staged after their target slot's base, newest first. *)
let insert r ~bound c k =
  let lo = if r.counted then 2 * (k - 1) else 0 in
  let src = r.sc.src and plib = r.plib and cn = r.cn in
  if lo >= 0 then
    for sl = lo to lo + 1 do
      let g = r.bases.(sl) in
      let n = if g.Flat.n = 0 then 0 else C.sources src ~power:r.power ~guard:r.guard plib g in
      for m = 0 to n - 1 do
        let ti = src.Flat.js.(2 * m) and j = src.Flat.js.((2 * m) + 1) in
        let p = if plib.Tech.Lib.inverting.(ti) then 1 - (sl land 1) else sl land 1 in
        let t = (2 * k) + p in
        if
          g.Flat.a.(g.Flat.o + (6 * j) + 4) +. plib.Tech.Lib.energy.(ti) > r.eff_budget
          || (r.pred && C.covered src m ~bound ~noise:(not r.staircase) plib ti r.bases.(t))
        then cn.C.skipped <- cn.C.skipped + 1
        else begin
          cn.C.generated <- cn.C.generated + 1;
          if r.top.(p) < 0 then r.top.(p) <- stage r p c t r.bases.(t);
          let a = r.sc.areas.(p) and x = r.top.(p) + r.ne.(p) in
          Flat.reserve a ~used:x (x + 1);
          C.stand_in a x plib src m g;
          r.ne.(p) <- r.ne.(p) + 1
        end
      done
    done

(* Slot [t]'s final group in [tbl]: its base, or the base with its
   stand-ins sorted and merged in, fronted and swept — only survivors
   get a node. A base of the node's own is kept where it lies if that
   is above the previous slot; anything else is copied to the top, so
   the table lies above its children in slot order for the slide. *)
let final r ~bound v (tbl : Flat.table) t =
  let p = t land 1 and d = tbl.(t) in
  let a = r.sc.areas.(p) and g = r.bases.(t) in
  if r.ne.(p) = 0 then
    if g == r.based.(t) && g.Flat.o > r.last then Flat.view d g
    else Flat.copy_group r.sc.rows g d
  else begin
    let nb = r.nb.(p) and top = r.top.(p) and ne = r.ne.(p) in
    for e = 0 to ne - 1 do
      a.Flat.perm.(nb + e) <- top + ne - 1 - e
    done;
    let n = Flat.splice a r.order nb ne in
    let n = if r.outcount && t > 1 then front r a p ~from:top n else n in
    write r a ~at:v (sweep r a ~bound n) d
  end;
  if d.Flat.n > 0 then r.last <- d.Flat.o;
  if r.outcount then C.front_add r.sc.fronts.(p) ~noise:(not r.staircase) ~power:r.power d

(* A branch or feasible node's table, bucket by bucket in rising count
   (DESIGN.md §17): each slot's base, the insertions, each slot's final
   group. [c] is the climbed child and [lt] its table; a branch has
   [c = -1] and the children's tables [lt] and [rt]. *)
let node r ~bound v ~feasible c (lt : Flat.table) (rt : Flat.table) =
  let hi =
    if c >= 0 then live r lt
    else begin
      if r.power then
        for t = 0 to r.nslots - 1 do
          C.by_slack r.sc.src lt.(t) r.sc.ords.(0) t;
          C.by_slack r.sc.src rt.(t) r.sc.ords.(1) t
        done;
      live r lt + live r rt
    end
  in
  Array.iter C.front_clear r.sc.fronts;
  let tbl = fresh r in
  r.last <- -1;
  (* merges land at [kl + kr], stand-ins a bucket above their source *)
  for k = 0 to min (r.nbuckets - 1) (hi + 1) do
    base r ~bound v c lt rt (2 * k);
    base r ~bound v c lt rt ((2 * k) + 1);
    if feasible then insert r ~bound c k;
    final r ~bound v tbl (2 * k);
    final r ~bound v tbl ((2 * k) + 1)
  done;
  Array.fill r.held 0 2 (-1);
  tbl

(* Each table is built above the row stack's top at entry and slid
   down to it; a child's table is dead once its parent's is built. *)
let rec at r v =
  match T.kind r.tree v with
  | T.Sink sk -> seed r v sk
  | T.Buffered _ | T.Source _ -> assert false
  | T.Internal ->
      let bound = site_bound r v and feasible = T.feasible r.tree v in
      let base = r.sc.rows.Flat.len and tb = r.ntab in
      let tbl =
        match T.children r.tree v with
        | [ c ] when not feasible -> above r ~bound c
        | [ c ] -> built r ~base ~tb (node r ~bound v ~feasible c (above r ~bound c) [||])
        | [ cl; cr ] ->
            let rt = above r ~bound cr in
            let lt = above r ~bound cl in
            built r ~base ~tb (node r ~bound v ~feasible (-1) lt rt)
        | _ -> assert false
      in
      note_width r tbl;
      tbl

(* The table above node [c], [bound] its parent's: its own climbed
   through the parent wire, or the memo's. A store copies the table out
   of the row stack, and a hit serves that copy in place. *)
and above r ~bound c =
  let cached =
    match r.memo with
    | Some m -> (
        match m.Memo.entries.(c) with
        | Some e when e.Memo.bound = bound ->
            m.Memo.hits <- m.Memo.hits + 1;
            Some e.Memo.kept
        | Some _ | None -> None)
    | None -> None
  in
  match cached with
  | Some tbl -> tbl
  | None ->
      let base = r.sc.rows.Flat.len and tb = r.ntab in
      let tbl = built r ~base ~tb (climb r ~at:c ~bound (T.wire_to r.tree c) (at r c)) in
      note_width r tbl;
      (match r.memo with
      | Some m ->
          m.Memo.misses <- m.Memo.misses + 1;
          m.Memo.entries.(c) <- Some { Memo.kept = Flat.copy_out tbl; bound }
      | None -> ());
      tbl

(* the root's table: its child's, or its children's merge *)
let root r =
  let v = T.root r.tree in
  let bound = site_bound r v in
  match T.children r.tree v with
  | [ c ] -> above r ~bound c
  | [ cl; cr ] ->
      let rt = above r ~bound cr in
      let lt = above r ~bound cl in
      node r ~bound v ~feasible:false (-1) lt rt
  | _ -> assert false

(* Winners first, reconstruction after: only the per-bucket best root
   row pays the arena walk. The rows are visited last slot and last row
   first, and a later row takes a bucket only with a strictly higher
   slack. The driver adds no energy, and every insertion and merge
   enforced the budget, so every root row is within it. *)
let reconstruct r (top : Flat.table) =
  let d =
    match T.kind r.tree (T.root r.tree) with
    | T.Source d -> d
    | T.Sink _ | T.Internal | T.Buffered _ -> assert false
  in
  let winners = Array.make r.nbuckets None in
  for sl = r.nslots - 1 downto 0 do
    let g = top.(sl) in
    let ga = g.Flat.a and go = g.Flat.o in
    if sl land 1 = 0 then
      for k = g.Flat.n - 1 downto 0 do
        let x = go + (6 * k) in
        let c = ga.(x) and i = ga.(x + 2) and ns = ga.(x + 3) in
        if (not r.guard) || d.T.r_drv *. i <= ns +. C.noise_tol then begin
          let q = ga.(x + 1) -. (d.T.d_drv +. (d.T.r_drv *. c)) in
          match winners.(sl asr 1) with
          | Some (best, _) when best >= q -> ()
          | Some _ | None -> winners.(sl asr 1) <- Some (q, Flat.trace g k)
        end
      done
  done;
  (* the count-slack front: a count's winner stays only where its slack
     beats every lower count's *)
  if r.front_only then begin
    let top = ref neg_infinity in
    Array.iteri
      (fun k -> function
        | Some (q, _) when q > !top -> top := q
        | Some _ -> winners.(k) <- None
        | None -> ())
      winners
  end;
  let arena = r.arena and cn = r.cn and apart = r.pred || r.power in
  let reconstructed =
    Array.map
      (Option.map (fun (q, h) ->
           (q, Trace.placements arena h, Trace.sizes arena h, Trace.energy arena h)))
      winners
  in
  (* outside the predictive and power engines, which are never both on,
     a candidate skipped on arrival counts as generated and pruned *)
  let stats =
    {
      generated = (cn.C.generated + if apart then 0 else cn.C.skipped);
      pruned = (cn.C.pruned + if apart then 0 else cn.C.skipped);
      pred_pruned = (if r.pred then cn.C.skipped else 0);
      power_pruned = (if r.power then cn.C.skipped else 0);
      count_pruned = cn.C.count_pruned;
      peak_width = r.peak_width;
      (* per-run delta: under a memo the arena is resident and carries
         every previous run's traces *)
      arena = Trace.size arena - r.arena0;
      minor_words = Gc.minor_words () -. Trace.header_words arena -. r.words0;
    }
  in
  let by_count =
    Array.map
      (Option.map (fun (slack, placements, sizes, energy) ->
           { slack; placements; sizes; count = List.length placements; energy; stats }))
      reconstructed
  in
  let best =
    Array.fold_left
      (fun acc r ->
        match (acc, r) with
        | Some a, Some b when not (b.slack > a.slack) -> acc
        | _, None -> acc
        | _, Some _ -> r)
      None by_count
  in
  { best; by_count; stats }

(* One run at a time per domain: the scratch is the domain's. *)
let run ?(pruning = `Predictive) ?(widths = [ 1.0 ]) ?mutation ?memo ~noise ~mode ~lib tree =
  if widths = [] || List.exists (fun w -> w < 1.0) widths then
    invalid_arg "Dp.run: widths must be >= 1";
  if lib = [] then invalid_arg "Dp.run: empty buffer library";
  if T.buffer_count tree > 0 then invalid_arg "Dp.run: tree already contains buffers";
  let sc = Domain.DLS.get scratch_key in
  if sc.busy then invalid_arg "Dp.run: re-entered on a domain already running it";
  sc.busy <- true;
  Fun.protect
    ~finally:(fun () -> sc.busy <- false)
    (fun () ->
      let r = start sc ~pruning ~widths ~mutation ~memo ~noise ~mode ~lib tree in
      reconstruct r (root r))
