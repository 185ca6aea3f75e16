type range = { first_block : int; n_blocks : int }

let range_end r = r.first_block + r.n_blocks

type slot = { fid : int; range : range; min_blocks : int; elastic : bool }

type islot = { ifid : int; irange : range }
(* [fixed] and [moved] are a refill's per-slot scratch. *)
type eslot = {
  efid : int;
  emin : int;
  mutable erange : range;
  mutable fixed : bool;
  mutable moved : bool;
}

let no_range = { first_block = 0; n_blocks = 0 }
let no_islot = { ifid = -1; irange = no_range }
let no_eslot = { efid = -1; emin = 0; erange = no_range; fixed = false; moved = false }

(* Slots live in the first [n_*] cells of growable arrays, so adding,
   removing and refilling shift cells in place instead of rebuilding
   lists.  [c_*] counters mirror folds over the slots so the admission
   fast path reads occupancy in O(1); they are maintained on every
   mutation and the tests re-derive them from [slots] as oracles. *)
type t = {
  total : int;
  mutable inelastic : islot array;  (* sorted by first_block *)
  mutable n_inelastic : int;
  mutable elastic : eslot array;  (* arrival order *)
  mutable n_elastic : int;
  map : int array;  (* block -> owning fid, or -1: the block-granular
                       bookkeeping a real controller maintains *)
  mutable dirty : bool;
  mutable c_pinned : int;  (* sum of inelastic n_blocks *)
  mutable c_eblocks : int;  (* sum of elastic n_blocks (current shares) *)
  mutable c_hw : int;  (* max range_end over inelastic *)
  mutable c_emin : int;  (* sum of elastic minimums *)
}

let create ~total_blocks =
  if total_blocks <= 0 then invalid_arg "Pool.create: total_blocks must be positive";
  {
    total = total_blocks;
    inelastic = [||];
    n_inelastic = 0;
    elastic = [||];
    n_elastic = 0;
    map = Array.make total_blocks (-1);
    dirty = false;
    c_pinned = 0;
    c_eblocks = 0;
    c_hw = 0;
    c_emin = 0;
  }

let grow cells n blank =
  if n < Array.length cells then cells
  else begin
    let bigger = Array.make (max 4 (2 * Array.length cells)) blank in
    Array.blit cells 0 bigger 0 n;
    bigger
  end

let rebuild_map t =
  Array.fill t.map 0 t.total (-1);
  let paint fid r =
    for b = r.first_block to r.first_block + r.n_blocks - 1 do
      if t.map.(b) <> -1 then
        invalid_arg
          (Printf.sprintf "Pool: overlapping allocation at block %d (fids %d, %d)"
             b t.map.(b) fid);
      t.map.(b) <- fid
    done
  in
  for i = 0 to t.n_inelastic - 1 do
    let s = t.inelastic.(i) in
    paint s.ifid s.irange
  done;
  for i = 0 to t.n_elastic - 1 do
    let s = t.elastic.(i) in
    if s.erange.n_blocks > 0 then paint s.efid s.erange
  done;
  t.dirty <- false

let map t =
  if t.dirty then rebuild_map t;
  t.map

let total_blocks t = t.total
let high_water t = t.c_hw
let n_elastic t = t.n_elastic
let n_slots t = t.n_inelastic + t.n_elastic
let used_blocks t = t.c_pinned + t.c_eblocks

let slots t =
  List.init t.n_inelastic (fun i ->
      let s = t.inelastic.(i) in
      { fid = s.ifid; range = s.irange; min_blocks = s.irange.n_blocks; elastic = false })
  @ List.init t.n_elastic (fun i ->
        let s = t.elastic.(i) in
        { fid = s.efid; range = s.erange; min_blocks = s.emin; elastic = true })

let fungible_blocks t = t.total - t.c_hw - t.c_emin

(* Holes inside the pinned zone, found by scanning the block map up to the
   high-water mark — O(blocks), the honest cost of block-granular
   bookkeeping (Section 6.4's granularity/time trade-off). *)
let holes t =
  let m = map t in
  let hw = high_water t in
  (* Elastic regions live at or above the high-water mark, so below it a
     block is either pinned or free. *)
  let pinned b = m.(b) <> -1 in
  let out = ref [] in
  let start = ref (-1) in
  for b = 0 to hw - 1 do
    if not (pinned b) then begin
      if !start < 0 then start := b
    end
    else if !start >= 0 then begin
      out := (!start, b - !start) :: !out;
      start := -1
    end
  done;
  if !start >= 0 then out := (!start, hw - !start) :: !out;
  List.rev !out

let max_hole t = List.fold_left (fun acc (_, gap) -> max acc gap) 0 (holes t)

let add_inelastic t ~fid ~blocks =
  if blocks <= 0 then invalid_arg "Pool.add_inelastic: blocks must be positive";
  let place first_block =
    let r = { first_block; n_blocks = blocks } in
    t.inelastic <- grow t.inelastic t.n_inelastic no_islot;
    (* Shift the slots above [first_block] up one cell. *)
    let i = ref t.n_inelastic in
    while !i > 0 && t.inelastic.(!i - 1).irange.first_block > first_block do
      t.inelastic.(!i) <- t.inelastic.(!i - 1);
      decr i
    done;
    t.inelastic.(!i) <- { ifid = fid; irange = r };
    t.n_inelastic <- t.n_inelastic + 1;
    t.c_pinned <- t.c_pinned + blocks;
    t.c_hw <- max t.c_hw (range_end r);
    t.dirty <- true;
    Ok r
  in
  match List.find_opt (fun (_, gap) -> gap >= blocks) (holes t) with
  | Some (start, _) -> place start
  | None ->
    if fungible_blocks t >= blocks then place (high_water t) else Error `No_space

let add_elastic t ~fid ~min_blocks =
  if min_blocks <= 0 then invalid_arg "Pool.add_elastic: min_blocks must be positive";
  if fungible_blocks t >= min_blocks then begin
    t.elastic <- grow t.elastic t.n_elastic no_eslot;
    t.elastic.(t.n_elastic) <-
      { efid = fid; emin = min_blocks; erange = no_range; fixed = false; moved = false };
    t.n_elastic <- t.n_elastic + 1;
    t.c_emin <- t.c_emin + min_blocks;
    t.dirty <- true;
    Ok ()
  end
  else Error `No_space

(* Compact both slot arrays in place, dropping [fid]'s slots and
   clearing the vacated cells so they hold nothing alive. *)
let remove t ~fid =
  let had = ref false in
  let j = ref 0 in
  for i = 0 to t.n_inelastic - 1 do
    let s = t.inelastic.(i) in
    if s.ifid = fid then begin
      had := true;
      t.c_pinned <- t.c_pinned - s.irange.n_blocks
    end
    else begin
      t.inelastic.(!j) <- s;
      incr j
    end
  done;
  Array.fill t.inelastic !j (t.n_inelastic - !j) no_islot;
  t.n_inelastic <- !j;
  (* Pinned slots are disjoint and sorted by address, so the last one
     ends highest. *)
  t.c_hw <- (if !j = 0 then 0 else range_end t.inelastic.(!j - 1).irange);
  j := 0;
  for i = 0 to t.n_elastic - 1 do
    let s = t.elastic.(i) in
    if s.efid = fid then begin
      had := true;
      t.c_eblocks <- t.c_eblocks - s.erange.n_blocks;
      t.c_emin <- t.c_emin - s.emin
    end
    else begin
      t.elastic.(!j) <- s;
      incr j
    end
  done;
  Array.fill t.elastic !j (t.n_elastic - !j) no_eslot;
  t.n_elastic <- !j;
  t.dirty <- true;
  !had

(* Max-min fair shares with minimums over [budget] blocks by
   water-filling.  Each round levels the apps not yet pinned at their
   minimum and pins every one whose minimum exceeds the level.  Leaves
   each slot's [fixed] flag (a pinned app's share is its minimum, the
   others' the level) and returns the level's floor, unused when every
   app is pinned.  Shares become region offsets, so the level is computed
   with exactly the float operations of the original list version
   (test_alloc keeps that version as the oracle). *)
let water_level t budget =
  let k = t.n_elastic in
  for i = 0 to k - 1 do
    t.elastic.(i).fixed <- false
  done;
  let level = ref 0.0 and settled = ref false in
  while not !settled do
    let reserved = ref 0.0 and n_flex = ref 0 in
    for i = 0 to k - 1 do
      let s = t.elastic.(i) in
      if s.fixed then reserved := !reserved +. float_of_int s.emin else incr n_flex
    done;
    if !n_flex = 0 then settled := true
    else begin
      level := (float_of_int budget -. !reserved) /. float_of_int !n_flex;
      settled := true;
      for i = 0 to k - 1 do
        let s = t.elastic.(i) in
        if (not s.fixed) && float_of_int s.emin > !level then begin
          s.fixed <- true;
          settled := false
        end
      done
    end
  done;
  int_of_float (floor !level)

let share s ~floor_level = if s.fixed then s.emin else floor_level

(* Batched admission commits several arrivals before re-packing elastic
   layouts: a commit that raises the high-water mark would make the block
   map's stale elastic ranges (from the last refill, below the new mark)
   look like overlaps.  Withdrawing the shares keeps the map consistent
   without changing any decision input — feasibility reads counters, and
   hole scans only look below the high-water mark, where elastic apps
   never hold blocks.  The next [refill_elastic] recomputes every share
   from scratch. *)
let unfill_elastic t =
  for i = 0 to t.n_elastic - 1 do
    t.elastic.(i).erange <- no_range
  done;
  t.c_eblocks <- 0;
  t.dirty <- true

(* Repack the elastic shares above the high-water mark, allocating a
   range only for a slot whose range changed, and report those slots once
   the block map has checked the new layout.  Integer rounding: floors
   first, then the remainder one block at a time in arrival order, first
   only to apps at the water level (giving one to an app pinned at its
   minimum would push it above flexible apps and break max-min
   fairness), then to any. *)
let refill_elastic t moved =
  let k = t.n_elastic and hw = t.c_hw in
  let budget = t.total - hw in
  let floor_level = water_level t budget in
  let leftover = ref budget and n_flex = ref 0 in
  for i = 0 to k - 1 do
    let s = t.elastic.(i) in
    leftover := !leftover - share s ~floor_level;
    if not s.fixed then incr n_flex
  done;
  let to_flex = max 0 (min !leftover !n_flex) in
  let to_any = max 0 (!leftover - to_flex) in
  let cursor = ref hw and flex_seen = ref 0 in
  for i = 0 to k - 1 do
    let s = t.elastic.(i) in
    let n = share s ~floor_level + if i < to_any then 1 else 0 in
    let n =
      if s.fixed then n
      else begin
        incr flex_seen;
        if !flex_seen <= to_flex then n + 1 else n
      end
    in
    s.moved <- s.erange.first_block <> !cursor || s.erange.n_blocks <> n;
    if s.moved then s.erange <- { first_block = !cursor; n_blocks = n };
    cursor := !cursor + n
  done;
  t.c_eblocks <- !cursor - hw;
  t.dirty <- true;
  ignore (map t);
  for i = 0 to k - 1 do
    let s = t.elastic.(i) in
    if s.moved then moved s.efid s.erange
  done
