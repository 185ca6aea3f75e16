type range = { first_block : int; n_blocks : int }

let range_end r = r.first_block + r.n_blocks

type slot = { fid : int; range : range; min_blocks : int; elastic : bool }

type islot = { ifid : int; mutable irange : range }
type eslot = { efid : int; emin : int; mutable erange : range }

(* [c_*] counters mirror folds over the slot lists so the admission fast
   path reads occupancy in O(1); they are maintained on every mutation and
   the tests re-derive them from [slots] as oracles. *)
type t = {
  total : int;
  mutable inelastic : islot list;  (* sorted by first_block *)
  mutable elastic : eslot list;  (* arrival order *)
  map : int array;  (* block -> owning fid, or -1: the block-granular
                       bookkeeping a real controller maintains *)
  mutable dirty : bool;
  mutable c_pinned : int;  (* sum of inelastic n_blocks *)
  mutable c_eblocks : int;  (* sum of elastic n_blocks (current shares) *)
  mutable c_hw : int;  (* max range_end over inelastic *)
  mutable c_emin : int;  (* sum of elastic minimums *)
  mutable c_n_inelastic : int;
  mutable c_n_elastic : int;
}

let create ~total_blocks =
  if total_blocks <= 0 then invalid_arg "Pool.create: total_blocks must be positive";
  {
    total = total_blocks;
    inelastic = [];
    elastic = [];
    map = Array.make total_blocks (-1);
    dirty = false;
    c_pinned = 0;
    c_eblocks = 0;
    c_hw = 0;
    c_emin = 0;
    c_n_inelastic = 0;
    c_n_elastic = 0;
  }

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
  List.iter (fun s -> paint s.ifid s.irange) t.inelastic;
  List.iter (fun s -> if s.erange.n_blocks > 0 then paint s.efid s.erange) t.elastic;
  t.dirty <- false

let map t =
  if t.dirty then rebuild_map t;
  t.map

let total_blocks t = t.total
let high_water t = t.c_hw
let elastic_min_total t = t.c_emin
let n_elastic t = t.c_n_elastic
let n_slots t = t.c_n_inelastic + t.c_n_elastic
let used_blocks t = t.c_pinned + t.c_eblocks

let slots t =
  List.map
    (fun s ->
      { fid = s.ifid; range = s.irange; min_blocks = s.irange.n_blocks; elastic = false })
    t.inelastic
  @ List.map
      (fun s -> { fid = s.efid; range = s.erange; min_blocks = s.emin; elastic = true })
      t.elastic

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

let can_fit_inelastic t ~blocks =
  blocks > 0
  && (List.exists (fun (_, gap) -> gap >= blocks) (holes t)
     || fungible_blocks t >= blocks)

let can_fit_elastic t ~min_blocks =
  min_blocks > 0 && fungible_blocks t >= min_blocks

let insert_sorted slot slots =
  let rec go = function
    | [] -> [ slot ]
    | s :: rest ->
      if slot.irange.first_block < s.irange.first_block then slot :: s :: rest
      else s :: go rest
  in
  go slots

let add_inelastic t ~fid ~blocks =
  if blocks <= 0 then invalid_arg "Pool.add_inelastic: blocks must be positive";
  let place first_block =
    let r = { first_block; n_blocks = blocks } in
    t.inelastic <- insert_sorted { ifid = fid; irange = r } t.inelastic;
    t.c_pinned <- t.c_pinned + blocks;
    t.c_hw <- max t.c_hw (range_end r);
    t.c_n_inelastic <- t.c_n_inelastic + 1;
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
    t.elastic <-
      t.elastic @ [ { efid = fid; emin = min_blocks; erange = { first_block = 0; n_blocks = 0 } } ];
    t.c_emin <- t.c_emin + min_blocks;
    t.c_n_elastic <- t.c_n_elastic + 1;
    t.dirty <- true;
    Ok ()
  end
  else Error `No_space

let remove t ~fid =
  let had = ref false in
  t.inelastic <-
    List.filter
      (fun s ->
        if s.ifid = fid then begin
          had := true;
          t.c_pinned <- t.c_pinned - s.irange.n_blocks;
          t.c_n_inelastic <- t.c_n_inelastic - 1;
          false
        end
        else true)
      t.inelastic;
  t.elastic <-
    List.filter
      (fun s ->
        if s.efid = fid then begin
          had := true;
          t.c_eblocks <- t.c_eblocks - s.erange.n_blocks;
          t.c_emin <- t.c_emin - s.emin;
          t.c_n_elastic <- t.c_n_elastic - 1;
          false
        end
        else true)
      t.elastic;
  (* The high-water mark can drop when a pinned resident leaves; departures
     are rare relative to O(1) reads, so re-fold it here. *)
  t.c_hw <- List.fold_left (fun acc s -> max acc (range_end s.irange)) 0 t.inelastic;
  t.dirty <- true;
  !had

(* Max-min fair shares with minimums over [budget] blocks: water-fill,
   then hand out integer remainders in arrival order.  Each round levels
   the apps not yet pinned at their minimum and pins every one whose
   minimum exceeds the level; shares become region offsets, so the level
   is computed with exactly the float operations of the original list
   version (test_alloc keeps that version as the oracle). *)
let progressive_fill mins budget =
  let k = Array.length mins in
  if k = 0 then [||]
  else begin
    let shares = Array.map float_of_int mins in
    let fixed = Array.make k false in
    let rec fill () =
      let reserved = ref 0.0 and n_flex = ref 0 in
      for i = 0 to k - 1 do
        if fixed.(i) then reserved := !reserved +. shares.(i) else incr n_flex
      done;
      if !n_flex > 0 then begin
        let level = (float_of_int budget -. !reserved) /. float_of_int !n_flex in
        let violated = ref false in
        for i = 0 to k - 1 do
          if (not fixed.(i)) && float_of_int mins.(i) > level then begin
            shares.(i) <- float_of_int mins.(i);
            fixed.(i) <- true;
            violated := true
          end
        done;
        if !violated then fill ()
        else
          for i = 0 to k - 1 do
            if not fixed.(i) then shares.(i) <- level
          done
      end
    in
    fill ();
    (* Integer rounding: floors first, then the remainder one block at a
       time in arrival order — but only to apps at the water level
       (giving a remainder block to an app pinned at its minimum would
       push it above flexible apps and break max-min fairness). *)
    let out = Array.map (fun s -> int_of_float (floor s)) shares in
    let leftover = ref (budget - Array.fold_left ( + ) 0 out) in
    for i = 0 to k - 1 do
      if !leftover > 0 && not fixed.(i) then begin
        out.(i) <- out.(i) + 1;
        decr leftover
      end
    done;
    for i = 0 to k - 1 do
      if !leftover > 0 then begin
        out.(i) <- out.(i) + 1;
        decr leftover
      end
    done;
    out
  end

(* Batched admission commits several arrivals before re-packing elastic
   layouts: a commit that raises the high-water mark would make the block
   map's stale elastic ranges (from the last refill, below the new mark)
   look like overlaps.  Withdrawing the shares keeps the map consistent
   without changing any decision input — feasibility reads counters, and
   hole scans only look below the high-water mark, where elastic apps
   never hold blocks.  The next [refill_elastic] recomputes every share
   from scratch. *)
let unfill_elastic t =
  List.iter (fun s -> s.erange <- { first_block = 0; n_blocks = 0 }) t.elastic;
  t.c_eblocks <- 0;
  t.dirty <- true

let refill_elastic t =
  let apps = Array.of_list t.elastic in
  let mins = Array.map (fun s -> s.emin) apps in
  let budget = t.total - high_water t in
  let shares = progressive_fill mins budget in
  let cursor = ref (high_water t) in
  Array.iteri
    (fun i s ->
      s.erange <- { first_block = !cursor; n_blocks = shares.(i) };
      cursor := !cursor + shares.(i))
    apps;
  t.c_eblocks <- Array.fold_left ( + ) 0 shares;
  t.dirty <- true;
  ignore (map t);
  Array.to_list (Array.map (fun s -> (s.efid, s.erange)) apps)
