type prefix = { value : int; prefix_len : int }

let prefixes_of_range ~width ~lo ~hi =
  if width <= 0 || width > 30 then invalid_arg "Tcam: unsupported width";
  let limit = 1 lsl width in
  if lo < 0 || hi >= limit then invalid_arg "Tcam: bounds exceed width";
  (* Greedy minimal cover: repeatedly take the largest aligned power-of-two
     block starting at [lo] that stays within [hi]. *)
  let trailing_zeros n =
    let rec go n c = if n land 1 = 1 then c else go (n lsr 1) (c + 1) in
    if n = 0 then width else go n 0
  in
  let rec cover lo hi acc =
    if lo > hi then List.rev acc
    else begin
      let max_align = min width (trailing_zeros lo) in
      let rec fit k =
        if k <= 0 then 0
        else if k <= max_align && lo + (1 lsl k) - 1 <= hi then k
        else fit (k - 1)
      in
      let k = fit width in
      let size = 1 lsl k in
      cover (lo + size) hi ({ value = lo; prefix_len = width - k } :: acc)
    end
  in
  cover lo hi []

(* The same greedy cover, counted without building it: from [x] the block
   is [x]'s lowest set bit (the whole space at 0), halved until it fits in
   what is left of the range.  Block sizes rise and then fall, so the
   halvings total O(width).  Top-level, so counting allocates nothing. *)
let rec fit b room = if b > room then fit (b lsr 1) room else b

let rec count_cover ~limit ~hi x n =
  if x > hi then n
  else
    count_cover ~limit ~hi (x + fit (if x = 0 then limit else x land -x) (hi - x + 1)) (n + 1)

let entries_for_range ~width ~lo ~hi =
  if width <= 0 || width > 30 then invalid_arg "Tcam: unsupported width";
  let limit = 1 lsl width in
  if lo < 0 || hi >= limit then invalid_arg "Tcam: bounds exceed width";
  count_cover ~limit ~hi lo 0

(* A handle keeps only what removal needs: the entries to give back. *)
type handle = { cost : int; mutable live : bool }
type t = { width : int; capacity : int; mutable used : int }

let create ~width ~capacity =
  if capacity < 0 then invalid_arg "Tcam.create: negative capacity";
  { width; capacity; used = 0 }

let used t = t.used
let free t = t.capacity - t.used

let install_range t ~lo ~hi =
  let cost = entries_for_range ~width:t.width ~lo ~hi in
  if t.used + cost > t.capacity then Error `Capacity
  else begin
    t.used <- t.used + cost;
    Ok { cost; live = true }
  end

let remove t h =
  if h.live then begin
    h.live <- false;
    t.used <- t.used - h.cost
  end
