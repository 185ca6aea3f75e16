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

let rec popcount n c = if n = 0 then c else popcount (n land (n - 1)) (c + 1)
let rec top_bit n = if n land (n - 1) = 0 then n else top_bit (n land (n - 1))

(* The same greedy cover, counted without building it.  With [b = hi + 1]
   and [m] the multiple of the highest power of two where [lo] and [b]
   differ, the blocks rise from [lo] to [m], one per set bit of [m - lo],
   then fall from [m] to [b], one per set bit of [b - m]. *)
let entries_for_range ~width ~lo ~hi =
  if width <= 0 || width > 30 then invalid_arg "Tcam: unsupported width";
  let limit = 1 lsl width in
  if lo < 0 || hi >= limit then invalid_arg "Tcam: bounds exceed width";
  if lo > hi then 0
  else begin
    let b = hi + 1 in
    let m = b land lnot (top_bit (lo lxor b) - 1) in
    popcount (m - lo) 0 + popcount (b - m) 0
  end

type t = { width : int; capacity : int; mutable used : int }

let create ~width ~capacity =
  if capacity < 0 then invalid_arg "Tcam.create: negative capacity";
  { width; capacity; used = 0 }

let used t = t.used
let free t = t.capacity - t.used

(* A range costs at least one entry, so 0 can mean "did not fit". *)
let install_range t ~lo ~hi =
  let cost = entries_for_range ~width:t.width ~lo ~hi in
  if t.used + cost > t.capacity then 0
  else begin
    t.used <- t.used + cost;
    cost
  end

let release t n = t.used <- t.used - n
