type t = { data : int array; mutable accesses : int }

type op =
  | Read
  | Write of int
  | Add_read of int
  | Min_read of int
  | Max_write of int

type access_result = { value : int }

let mask32 v = v land 0xFFFFFFFF

let create ~words =
  if words <= 0 then invalid_arg "Register_array.create: words must be positive";
  { data = Array.make words 0; accesses = 0 }

let words t = Array.length t.data

let check t index =
  if index < 0 || index >= Array.length t.data then
    invalid_arg
      (Printf.sprintf "Register_array.access: index %d out of bounds [0,%d)"
         index (Array.length t.data))

let access t ~index op =
  check t index;
  t.accesses <- t.accesses + 1;
  let value =
    match op with
    | Read -> t.data.(index)
    | Write v ->
      let v = mask32 v in
      t.data.(index) <- v;
      v
    | Add_read v ->
      let nv = mask32 (t.data.(index) + v) in
      t.data.(index) <- nv;
      nv
    | Min_read v -> min t.data.(index) (mask32 v)
    | Max_write v ->
      let old = t.data.(index) in
      t.data.(index) <- max old (mask32 v);
      old
  in
  { value }

(* Counted single-op entry points: identical semantics to [access] with
   the corresponding [op] (bounds check, access accounting, masking) but
   no op/result allocation, for compiled per-packet code. *)
let read_counted t index =
  check t index;
  t.accesses <- t.accesses + 1;
  t.data.(index)

let write_counted t index v =
  check t index;
  t.accesses <- t.accesses + 1;
  t.data.(index) <- mask32 v

let add_read_counted t index v =
  check t index;
  t.accesses <- t.accesses + 1;
  let nv = mask32 (t.data.(index) + v) in
  t.data.(index) <- nv;
  nv

let min_read_counted t index v =
  check t index;
  t.accesses <- t.accesses + 1;
  min t.data.(index) (mask32 v)

let get t index =
  check t index;
  t.data.(index)

let set t index v =
  check t index;
  t.data.(index) <- mask32 v

let zero_range t ~lo ~hi =
  check t lo;
  check t hi;
  Array.fill t.data lo (hi - lo + 1) 0

let access_count t = t.accesses

let snapshot_range t ~lo ~hi =
  check t lo;
  check t hi;
  Array.sub t.data lo (hi - lo + 1)

(* A plain loop rather than [Array.blit]: the array lives in the major
   heap, where a blit pays a write barrier per word, while typed int
   stores need none.  The range check up front covers every index the
   loops touch. *)
let move t ~src ~dst ~len =
  let n = Array.length t.data in
  if len < 0 || src < 0 || dst < 0 || src > n - len || dst > n - len then
    invalid_arg
      (Printf.sprintf "Register_array.move: src %d dst %d len %d outside [0,%d)"
         src dst len n);
  let d = t.data in
  if dst < src then
    for i = 0 to len - 1 do
      Array.unsafe_set d (dst + i) (Array.unsafe_get d (src + i))
    done
  else if dst > src then
    for i = len - 1 downto 0 do
      Array.unsafe_set d (dst + i) (Array.unsafe_get d (src + i))
    done
