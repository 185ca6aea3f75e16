type t = { data : Bytes.t; zeroed : Bytes.t; mutable accesses : int }

external unsafe_get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

type op =
  | Read
  | Write of int
  | Add_read of int
  | Min_read of int
  | Max_write of int

type access_result = { value : int }

let chunk_shift = 8
let chunk_words = 1 lsl chunk_shift

let mask32 v = v land 0xFFFFFFFF

(* Word [i] lives at byte offset [4 * i]: loads zero-extend, stores keep
   the low 32 bits and clear the byte of [i]'s chunk in [zeroed].  Callers
   check [i] first. *)
let[@inline] load d i = Int32.to_int (unsafe_get32 d (i lsl 2)) land 0xFFFFFFFF

let[@inline] store t i v =
  Bytes.unsafe_set t.zeroed (i lsr chunk_shift) '\000';
  unsafe_set32 t.data (i lsl 2) (Int32.of_int v)

let create ~words =
  if words <= 0 || words > Sys.max_string_length / 4 then
    invalid_arg "Register_array.create: words out of range";
  {
    data = Bytes.make (words * 4) '\000';
    zeroed = Bytes.make (((words - 1) lsr chunk_shift) + 1) '\001';
    accesses = 0;
  }

let words t = Bytes.length t.data lsr 2

let check t index =
  if index < 0 || index >= words t then
    invalid_arg
      (Printf.sprintf "Register_array.access: index %d out of bounds [0,%d)"
         index (words t))

let access t ~index op =
  check t index;
  t.accesses <- t.accesses + 1;
  let d = t.data in
  let value =
    match op with
    | Read -> load d index
    | Write v ->
      store t index v;
      mask32 v
    | Add_read v ->
      let nv = mask32 (load d index + v) in
      store t index nv;
      nv
    | Min_read v -> min (load d index) (mask32 v)
    | Max_write v ->
      let old = load d index in
      store t index (max old (mask32 v));
      old
  in
  { value }

(* Counted single-op entry points: identical semantics to [access] with
   the corresponding [op] (bounds check, access accounting, masking) but
   no op/result allocation, for compiled per-packet code. *)
let read_counted t index =
  check t index;
  t.accesses <- t.accesses + 1;
  load t.data index

let write_counted t index v =
  check t index;
  t.accesses <- t.accesses + 1;
  store t index v

let add_read_counted t index v =
  check t index;
  t.accesses <- t.accesses + 1;
  let nv = mask32 (load t.data index + v) in
  store t index nv;
  nv

let min_read_counted t index v =
  check t index;
  t.accesses <- t.accesses + 1;
  min (load t.data index) (mask32 v)

let get t index =
  check t index;
  load t.data index

let set t index v =
  check t index;
  store t index v

(* Zero the words [lo, hi) (in range, [lo < hi]): fill each chunk part
   whose chunk may hold a non-zero word, then mark the chunks the range
   covers in full, the array's partial last chunk included. *)
let clear t lo hi =
  for c = lo lsr chunk_shift to (hi - 1) lsr chunk_shift do
    if Bytes.unsafe_get t.zeroed c = '\000' then begin
      let c_lo = c lsl chunk_shift and n = words t in
      let c_hi = if c_lo + chunk_words < n then c_lo + chunk_words else n in
      let a = if lo > c_lo then lo else c_lo in
      let b = if hi < c_hi then hi else c_hi in
      Bytes.fill t.data (a * 4) ((b - a) * 4) '\000';
      if a = c_lo && b = c_hi then Bytes.unsafe_set t.zeroed c '\001'
    end
  done

let zero_range t ~lo ~hi =
  check t lo;
  check t hi;
  if hi < lo - 1 then
    invalid_arg (Printf.sprintf "Register_array.zero_range: hi %d < lo %d - 1" hi lo);
  if hi >= lo then clear t lo (hi + 1)

let access_count t = t.accesses

let snapshot_range t ~lo ~hi =
  check t lo;
  check t hi;
  let d = t.data in
  Array.init (hi - lo + 1) (fun i -> load d (lo + i))

(* Whether every chunk holding a word of [lo, hi) is marked zero. *)
let marked t lo hi =
  let c = ref (lo lsr chunk_shift) and last = (hi - 1) lsr chunk_shift in
  while !c <= last && Bytes.unsafe_get t.zeroed !c <> '\000' do
    incr c
  done;
  !c > last

(* The range check up front is overflow-safe.  A source of marked chunks
   only is a clear of the destination; any other source is one blit,
   after which the destination's chunks are no longer known zero. *)
let move t ~src ~dst ~len =
  let n = words t in
  if len < 0 || src < 0 || dst < 0 || src > n - len || dst > n - len then
    invalid_arg
      (Printf.sprintf "Register_array.move: src %d dst %d len %d outside [0,%d)"
         src dst len n);
  if len = 0 || src = dst then ()
  else if marked t src (src + len) then clear t dst (dst + len)
  else begin
    Bytes.fill t.zeroed (dst lsr chunk_shift)
      (((dst + len - 1) lsr chunk_shift) - (dst lsr chunk_shift) + 1)
      '\000';
    Bytes.blit t.data (src * 4) t.data (dst * 4) (len * 4)
  end
