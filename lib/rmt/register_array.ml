type t = { data : Bytes.t; mutable accesses : int; mutable zero_at : int }

external unsafe_get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

type op =
  | Read
  | Write of int
  | Add_read of int
  | Min_read of int
  | Max_write of int

type access_result = { value : int }

let mask32 v = v land 0xFFFFFFFF

(* Word [i] lives at byte offset [4 * i]: loads zero-extend, stores keep
   the low 32 bits.  Callers check [i] first. *)
let[@inline] load d i = Int32.to_int (unsafe_get32 d (i lsl 2)) land 0xFFFFFFFF
let[@inline] store d i v = unsafe_set32 d (i lsl 2) (Int32.of_int v)

let create ~words =
  if words <= 0 || words > Sys.max_string_length / 4 then
    invalid_arg "Register_array.create: words out of range";
  { data = Bytes.make (words * 4) '\000'; accesses = 0; zero_at = 0 }

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
      store d index v;
      mask32 v
    | Add_read v ->
      let nv = mask32 (load d index + v) in
      store d index nv;
      nv
    | Min_read v -> min (load d index) (mask32 v)
    | Max_write v ->
      let old = load d index in
      store d index (max old (mask32 v));
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
  store t.data index v

let add_read_counted t index v =
  check t index;
  t.accesses <- t.accesses + 1;
  let nv = mask32 (load t.data index + v) in
  store t.data index nv;
  nv

let min_read_counted t index v =
  check t index;
  t.accesses <- t.accesses + 1;
  min (load t.data index) (mask32 v)

let get t index =
  check t index;
  load t.data index

(* A control-plane write does not count as an access, so it forgets the
   array's known-zero mark itself. *)
let set t index v =
  check t index;
  t.zero_at <- -1;
  store t.data index v

(* Whether the array reads all zeros: no access and no [set] since
   [create] or the last whole-array [zero_range]. *)
let[@inline] known_zero t = t.accesses = t.zero_at

let zero_range t ~lo ~hi =
  check t lo;
  check t hi;
  if hi < lo - 1 then
    invalid_arg (Printf.sprintf "Register_array.zero_range: hi %d < lo %d - 1" hi lo);
  if hi >= lo && not (known_zero t) then begin
    Bytes.fill t.data (lo * 4) ((hi - lo + 1) * 4) '\000';
    if lo = 0 && hi = words t - 1 then t.zero_at <- t.accesses
  end

let access_count t = t.accesses

let snapshot_range t ~lo ~hi =
  check t lo;
  check t hi;
  let d = t.data in
  Array.init (hi - lo + 1) (fun i -> load d (lo + i))

(* The range check up front is overflow-safe.  [Bytes.blit] is a
   memmove, so overlap is fine; an array known zero has nothing to
   copy. *)
let move t ~src ~dst ~len =
  let n = words t in
  if len < 0 || src < 0 || dst < 0 || src > n - len || dst > n - len then
    invalid_arg
      (Printf.sprintf "Register_array.move: src %d dst %d len %d outside [0,%d)"
         src dst len n);
  if not (known_zero t) then Bytes.blit t.data (src * 4) t.data (dst * 4) (len * 4)
