type 'a t = { keys : int array; vals : 'a array; none : 'a }

let size = 64

(* An empty slot is tagged -1 and holds [none], so a lookup of -1 in it
   answers [none] as a miss would. *)
let create none = { keys = Array.make size (-1); vals = Array.make size none; none }

let find t k =
  let i = k land (size - 1) in
  if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i else t.none

let set t k v =
  let i = k land (size - 1) in
  Array.unsafe_set t.keys i k;
  Array.unsafe_set t.vals i v

let remove t k =
  let i = k land (size - 1) in
  if Array.unsafe_get t.keys i = k then begin
    Array.unsafe_set t.keys i (-1);
    Array.unsafe_set t.vals i t.none
  end
