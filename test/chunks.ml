(* The register arrays' chunk invariant, shared by the tests that write
   registers: every chunk whose [zeroed] byte is set reads all zeros. *)

module R = Rmt.Register_array

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Whether bytes [lo, hi) of [d] are all zero, a multiple of 4 long. *)
let zero_bytes d lo hi =
  let k = ref lo in
  while !k + 8 <= hi && get64u d !k = 0L do
    k := !k + 8
  done;
  !k = hi || (!k + 4 = hi && R.unsafe_get32 d !k = 0l)

(* Whether every chunk [c] of [d] with [marked c] reads all zeros. *)
let marked_read_zero d n_chunks marked =
  let rec go c =
    c = n_chunks
    || (let lo = 4 * c * R.chunk_words in
        ((not (marked c))
        || zero_bytes d lo (Int.min (Bytes.length d) (lo + (4 * R.chunk_words)))))
       && go (c + 1)
  in
  go 0

let hold_zeros (r : R.t) =
  marked_read_zero r.R.data (Bytes.length r.R.zeroed) (fun c ->
      Bytes.get r.R.zeroed c <> '\000')

(* [hold_zeros a && hold_zeros b] for two arrays whose words are equal,
   scanning each chunk at most once. *)
let twins_hold_zeros (a : R.t) (b : R.t) =
  marked_read_zero a.R.data (Bytes.length a.R.zeroed) (fun c ->
      Bytes.get a.R.zeroed c <> '\000' || Bytes.get b.R.zeroed c <> '\000')
