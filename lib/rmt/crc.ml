let table poly =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := poly lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let crc32_table = table 0xEDB88320
let crc32c_table = table 0x82F63B78

let update tbl crc byte = tbl.((crc lxor byte) land 0xff) lxor (crc lsr 8)

let bytes_of_word w =
  [ w land 0xff; (w lsr 8) land 0xff; (w lsr 16) land 0xff; (w lsr 24) land 0xff ]

let run tbl words =
  let crc = ref 0xFFFFFFFF in
  let feed byte = crc := update tbl !crc byte in
  List.iter (fun w -> List.iter feed (bytes_of_word w)) words;
  !crc lxor 0xFFFFFFFF

let crc32 words = run crc32_table words
let crc32c words = run crc32c_table words

(* CRC is linear over GF(2), so varying only the seed (or prepending a
   row constant) produces *affine translations* of one function — probes
   would be fully correlated and sketch/Bloom rows would lose their
   independence.  Real Tofino stages configure genuinely different
   polynomials; we emulate a polynomial family by mixing the row into the
   CRC output with a non-linear (murmur3) finalizer. *)
let finalize ~row base =
  let x = (base lxor (row * 0x9E3779B1)) land 0xFFFFFFFF in
  let x = (x lxor (x lsr 16)) * 0x85EBCA6B land 0xFFFFFFFF in
  let x = (x lxor (x lsr 13)) * 0xC2B2AE35 land 0xFFFFFFFF in
  x lxor (x lsr 16)

let hash_words ~row words =
  let base = if row land 1 = 0 then crc32 words else crc32c words in
  finalize ~row base

(* Allocation-free two-word variant for the data plane's hot path (the
   hash engine always digests exactly HASHDATA[0..1]); bit-identical to
   [hash_words ~row [ w0; w1 ]].  Uses slicing-by-8: the full eight-byte
   digest becomes eight *independent* table lookups (t7[b0] ^ ... ^
   t0[b7]) instead of eight serially dependent byte steps, so the loads
   overlap.  The slice tables satisfy t{k+1}[i] = (tk[i] >> 8) ^
   t0[tk[i] & 0xff]; laid out as one flat 2048-entry array per
   polynomial. *)
let slice8 tbl =
  let t = Array.make 2048 0 in
  Array.blit tbl 0 t 0 256;
  for k = 1 to 7 do
    for i = 0 to 255 do
      let p = t.(((k - 1) * 256) + i) in
      t.((k * 256) + i) <- (p lsr 8) lxor tbl.(p land 0xff)
    done
  done;
  t

let crc32_slice = slice8 crc32_table
let crc32c_slice = slice8 crc32c_table

let[@inline] digest2 t w0 w1 =
  (* Both words in one slicing-by-8 step: the running CRC's contribution
     to the second word is fully captured by tables t4..t7, so all eight
     loads are independent — no serial dependency between the words. *)
  let x = (0xFFFFFFFF lxor w0) land 0xFFFFFFFF in
  let y = w1 land 0xFFFFFFFF in
  let crc =
    Array.unsafe_get t (1792 + (x land 0xff))
    lxor Array.unsafe_get t (1536 + ((x lsr 8) land 0xff))
    lxor Array.unsafe_get t (1280 + ((x lsr 16) land 0xff))
    lxor Array.unsafe_get t (1024 + ((x lsr 24) land 0xff))
    lxor Array.unsafe_get t (768 + (y land 0xff))
    lxor Array.unsafe_get t (512 + ((y lsr 8) land 0xff))
    lxor Array.unsafe_get t (256 + ((y lsr 16) land 0xff))
    lxor Array.unsafe_get t ((y lsr 24) land 0xff)
  in
  crc lxor 0xFFFFFFFF

let crc32_2 w0 w1 = digest2 crc32_slice w0 w1
let crc32c_2 w0 w1 = digest2 crc32c_slice w0 w1

let hash_words2 ~row w0 w1 =
  let t = if row land 1 = 0 then crc32_slice else crc32c_slice in
  finalize ~row (digest2 t w0 w1)
