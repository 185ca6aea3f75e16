(** CRC hash units.

    Tofino's data-plane hash engines compute CRC polynomials over selected
    PHV fields; ActiveRMT's HASH instruction feeds the hash-data registers
    through one of them.  We implement CRC-32 (reflected, polynomial
    0xEDB88320) and CRC-32C so that independent sketch rows can use
    independent hash functions, plus a seeded variant used to emulate
    per-stage hash diversity. *)

val crc32 : ?seed:int -> int list -> int
(** CRC-32 over the 32-bit words of the input (little-endian byte order),
    truncated to a non-negative OCaml [int]. *)

val crc32c : ?seed:int -> int list -> int
(** Castagnoli variant; an independent function for second sketch rows. *)

val crc32_2 : int -> int -> int
(** [crc32_2 w0 w1] = [crc32 [ w0; w1 ]] without the list allocations,
    for per-packet key hashing. *)

val crc32c_2 : int -> int -> int
(** [crc32c_2 w0 w1] = [crc32c [ w0; w1 ]] without the list allocations. *)

val hash_words : row:int -> int list -> int
(** [hash_words ~row ws] gives a family of effectively independent hash
    functions indexed by [row] (one per stage).  CRC seeding alone is
    affine — seeded variants of one polynomial are translations of each
    other and would correlate sketch/Bloom probes — so the row is folded
    in with a non-linear finalizer, emulating per-stage polynomial
    diversity on real hardware. *)

val hash_words2 : row:int -> int -> int -> int
(** [hash_words2 ~row w0 w1] = [hash_words ~row [ w0; w1 ]] without the
    list allocations, for per-packet use. *)
