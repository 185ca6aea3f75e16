(** Key-value object workload: 8-byte keys (two 32-bit words) and 4-byte
    values, the object shape of the Section 3.4 cache. *)

type key = { k0 : int; k1 : int }

val key_of_rank : int -> key
(** Deterministic 8-byte key for an object rank (mixed so that key words
    look random but reproduce across runs). *)

val value_of_rank : int -> int
(** Deterministic 4-byte value; non-zero for every rank so tests and the
    cache can distinguish "absent" (0) from stored values. *)

val rank_of_key : key -> int option
(** Inverse of [key_of_rank] via the embedded check word; [None] when the
    key was not generated by [key_of_rank]. *)
