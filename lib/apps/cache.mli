(** The in-network object cache (Section 3.4, Listing 1).

    Stores 4-byte values under 8-byte keys in three memory stages: key
    word 0, key word 1 and the value, all at the same bucket index.  The
    client computes the bucket (a hash of the key confined to the
    allocated capacity) and sends it in argument 0; argument 1 and 2 carry
    the key words; argument 3 returns the value on a hit.

    Elastic demand: any allocation helps, bigger is better. *)

val query_program : Activermt.Program.t
(** Listing 1 verbatim: 11 instructions, memory accesses at (1-based)
    lines 2, 5 and 9, RTS at line 8. *)

val populate_program : Activermt.Program.t
(** Write a (key, value) object into a bucket: same access structure as
    the query so one mutant schedules both; replies via RTS so the client
    can confirm the write (Section 4.3). *)

val service : App.t

val query_args : bucket:int -> key0:int -> key1:int -> int array
val populate_args : bucket:int -> key0:int -> key1:int -> value:int -> int array

val bucket_of_key : capacity:int -> key0:int -> key1:int -> int
(** Client-side direct addressing: hash the key and confine it to the
    allocated bucket count. *)
