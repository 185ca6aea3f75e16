(** An in-network Bloom filter (set membership over flows).

    Not one of the paper's services: it exists to probe Section 7.1's open
    question of how general the instruction set is.  Three probes use the
    per-stage hash engines (stages 4/8/12 under the identity mutant, so
    insert and query hash identically), bits live in three memory stages,
    and the query folds the probes with MIN (AND over 0/1 bits), replying
    via CRTS on membership.

    Elastic demand: more memory means fewer false positives. *)

val insert_program : Activermt.Program.t
(** Set this flow's three bits; replies via RTS as a write ack. *)

val query_program : Activermt.Program.t
(** Returns to sender iff all three bits are set (probable member);
    forwards to the destination otherwise. *)

val service : App.t

val insert_args : key0:int -> key1:int -> int array
val query_args : key0:int -> key1:int -> int array

val false_positive_rate : bits_per_stage:int -> inserted:int -> float
(** Analytic FPR of the 3-probe filter, for checking measured rates. *)
