(** Memory-synchronization programs (Section 4.3 / Appendix C).

    RDMA-style primitives that let a client read or write its allocated
    switch memory through the data plane: each packet targets one
    region-relative index (argument 0) in up to three stages, returning or
    carrying the values in argument fields 1-3.  Reads and writes are
    idempotent, so clients simply retransmit on loss; every packet
    replies to the sender via RTS.

    Clients use these to extract a consistent snapshot before a
    reallocation is applied and to (re)populate state afterwards — e.g.
    the cache-population traffic in the Section 6.3 case study. *)

val read_program : stages:int list -> Activermt.Program.t
(** Read the word at index [arg0] of each listed stage into argument
    fields 1, 2, 3 respectively and return to sender.
    @raise Invalid_argument on more than 3 stages, duplicates out of
    order, or stages outside one pipeline pass. *)

val write_program : stages:int list -> Activermt.Program.t
(** Write argument fields 1-3 to index [arg0] of the listed stages, then
    return to sender as the write acknowledgement. *)

val read_args : index:int -> int array
val write_args : index:int -> values:int list -> int array

val listing5 : Activermt.Program.t
(** Appendix C.1 verbatim: single-location read. *)

val listing6 : Activermt.Program.t
(** Appendix C.2 verbatim: single-location write. *)
