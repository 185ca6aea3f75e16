(** Frequent-item (heavy-hitter) monitor (Appendix B.1, Listing 2).

    Per packet it updates a two-row count-min sketch of the 8-byte key,
    compares the sketched count against a per-slot running threshold and,
    when the count exceeds it, stores the key and the new threshold.  The
    program exceeds one pipeline pass, so it recirculates — the paper's
    example of a program that re-accesses memory on its second pass.

    [listing2_program] is the paper's 29-line listing verbatim.  In a
    20-stage logical pipeline its threshold *write* (line 26) would land
    on a different stage than the threshold *read* (line 16), so updates
    would never be seen again; [program] is the semantically aligned
    variant used by [service]: NOP padding places the threshold write at
    read_stage + 20, i.e. the same stage on the second pass (see
    DESIGN.md).

    Inelastic demand: 16 blocks per accessed stage (paper: "16 blocks ...
    to achieve less than 0.1% error with high probability"), which also
    gives 4096 threshold/key slots for the frequent-item set. *)

val listing2_program : Activermt.Program.t
(** Appendix B.1 verbatim; kept for reference and codec tests. *)

val program : Activermt.Program.t
(** The aligned 40-instruction variant: sketch rows at stages 7 and 12,
    threshold read at 15, threshold write at 15 on pass 2, key words at
    17 and 19 on pass 2. *)

val service : App.t

val args : key0:int -> key1:int -> slot:int -> int array

val threshold_access : int
(** Index (within the service's accesses) of the threshold read — its
    stage holds the running thresholds. *)

val key0_access : int
val key1_access : int
