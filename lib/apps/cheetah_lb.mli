(** Cheetah stateless load balancer (Appendix B.2, Listings 3 and 4).

    Two programs under one FID: SYN packets run the server-selection
    program (round-robin over a VIP pool whose size, page table and
    entries live in switch memory; the selected port is folded into a
    cookie = hash(salt, 5-tuple) XOR port and written back to the
    client); non-SYN packets run the stateless flow-routing program,
    recovering the port as hash XOR cookie with no memory access.

    The paper gives these listings as prose; DESIGN.md records the
    line-by-line reconstruction.  Inelastic demand: one block per accessed
    stage (pool size, round-robin counter, page table, VIP pool). *)

val syn_program : Activermt.Program.t
(** Listing 3: 28 instructions, memory accesses at (1-based) 5, 7, 16, 18;
    the cookie HASH is padded onto logical stage 3 of the second pass. *)

val syn_hash_position : int
(** 0-based position of the SYN program's HASH instruction; the flow
    program must run its HASH on the same logical stage (same hash engine)
    for cookies to decode. *)

val flow_program : Activermt.Program.t
(** Listing 4: 10 instructions, no memory access, compact form (HASH on
    stage 3 — matches the unshifted SYN mutant). *)

val flow_program_for : hash_stage:int -> Activermt.Program.t
(** Flow-routing program with its HASH padded onto [hash_stage], used when
    the granted SYN mutant shifted the cookie hash. *)

val service : App.t
(** The stateful SYN side, which is what requests an allocation. *)

val arg_cookie : int

val syn_args : salt:int -> int array
val flow_args : salt:int -> cookie:int -> int array

val install_pool :
  write:(stage:int -> index:int -> value:int -> bool) ->
  accesses_stages:int array ->
  ports:int array ->
  unit
(** Populate the pool-size / counter / page-table / VIP-pool slots via a
    control- or data-plane write primitive.  [accesses_stages] is the
    service's granted stage per access (from the mutant); [ports] is the
    VIP pool (its length must be a power of two). *)
