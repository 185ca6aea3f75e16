(** Deterministic pseudo-random number generation.

    Every experiment in this repository seeds its generator explicitly so
    that [dune runtest] and the benchmark harness are reproducible run to
    run.  The generator is splitmix64: tiny state, excellent statistical
    quality for simulation purposes, and trivially splittable so that
    independent simulation components can draw from independent streams. *)

type t
(** A mutable generator. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator from a 64-bit seed. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed variate with the given mean. *)

val poisson : t -> mean:float -> int
(** Poisson-distributed variate (Knuth's method; fine for small means). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
