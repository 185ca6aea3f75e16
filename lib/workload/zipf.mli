(** Zipfian key popularity, the object-request distribution of the cache
    case study (Section 6.3; the paper cites standard KV workloads
    [2, 42, 43], conventionally Zipf with exponent around 0.99). *)

type t

val create : ?exponent:float -> n:int -> Stdx.Prng.t -> t
(** [create ~n rng] prepares a sampler over ranks 1..n (default exponent
    0.99).  Ranks are returned 0-based, most popular first. *)

val sample : t -> int
(** Draw a 0-based rank. *)

val pmf : t -> int -> float
(** Probability of the 0-based rank. *)

val head_mass : t -> int -> float
(** Total probability of the top-k ranks: the ideal hit rate of a cache
    holding exactly the k most popular objects. *)
