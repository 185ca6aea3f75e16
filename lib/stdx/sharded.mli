(** Per-domain shards of a mutable accumulator, merged on read.

    Each domain that calls [get] lazily materializes its own shard (via
    domain-local storage) and registers it with the owner, so writers
    never contend: a domain mutates only the shard [get] hands it.
    Readers traverse every shard ever registered with [fold]/[iter].

    Memory-safe under any interleaving, but reads concurrent with
    writers may observe partially-updated shards; merge totals are exact
    once the writing domains have been joined (e.g. after
    [Domain_pool.parallel_for] returns, which joins its workers).

    Shards of domains that have terminated stay registered — totals
    survive [Domain_pool]'s short-lived workers — so the shard list
    grows with the number of distinct domains that ever wrote, not with
    the number of records. *)

type 'a t

val create : init:(unit -> 'a) -> unit -> 'a t
(** [init] makes an empty shard; it runs once per writing domain, in
    that domain, on its first [get]. *)

val get : 'a t -> 'a
(** The calling domain's shard (created and registered on first use).
    The caller may mutate it freely without synchronization. *)

val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
(** Fold over a snapshot of all registered shards, including live ones. *)

val iter : 'a t -> f:('a -> unit) -> unit

val n_shards : 'a t -> int
