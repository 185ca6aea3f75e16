(** One logical stage's memory pool, divided into fixed-size blocks
    (Section 4.1; 256 blocks per stage by default).

    Inelastic applications are pinned to the beginning of the pool and are
    never moved; when they depart they may leave holes (the fragmentation
    the paper accepts).  New inelastic apps fill the first hole that fits,
    or extend the pinned zone.  Elastic applications share the remainder
    above the pinned zone's high-water mark by progressive filling
    (max-min fair with per-app minimums, integer blocks), packed
    contiguously in arrival order. *)

type range = { first_block : int; n_blocks : int }

val range_end : range -> int
(** One past the last block. *)

type slot = { fid : int; range : range; min_blocks : int; elastic : bool }

type t

val create : total_blocks:int -> t
val total_blocks : t -> int
val high_water : t -> int
(** Top of the pinned (inelastic) zone.  O(1): maintained as a counter on
    add/remove, like [used_blocks], [n_slots] and [fungible_blocks]. *)

val used_blocks : t -> int
val slots : t -> slot list
(** All resident slots, inelastic first (by address), then elastic (by
    arrival). *)

val n_elastic : t -> int
val n_slots : t -> int
(** Total resident slots, inelastic plus elastic. *)

val fungible_blocks : t -> int
(** Free blocks plus blocks elastic residents could yield while keeping
    their minimums: total - high_water - sum of elastic minimums.  The
    cost metric behind worst-fit/best-fit (Section 4.2). *)

val max_hole : t -> int
(** Largest free hole inside the pinned zone (0 when none) — with
    [fungible_blocks], everything admission feasibility needs; snapshotted
    once per arrival by the allocator's fast path. *)

val add_inelastic : t -> fid:int -> blocks:int -> (range, [ `No_space ]) result
(** Place and pin; does not touch elastic residents (call
    [refill_elastic] afterwards to shrink them around the new zone). *)

val add_elastic : t -> fid:int -> min_blocks:int -> (unit, [ `No_space ]) result
(** Register an elastic resident; its region materializes on
    [refill_elastic]. *)

val remove : t -> fid:int -> bool
(** Remove a resident; true if it was present. *)

val unfill_elastic : t -> unit
(** Withdraw every elastic share (ranges zeroed, counters adjusted) until
    the next {!refill_elastic} recomputes them.  Batched admission calls
    this on a stage's first commit of an epoch so deferred refills can't
    leave stale elastic ranges below a rising high-water mark, where the
    block map would flag them as overlaps.  No decision input changes:
    feasibility reads counters and hole scans stop at the high-water
    mark. *)

val refill_elastic : t -> (int -> range -> unit) -> unit
(** Recompute elastic shares by progressive filling and repack them above
    the high-water mark, then call [moved fid range] for each elastic
    resident whose range changed (or first materialized), in arrival
    order: the refill's delta.  Residents it does not name kept their
    range.  {!slots} lists the whole layout. *)

val map : t -> int array
(** The per-block ownership map (block index -> fid, -1 when free),
    rebuilt from the slot state on demand.
    @raise Invalid_argument if two residents overlap — the allocator's
    central safety invariant. *)
