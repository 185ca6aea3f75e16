open Import

(** The online memory allocator (Section 4.2).

    On each arrival the allocator systematically searches the new
    program's mutants (existing applications are never moved across
    stages), scores feasible candidates with the configured scheme's cost
    over per-stage fungible memory, and computes the resulting within-stage
    placements.  Elastic residents of the touched stages are resized by
    progressive filling; any resident whose region changed is reported as
    reallocated (it must snapshot and migrate its state, Section 4.3),
    and each stage's moves are left in {!moves}.

    Departures free the region and expand the remaining elastic residents
    of the affected stages. *)

type scheme = Worst_fit | Best_fit | First_fit | Min_realloc

val scheme_to_string : scheme -> string
val scheme_of_string : string -> (scheme, string) result

type arrival = {
  fid : int;
  spec : Spec.t;
  elastic : bool;
  demand_blocks : int array;
      (** per memory access: exact blocks for inelastic apps, minimum
          blocks for elastic apps *)
}

type stage_range = { stage : int; range : Pool.range }

type admitted = {
  fid : int;
  mutant : Mutant.t;
  regions : stage_range list;  (** the new app's placement *)
  reallocated : int list;
      (** existing apps whose placement changed, in the order {!resident}
          listed them before the admission *)
  considered_mutants : int;
  feasible_mutants : int;
  compute_time_s : float;
}

type rejected = { considered_mutants : int; compute_time_s : float }

type outcome = Admitted of admitted | Rejected of rejected

type batch_stats = {
  batch_size : int;
  batch_admitted : int;
  batch_rejected : int;
  memo_hits : int;
      (** arrivals whose scoring was answered from the epoch's memo
          (same program shape, elasticity and demand as an earlier
          arrival scored against the same shared snapshot) *)
  rescored : int;
      (** conflict fallbacks: arrivals whose snapshot-chosen placement was
          consumed by an earlier commit and were re-scored sequentially
          against a fresh snapshot *)
  stage_refills : int;  (** coalesced [Pool.refill_elastic] calls *)
  refills_saved : int;
      (** per-(arrival, stage) refills a sequential replay would have run
          minus [stage_refills] *)
  batch_compute_time_s : float;
}

type batch = {
  outcomes : outcome list;  (** 1:1 with the arrivals, in order *)
  batch_reallocated : int list;
      (** deduplicated union of pre-existing apps whose placement changed
          anywhere in the epoch, in the order {!resident} listed them
          before the epoch — what the controller must snapshot and
          reinstall, once per epoch *)
  stats : batch_stats;
}

type moves = private { mutable cells : int array; mutable n : int }
(** One stage's moves in the allocator's last call: [n] triples
    [(src, dst, len)] in words in the first [3 * n] cells, one for each
    reallocated resident whose region's start changed on the stage: its
    first [len = min old new] words go from its old start [src] to its
    new start [dst].  A resident that only changed size is reported but
    moves nothing.  Sources and destinations both ascend: regions on a
    stage keep their relative order. *)

type t

val create :
  ?scheme:scheme ->
  ?policy:Mutant.policy ->
  ?mutant_limit:int ->
  ?telemetry:Telemetry.t ->
  ?tracer:Trace.t ->
  Rmt.Params.t ->
  t
(** Defaults: worst-fit (the prototype's choice) and most-constrained.
    Each admission snapshots per-stage occupancy once and scores every
    candidate against it on the calling domain.

    [telemetry] (default {!Telemetry.default}) receives the allocator's
    counters ([alloc.admitted] and [alloc.rejected], also windowed when
    the registry keeps windows; [alloc.departed],
    [alloc.reallocated], [alloc.mutants.considered/feasible],
    [alloc.enumerate.hit/miss]) and per-phase spans ([alloc.admit] with
    nested [alloc.enumerate], [alloc.snapshot], [alloc.score],
    [alloc.fill]; [alloc.depart]). *)

val policy : t -> Mutant.policy

val shutdown : t -> unit
(** Does nothing.  Kept only because [perfbench/arrival.ml] calls it, and
    the benchmark under [perfbench/] changes only together with its
    definition. *)

val admit : ?trace:Trace.ctx -> t -> arrival -> outcome
(** [trace] hangs an [alloc.admit] span (with score/fill/outcome children)
    off the given context in the tracer passed at {!create}; omitted, the
    call emits no trace events at all.
    @raise Invalid_argument if the FID is already resident or the demand
    array does not match the spec's accesses. *)

val admit_batch : ?trace:Trace.ctx -> t -> arrival list -> batch
(** Epoch admission: score the k arrivals against one shared pool
    snapshot (memoizing the score per distinct program shape / elasticity
    / demand) and commit the compatible subset together.

    Each chosen placement is re-checked against the live pool counters
    before its commit; within an epoch resources only shrink, so only a
    snapshot-feasible choice can be invalidated by an earlier commit.  On
    such a conflict the arrival is re-scored sequentially against a fresh
    snapshot (counted in [stats.rescored]), which the rest of the epoch
    then shares.  Elastic-layout refills are coalesced to one
    [Pool.refill_elastic] per touched stage at the batch tail, and the
    reallocation report is collected once per epoch.

    [admit_batch t [a]] makes bit-identical decisions, placements and
    reallocation reports to [admit t a] (modulo measured
    [compute_time_s]); larger batches keep admit/reject soundness (every
    commit is validated against live state) but may place differently
    than a sequential replay when arrivals contend for the same space.

    Telemetry: in addition to [admit]'s per-arrival counters, emits
    [alloc.batch.count/arrivals/memo_hits/conflicts/refills_saved]
    counters, an [alloc.admit_batch] span, and (when traced) an
    [alloc.fill] instant carrying the coalescing attributes
    ([stage_refills], [refills_saved], [rescored], [reallocated]).

    @raise Invalid_argument before any commit if an arrival's FID is
    already resident or duplicated within the batch, or a demand array
    does not match its spec. *)

val depart : ?trace:Trace.ctx -> t -> fid:int -> int list
(** Remove the app; returns the apps reallocated (expanded) as a result,
    in the order {!resident} listed them before the departure.  Only the
    refill of the departed app's stages moves anyone, and it names the
    residents it moved, so the work is in proportion to those stages and
    moves.  Unknown FIDs return []. *)

val moves : t -> stage:int -> moves
(** The stage's moves in the last {!admit}, {!admit_batch} or {!depart}
    call.  Every such call starts with every stage empty, a rejection
    and a departure of a FID that is not resident included, so a call
    that moves nobody leaves none.  This is the allocator's own buffer,
    reused by its next call: callers must treat it as read-only and
    read it before that call, as the controller's relocation does. *)

val resident : t -> int list
val is_resident : t -> fid:int -> bool
val regions_of : t -> fid:int -> stage_range list option
val app_blocks : t -> fid:int -> int
(** Total blocks currently held across stages (0 if absent). *)

val utilization : t -> float
(** Allocated blocks / total blocks across all stages (Figures 6, 7a). *)

val stage_used_blocks : t -> int array

val total_blocks : t -> int
(** Device capacity in blocks ([stages x blocks_per_stage]). *)

val resident_blocks : t -> (int * int) list
(** [(fid, blocks currently held)] for every resident app, sorted by FID —
    the bulk form of {!app_blocks}, used by the tenant layer to refresh
    per-tenant accounting after elastic residents were resized. *)

val placement : t -> fid:int -> Activermt.Packet.region option array option
(** The resident's word-granular region per logical stage, as allocation
    responses carry it.  This is the allocator's own array, updated in
    place on the stages a reallocation moves: callers must treat it as
    read-only and copy what they keep, as a response packet does. *)
