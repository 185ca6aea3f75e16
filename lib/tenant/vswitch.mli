open Import

(** The virtual switch: one {!Controller} multiplexed across tenants.

    [Vswitch] sits in front of the controller's batched epoch admission
    ({!Controller.enqueue_request} / {!Controller.drain}) and adds the
    three mechanisms of ROADMAP item 2:

    - {b WRR-fair batching}: submissions land in per-tenant queues; each
      epoch's batch is assembled by deficit-weighted round robin
      ({!Wrr}), so under contention a tenant's admission rate tracks its
      weight, not its offered load.
    - {b Quota enforcement}: a request whose footprint can never fit its
      tenant's quota is denied outright; one that merely does not fit
      {e now} — counting charges the current batch has already picked
      for the tenant — is deferred (head-of-line within its tenant) and
      retried on later epochs until [defer_limit] runs out.
    - {b Preemptive reclamation}: when an under-fair-share tenant's
      request is rejected for capacity, the vswitch evicts services from
      tenants holding more than their weighted fair share — most
      recently admitted first — drains their register state through
      memsync capsules (the PR 3 migration machinery run against this
      switch's own tables), parks the state, and re-queues the victims
      for re-admission within their entitlement.  No FID is ever lost
      or double-allocated: a victim is either resident, parked+queued,
      or terminally denied-and-reported.

    With a single registered tenant every mechanism degenerates to the
    identity: decisions are identical to driving the controller's drain
    directly (the differential smoke in [test/test_tenant.ml]).

    The controller must be in [`Auto] mode, since {!Controller.drain}
    rejects an [`Interactive] one. *)

type config = {
  max_batch : int;  (** WRR picks per admission epoch *)
  defer_limit : int;
      (** epochs a quota-blocked request may defer before denial *)
  retry_limit : int;
      (** capacity rejections (each possibly triggering preemption)
          before a request is denied; also caps how often one victim can
          be evicted-and-readmitted *)
  max_evictions_per_epoch : int;
  memsync_word_budget : int;
      (** regions above this many words use control-plane reads/writes
          instead of memsync capsules, as in {!Fleet} migration *)
  entitlement_capacity : int option;
      (** the block capacity weighted fair shares are computed against.
          [None] (the default) uses the raw pool size
          ({!Allocator.total_blocks}); pass the {e achievable} capacity
          when program-shape constraints (an access that can only land
          on a subset of stages) make part of the pool unreachable for
          the tenants' service mix, or entitlements will promise blocks
          preemption can never deliver *)
}

val default_config : config
(** 64-request epochs, defer limit 64, retry limit 16, at most 32
    evictions per epoch, 64 Ki-word memsync budget. *)

type denial = [ `Quota | `Capacity | `Bad of string ]

type decision =
  | Queued  (** waiting in its tenant's queue *)
  | Granted  (** resident *)
  | Evicted  (** preempted: state parked, re-queued for re-admission *)
  | Denied of denial  (** terminal *)
  | Departed  (** released by its owner *)

type epoch_summary = {
  epoch_index : int;
  scheduled : int;  (** requests the WRR scheduler picked *)
  granted : (int * int) list;  (** (tenant, fid) admitted this epoch *)
  denied : (int * int * denial) list;
  evicted : (int * int) list;  (** (tenant, fid) preempted this epoch *)
  deferred : int;  (** requests still queued when the epoch ended *)
  modeled_epoch_s : float;
      (** deterministic modeled duration: the epoch's batched
          table-write session plus eviction departures and memsync word
          movement, allocation compute excluded (machine-independent,
          like {!Experiments.Churn_pipeline}) *)
  clock_s : float;  (** modeled virtual clock at epoch end *)
}

type t

val create :
  ?config:config ->
  ?cost:Cost_model.t ->
  ?telemetry:Telemetry.t ->
  ?series:Timeseries.t ->
  ?tracer:Trace.t ->
  registry:Tenant.t ->
  Controller.t ->
  t
(** [cost] (default {!Cost_model.default}) prices the modeled clock's
    eviction work.  [telemetry] receives [tenant.submitted/granted/
    denied.quota/denied.capacity/deferrals/evictions/epochs] counters,
    [tenant.memsync.words_moved], and per-tenant [tenant.<id>.blocks]
    gauges refreshed every epoch. *)

val controller : t -> Controller.t
val registry : t -> Tenant.t

val submit : t -> tenant:int -> fid:int -> App.t -> unit
(** Queue an allocation request for [fid] on behalf of [tenant] (binds
    the FID to the tenant).  Constant-time; admission happens in
    {!drain}.
    @raise Invalid_argument on unknown tenant, a FID already submitted,
    or a FID bound to a different tenant. *)

val depart : t -> fid:int -> bool
(** Release the service: a resident FID departs through the controller
    (freeing its charge), a queued or parked one is cancelled.  False if
    the FID is unknown or already terminal. *)

val drain : t -> epoch_summary list
(** Run admission epochs until every queue is empty or only deferred
    requests remain (those stay queued for a later drain, after
    departures make room).  [] if nothing is queued. *)

val reclaim : t -> (int * int) list
(** Quota-shrink reclamation: evict each over-quota tenant's services —
    most recently admitted first — until its charge fits its (possibly
    just-lowered) quota again.  Victims get the standard eviction
    treatment (state drained via memsync, parked, re-queued) and are
    returned as [(tenant, fid)] in eviction order.  [] when every
    tenant is within quota. *)

val pending : t -> int
(** Queued requests (including deferred and re-queued evictees). *)

val decision_of : t -> fid:int -> decision option
val parked : t -> int list
(** FIDs currently evicted with state parked, ascending. *)

val modeled_clock : t -> float

val admission_latencies : t -> (int * int * float) list
(** [(tenant, fid, latency_s)] per granted FID: modeled time from submit
    to the end of the granting epoch (first grant; re-admissions after
    eviction do not reset it).  Saturation p99s come from here. *)
