open Import

(** Tenant registry: identities, weights, quotas and resource accounting.

    The registry is the bookkeeping half of switch virtualization
    (ROADMAP item 2, the OS4C direction): each tenant owns a share of
    the device expressed as a weight (its WRR ration under contention)
    and a quota (hard ceilings on blocks, concurrent FIDs and distinct
    stages).  Every admitted service FID is bound to exactly one tenant
    and charged against it while resident; {!Vswitch} consults the
    registry on every admission decision and refreshes block charges
    after each epoch, since elastic residents are resized by the
    allocator behind the tenant layer's back. *)

type quota = {
  max_blocks : int;  (** total memory blocks across stages *)
  max_fids : int;  (** concurrently resident services *)
  max_stages : int;
      (** distinct pipeline stages the tenant's services may occupy
          (checked conservatively at admission: a new service is assumed
          to need one fresh stage per memory access) *)
}

val unlimited : quota
(** All ceilings at [max_int]. *)

val quota_blocks : int -> quota
(** [unlimited] with [max_blocks] set — the common block-ration quota. *)

type info = { id : int; name : string; weight : int; quota : quota }

type usage = {
  blocks : int;  (** memory blocks charged to resident services *)
  fids : int;  (** resident services *)
  stages : int;  (** distinct stages occupied *)
}

type t

val create : ?telemetry:Telemetry.t -> unit -> t

val register :
  t -> ?name:string -> ?weight:int -> ?quota:quota -> int -> info
(** Register tenant [id] (default name ["t<id>"], weight [1], quota
    {!unlimited}).
    @raise Invalid_argument on duplicate id or non-positive weight. *)

val set_quota : t -> tenant:int -> quota -> unit
(** Replace a tenant's quota (runtime re-provisioning).  Existing
    residents are not touched here; {!Vswitch.drain} reclaims any
    resulting over-quota surplus on its next epoch.
    @raise Invalid_argument on unknown tenant. *)

val info : t -> int -> info option
val tenants : t -> info list
(** All registered tenants, ascending id. *)

val total_weight : t -> int

(** {2 FID binding and charging} *)

val bind : t -> fid:int -> tenant:int -> unit
(** Associate a service FID with the tenant that submitted it.  Binding
    precedes admission; no resources are charged until {!charge}.
    Rebinding an already-bound FID to a different tenant raises.
    @raise Invalid_argument on unknown tenant or cross-tenant rebind. *)

val unbind : t -> fid:int -> unit
(** Discharge (if charged) and forget the FID.  Unknown FIDs are a
    no-op. *)

val tenant_of : t -> fid:int -> int option

val charge : t -> fid:int -> blocks:int -> stages:int list -> unit
(** Record the FID's resident footprint under its bound tenant,
    replacing any previous footprint for the same FID (re-admission
    after eviction, elastic resize).  Admission order is remembered for
    recency-based victim selection.
    @raise Invalid_argument if the FID is unbound or [blocks < 0]. *)

val discharge : t -> fid:int -> unit
(** Remove the FID's footprint (departure or eviction) but keep the
    tenant binding, so a parked evictee still belongs to its tenant.
    Unknown or uncharged FIDs are a no-op. *)

val usage : t -> int -> usage
(** Current footprint of a tenant; {!no_usage} for unknown tenants. *)

val charged_fids : t -> tenant:int -> int list
(** The tenant's charged (resident) FIDs, oldest admission first —
    reverse for most-recent-first victim scans. *)

val would_exceed : t -> tenant:int -> blocks:int -> stages:int -> bool
(** Would admitting one more service with this footprint break the
    tenant's quota given current usage?  [stages] is the conservative
    fresh-stage demand (one per memory access). *)

val over_quota_blocks : t -> tenant:int -> int
(** [max 0 (usage.blocks - quota.max_blocks)]: the surplus a reclaim
    pass must evict after a quota shrink. *)

val fair_blocks : t -> tenant:int -> capacity:int -> float
(** The tenant's weighted fair share of [capacity] blocks:
    [capacity * weight / total_weight].  0 for unknown tenants. *)
