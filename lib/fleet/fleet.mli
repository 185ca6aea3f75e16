open Import

(** A fleet of runtime-programmable switches under one global placement
    layer.

    Each switch in the {!Topology} gets its own device, controller and
    allocator, plus a {!Netsim.Fabric} instance addressed by its switch
    id; all fabrics share one discrete-event engine, and traffic whose
    destination lives behind another switch is bridged hop-by-hop along
    shortest paths — maintained by the topology's incremental ECMP
    router, so link flaps and switch failures repair routes in place
    (each inter-switch hop adds the link latency, and every transit
    switch runs its own pipeline over the packet — a service's programs
    only execute where its FID's tables are installed).

    Admission is global: the fleet snapshots every switch's pool,
    ranks switches with the configured {!Placement.policy}, and tries
    them in order until one's allocator admits (spill-over).  Under
    {!Placement.Hierarchical} on a podded topology (fat-tree or
    leaf-spine) the candidate stream is lazy and pod-local — the home
    pod's switches first-fit, spilling to remote pods round-robin —
    so per-arrival placement cost stays sub-linear in fleet size.
    Services
    can later be migrated between switches — their switch memory is
    drained with the memsync read protocol, the source allocation
    released, and the state repopulated into the new placement — and a
    switch failure re-places every resident service the same way. *)

type t

val create :
  ?policy:Placement.policy ->
  ?params:Rmt.Params.t ->
  ?faults:Netsim.Faults.profile ->
  ?faults_seed:int ->
  ?jit:bool ->
  ?tenants:Tenant.t ->
  ?telemetry:Telemetry.t ->
  ?tracer:Trace.t ->
  Topology.t ->
  t
(** Defaults: [Least_loaded] placement and [Rmt.Params.default] per
    switch.  Every switch runs the allocator's default scheme.

    Migration drains at most 4096 words per stage through data-plane
    memsync packets; larger regions
    fall back to control-plane (BFRT-style) reads/writes, mirroring how
    an operator would bulk-transfer via the management network.

    [jit] (default enabled) is forwarded to every switch's
    {!Netsim.Fabric.create}: each node runs admitted programs through its
    own {!Activermt.Jit} tier (memsync drains included).  Migration
    invalidates the FID's compiled closures on the source switch.

    [faults] (default none) applies the fault profile to every switch:
    each node gets its own {!Netsim.Faults} instance (decorrelated
    per-switch PRNG streams derived from [faults_seed], default
    [0xF1EE7]) wired into its fabric, and — when the profile slows table
    updates — a correspondingly degraded cost model.  Migration's
    memsync drain/repopulate then runs under loss: drivers get a
    16-attempt budget with timeouts, and indices that exhaust it fall
    back to control-plane reads/writes
    ([fleet.memsync.fallback_words]), so a service is never lost or
    double-placed to capsule loss alone.  Passing a profile for which
    [Faults.is_none] holds is exactly equivalent to omitting it
    (bit-identical runs).

    [telemetry] (default {!Telemetry.default}) receives fleet counters
    ([fleet.admitted], [fleet.rejected], [fleet.spillover],
    [fleet.migrated], [fleet.lost], [fleet.failures], [fleet.bridged],
    [fleet.unroutable], [fleet.jit.invalidations], per-switch [fleet.sw.<i>.admitted/in/out]),
    spans ([fleet.place], [fleet.migrate]) and occupancy gauges
    ([fleet.occupancy], [fleet.sw.<i>.utilization],
    [fleet.sw.<i>.up]).  It is shared with every switch's controller and
    allocator.  When it keeps windows, the admission outcomes are also
    windowed on its virtual clock: [fleet.admitted], [fleet.rejected],
    [fleet.spillover], [fleet.migrated], [fleet.lost], [fleet.failures],
    [fleet.jit.invalidations] and per-switch [fleet.sw.<i>.admitted],
    with the controllers' and allocators' [control.provisions/rejections],
    [control.queue_depth] and [alloc.admitted/rejected].  The health
    plane ({!Activermt_health}) evaluates SLOs and watchdogs over these
    windows.

    [tracer] (default {!Trace.noop}) is shared with every switch's
    controller and fabric, and its clock is wired to the fleet engine so
    trace time is simulated time.  Capsules injected via {!inject} are
    head-sampled once; their traces then follow the capsule across
    bridges ([fleet.bridge] events name each inter-switch [link]).
    Fleet-level operations start their own traces: [fleet.admit] (with
    [fleet.try]/[fleet.placed]/[fleet.rejected] children hanging the
    [control.provision] span of each attempt), [fleet.migrate] (with
    [fleet.drain]/[fleet.repopulate] spans and a terminal
    [fleet.migrated]/[fleet.migrate_refused]/[fleet.lost] event) and
    [fleet.failover] (per-evacuee [fleet.evacuate] →
    [fleet.relocated]/[fleet.lost]). *)

(** {1 Structure} *)

val engine : t -> Engine.t

val controller : t -> sw:Topology.switch_id -> Controller.t
val is_up : t -> sw:Topology.switch_id -> bool

val loads : t -> Placement.load list
(** Current per-switch pool snapshot, ascending switch id. *)

(** {1 Clients} *)

val attach_client :
  t -> client:Fabric.address -> home:Topology.switch_id -> (Fabric.msg -> unit) -> unit
(** Home a client on an edge switch: its handler attaches to the home
    fabric and every other fabric learns to bridge traffic for the
    address toward home.  Client addresses must not collide with switch
    ids (use addresses >= [n_switches]). *)

val inject : t -> client:Fabric.address -> Fabric.msg -> unit
(** Send a message from a client into its home switch.
    @raise Invalid_argument if the client was never attached. *)

(** {1 Placement} *)

val admit :
  t ->
  ?client:Fabric.address ->
  fid:int ->
  App.t ->
  (Topology.switch_id, [ `No_capacity ]) result
(** Place a service: rank the up switches under the fleet policy
    ([client]'s home anchors [Locality]; under [Hierarchical] the home's
    pod leads, and an unhomed service starts from pod [fid mod n_pods]
    so anonymous arrivals spread deterministically) and admit at the
    first switch whose allocator accepts.  On success the service's
    tables are installed there.  Note that [client] must already be
    homed ({!attach_client} or {!Topology.home}) for locality to apply —
    [admit] does not home it.
    @raise Invalid_argument if the FID is already placed. *)

val depart : t -> fid:int -> bool
(** Release the service's allocation at its switch; false if unknown. *)

(** {1 Batched global admission}

    The epoch-admission path at fleet scope: enqueue services globally,
    then drain each round's backlog through every touched switch's
    provision queue ({!Controller.enqueue_request} /
    {!Controller.drain}) — one batched table-write session per switch
    per round instead of a synchronous
    {!Controller.handle_request} per service.  Services a switch rejects
    spill over to the next placement candidate on the following round.

    When the fleet was created with a [tenants] registry (shared across
    switches, so usage aggregates fleet-wide), admissions submitted with
    a tenant id are charged against it and gated by its {e global}
    quota. *)

val enqueue_admission : t -> ?tenant:int -> fid:int -> App.t -> unit
(** Queue a service for the next {!drain_admissions}.  Constant-time.
    With [tenant], the FID is bound in the fleet's registry (and later
    charged on admission).
    @raise Invalid_argument if the FID is already placed, or [tenant]
    was given but the fleet has no registry. *)

val admission_queue_depth : t -> int

val drain_admissions :
  ?max_batch:int ->
  t ->
  (int * (Topology.switch_id, [ `No_capacity | `Over_quota ]) result) list
(** Admit the whole global backlog: per round, every pending service is
    routed to its best untried placement candidate, each touched
    switch's provision queue drains in epochs of up to [max_batch]
    (default 64), and rejected services retry elsewhere next round.
    Returns one outcome per enqueued FID, ascending: the placed switch,
    [`No_capacity] once every up switch rejected it, or [`Over_quota]
    when the tenant's fleet-global quota blocked it.  Successful
    placements get the same bookkeeping as {!admit} (occupancy,
    [fleet.admitted]); counters
    [fleet.adm.enqueued]/[fleet.adm.epochs] cover the queue itself. *)

val migrate :
  t ->
  fid:int ->
  dst:Topology.switch_id ->
  (unit, [ `Unknown_fid | `Switch_down | `Refused | `Lost ]) result
(** Drain the service's state (memsync within the word budget, control
    plane beyond it), release it at its current switch, re-admit it at
    [dst] and repopulate.  [`Refused]: [dst]'s allocator rejected and
    the service was restored at its source, state intact.  [`Lost]: the
    source re-admission also failed (its freed space was consumed by
    elastic expansion) and the service is gone. *)

(** {1 Failure} *)

type failover = {
  relocated : (int * Topology.switch_id) list;  (** fid, new switch *)
  lost : int list;  (** fids no surviving switch could hold *)
}

val fail_switch : t -> sw:Topology.switch_id -> failover
(** Take the switch down and re-place every resident service on the
    survivors (state recovered over the management network, i.e. the
    control plane — the data plane through a dead switch is gone).
    Idempotent: failing a down switch relocates nothing. *)

val schedule_failure : t -> at:float -> sw:Topology.switch_id -> unit
(** Inject the failure as a simulation event at absolute time [at]. *)

(** {1 Residency} *)

val residents : t -> (int * Topology.switch_id) list
(** All placed services as (fid, switch), ascending fid. *)

val switch_of : t -> fid:int -> Topology.switch_id option
val residents_of : t -> sw:Topology.switch_id -> int list

(** {1 Service state (for tests and tooling)} *)

val read_state : t -> fid:int -> (int * int array) list
(** The service's switch-memory contents, one (stage, words) per
    allocated region, ascending stage — drained exactly as migration
    does (memsync under the budget, control plane over it). *)

val write_state : t -> fid:int -> (int * int array) list -> unit
(** Repopulate the service's regions positionally: the k-th pair fills
    the k-th current region (stages in the pairs are informational —
    a migrated placement uses different stages).  Each region takes
    [min region_words (Array.length words)] words. *)
