(** The simulated testbed: clients and a KV server attached through the
    ActiveRMT switch (data plane + controller), mirroring the paper's
    40-Gbps lab setup.

    The fabric routes messages between addressed nodes.  The switch sits
    on every path: active program packets are executed by the runtime
    (adding per-pipeline latency), allocation requests go to the
    controller (the response returns after the modeled provisioning
    time, {!Activermt_control.Cost_model.modeled}: the allocator's
    measured compute time never enters simulated time), and ack packets
    complete the extraction protocol.  FIDs are
    registered to owner addresses so the controller's reallocation
    notifications reach the right client. *)

type address = int

val switch_address : address
(** The default address a fabric's switch answers on (0).  A fleet of
    fabrics sharing one engine gives each instance its own [?address]. *)

type payload =
  | Active of Activermt.Packet.t
  | Kv_request of { key : Workload.Kv.key }
      (** a plain (non-activated) application request, e.g. while the
          client's service is paused *)
  | Kv_reply of { key : Workload.Kv.key; value : int }
      (** application-level response from the KV server *)
  | Alloc_failed
  | Notify_realloc
      (** controller -> client: your allocation is changing; extract state
          and ack *)

type msg = {
  src : address;
  dst : address;
  payload : payload;
  trace : Activermt_telemetry.Trace.ctx option;
      (** in-band trace context: set at {!inject} (head sampling), then
          advanced hop by hop so the trace follows the capsule *)
}

val msg :
  ?trace:Activermt_telemetry.Trace.ctx ->
  src:address ->
  dst:address ->
  payload ->
  msg
(** Convenience constructor; [trace] defaults to [None]. *)

type t

val create :
  ?address:address ->
  ?wire_latency_s:float ->
  ?loss_rate:float ->
  ?loss_seed:int ->
  ?faults:Faults.t ->
  ?jit:bool ->
  ?telemetry:Activermt_telemetry.Telemetry.t ->
  ?tracer:Activermt_telemetry.Trace.t ->
  engine:Engine.t ->
  controller:Activermt_control.Controller.t ->
  unit ->
  t
(** [address] (default [switch_address]) is the address this instance's
    switch answers on, so several fabrics — one per switch — can share an
    engine and bridge traffic between each other's nodes.

    [loss_rate] (default 0) drops that fraction of data-plane deliveries
    (program packets and their replies), deterministically under
    [loss_seed]; control traffic is unaffected.  Exercises the memsync
    retransmission loop.

    [faults] (default none) attaches a seeded {!Faults} model to every
    hop through this fabric — client-to-switch and switch-to-node alike,
    control traffic included: probabilistic drop, duplication, jitter
    (reordering), byte corruption (rejected by the wire checksum and
    counted under [faults.rejected.checksum]), link flaps, and slow or
    failed provisioning responses.  A handle whose profile
    {!Faults.is_none} is ignored entirely: the fabric then takes the
    same code paths as a fault-free build, bit for bit.  Every draw
    happens at a simulated instant that depends only on the seed and the
    model, so a faulty run replays exactly from its seed.

    [jit] (default [true]) runs admitted programs through the {!Activermt.Jit}
    specialization tier, falling back to the interpreter for anything it
    cannot specialize; [false] forces pure interpretation (the CLI's
    [--no-jit]).  Either way results are bit-identical — the JIT changes
    throughput, never semantics.  Departures invalidate the FID's cached
    closures; reallocation and quiescence invalidate through the
    allocation epoch.

    [telemetry] (default [Telemetry.default]) counts fabric traffic:
    [sim.packets.sent/delivered/lost/dropped] plus per-node
    [sim.node.<addr>.tx]/[sim.node.<addr>.rx].  The counters are
    handles, the per-node ones resolved once per address, so a packet
    hashes no metric name.

    [tracer] (default [Trace.noop]) records per-capsule causal events:
    [capsule.inject], [sim.hop]/[sim.deliver] ([sim.enqueue] at Stages
    verbosity), [fault.drop]/[fault.corrupt]/[fault.duplicate] with the
    firing knob as [cause] and the [link] named, [device.exec] spans (carrying a
    [jit=true/false] attr for whether the specialization tier ran the
    capsule, plus a [jit.compile] instant on first compilation) with
    [device.stage]/[device.result]/[device.drop] children linked to the
    admitting [control.provision] span via [admit.*] attrs.  Share one
    tracer (and its clock, wired to [Engine.now]) across every fabric of
    a fleet so traces follow capsules between switches.  An untraced
    capsule (no context, or a disabled tracer) skips all of this: it runs
    straight through [Jit.run] and builds no attribute. *)

val engine : t -> Engine.t
val controller : t -> Activermt_control.Controller.t

val tracer : t -> Activermt_telemetry.Trace.t
(** The tracer passed at creation ([Trace.noop] by default). *)

val faults : t -> Faults.t option
(** The fault model attached at creation, if any (and not all-off). *)

val jit : t -> Activermt.Jit.t
(** The switch's JIT handle (disabled when created with [~jit:false]) —
    for stats flushing before metric dumps and invalidation on
    migration. *)

val address : t -> address
(** The address this instance's switch answers on. *)

val attach : t -> address -> (msg -> unit) -> unit
(** Register a node's receive handler.  This fabric's own switch address
    is reserved. *)

val attach_default : t -> (msg -> unit) -> unit
(** Register the fallback handler for destinations with no attached
    node.  A fleet uses this for its bridge: any address not local to
    this switch's fabric is routed toward its home switch, so creating a
    1024-switch fleet costs one closure per fabric instead of one per
    (fabric, remote address) pair. *)

val register_fid : t -> fid:Activermt.Packet.fid -> owner:address -> unit

val send : t -> msg -> unit
(** Forward a message from its source; it reaches the switch after the
    wire latency and its destination after switch processing.  Keeps the
    message's trace context as-is — use {!inject} at the point a capsule
    first enters the network so head sampling runs exactly once. *)

val inject : ?name:string -> t -> msg -> unit
(** {!send}, but first make the head-sampling decision for an untraced
    [Active] message: when the tracer keeps it, a root [name] event
    (default ["capsule.inject"]) starts the capsule's trace.  Bridged or
    re-sent messages keep their existing decision. *)

val stats_drops : t -> int
(** Packets the runtime dropped (protection, recirculation limit, DROP). *)

val stats_lost : t -> int
(** Data-plane packets lost to the configured loss rate. *)
