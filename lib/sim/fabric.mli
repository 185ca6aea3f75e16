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
  mutable src : address;
  mutable dst : address;
      (** header fields: the switch step rewrites them as it returns a
          capsule to its sender (swapping the two) or forwards it *)
  payload : payload;
  trace : Activermt_telemetry.Trace.ctx option;
      (** in-band trace context: set at {!inject} (head sampling), then
          advanced hop by hop so the trace follows the capsule *)
}
(** A message in flight.  The fabric owns a message handed to {!send} or
    {!inject} until it delivers it, and a handler owns the message it
    receives.  While the fabric owns a capsule, its switch step executes
    on the capsule's own args and sends the same message and packet back
    or on, with its results in the args and its addresses rewritten (a
    traced reply is a new message for its trace context, with the same
    packet).  A sender therefore keeps no reference to a message or its
    packet that it reads later, and a duplicating fault delivers
    independent copies. *)

val msg : src:address -> dst:address -> payload -> msg
(** Convenience constructor for an untraced message. *)

type t

val create :
  ?address:address ->
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
    engine and bridge traffic between each other's nodes.  Every hop
    takes 5 µs.

    [faults] (default none) attaches a seeded {!Faults} model to every
    hop through this fabric — client-to-switch and switch-to-node alike,
    control traffic included: probabilistic drop, duplication, jitter
    (reordering), byte corruption (rejected by the wire checksum and
    counted under [faults.rejected.checksum]), link flaps, and slow or
    failed provisioning responses.  A duplicated message arrives as
    independent copies: each after the first has its own message, and a
    capsule's its own packet and args.  A handle whose profile
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
    allocation epoch.  A capsule whose FID has no tables forwards as
    plain traffic: untraced, {!Activermt.Jit.run_into} says so, and a
    capsule the JIT holds valid closures for goes straight to them
    without asking the tables.

    [telemetry] (default [Telemetry.default]) reads the fabric's traffic
    counts through a source registered here:
    [sim.packets.sent/delivered/lost/dropped] plus per-node
    [sim.node.<addr>.tx]/[sim.node.<addr>.rx], each once it is nonzero.
    The fabric counts into plain ints, each per-node name formatted once,
    when the address is first seen, so a packet hashes no metric name;
    the source holds the counts but not the fabric or a handler, so the
    registry never keeps a fabric (or its controller's device) alive.

    [tracer] (default [Trace.noop]) records per-capsule causal events:
    [capsule.inject], [sim.hop]/[sim.deliver],
    [fault.drop]/[fault.corrupt]/[fault.duplicate] with the firing knob
    as [cause] and the [link] named, [device.exec] spans (carrying a
    [jit=true/false] attr for whether the specialization tier ran the
    capsule, plus a [jit.compile] instant on first compilation) with
    [device.result]/[device.drop] children linked to the admitting
    [control.provision] span via [admit.*] attrs.  Share one
    tracer (and its clock, wired to [Engine.now]) across every fabric of
    a fleet so traces follow capsules between switches.  An untraced
    capsule (no context, or a disabled tracer) skips all of this: it runs
    straight through {!Activermt.Jit.run_into} into an outcome the fabric
    owns and builds no attribute.

    Hops.  The fabric owns {!Engine.lane}s, made on first use: one to
    its switch at the wire latency, and one to its nodes per pipeline
    count [p], at [p] times the device's [pass_latency_us] plus the
    wire ([p = 0] carries transit traffic, notifications, regions
    responses and capsules whose FID has no tables).  An untraced hop
    on a fault-free fabric pushes its message onto one of them
    ({!Engine.push}): it allocates nothing and computes no delay.  A
    traced or faulty hop schedules a closure with its delay, and so
    does a controller response with a modeled delay (a grant, or
    [Alloc_failed]), once per request. *)

val faults : t -> Faults.t option
(** The fault model attached at creation, if any (and not all-off). *)

val jit : t -> Activermt.Jit.t
(** The switch's JIT (disabled when created with [~jit:false]), for its
    stats and for invalidation on migration. *)

val attach : t -> address -> (msg -> unit) -> unit
(** Register a node's receive handler, replacing any handler the address
    had.  This fabric's own switch address is reserved.

    The fabric keeps one record per address it has seen: the attached
    handler, if any, and the address's receive and send counts.  In
    front of that table sits a direct-mapped array of slots
    ({!Stdx.Slots}), indexed by the address's low bits and tagged with
    the address: {!send} and every arrival read the slot and fall back
    to the table on a miss, so a hop hashes nothing while the addresses
    in flight keep their slots.  [attach] writes the address's new
    record into its slot as well as the table, so no message reaches a
    replaced handler. *)

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

val inject : t -> msg -> unit
(** {!send}, but first make the head-sampling decision for an untraced
    [Active] message: when the tracer keeps it, a root [capsule.inject]
    event starts the capsule's trace.  Bridged or re-sent messages keep
    their existing decision. *)

val stats_drops : t -> int
(** Packets the runtime dropped (protection, recirculation limit, DROP):
    the [sim.packets.dropped] count, which [Telemetry.reset] of the
    fabric's registry zeroes. *)

