open Import

(** The switch controller (Section 4.3).

    Runs on the switch CPU: serializes allocation requests arriving as
    data-plane digests, invokes the online allocator, installs/removes
    match-table entries and protection ranges, migrates reallocated apps'
    register state, quiesces impacted services during migration, and
    answers clients with allocation-response packets.

    Two commit modes:
    - [`Auto]: the whole admission (state move, table update) completes
      synchronously; before the tables change, each reallocated app's
      old contents are moved in place into its new region, per stage, up
      to the smaller of the two sizes.  The cost model still charges the
      old regions' words as Section 4.3's snapshot.  Used by the
      allocator benchmarks.
    - [`Interactive]: after computing an allocation the controller
      notifies impacted apps and leaves old tables in place so clients can
      extract state through the data plane (or the control plane, via
      {!read_region}, which reads the quiesced old region);
      [complete_extraction] (or a timeout via [expire]) then applies the
      new tables and reactivates.  Used by the end-to-end case study
      (Figures 9, 10).

    The provision queue ({!enqueue_request} / {!drain}) is [`Auto]-only:
    an interactive admission waits on its clients, so it cannot share a
    batched table-write session. *)

type commit_mode = [ `Auto | `Interactive ]

type provision_phase =
  | Committed  (** tables updated; service may transmit *)
  | Awaiting_extraction of { impacted : Activermt.Packet.fid list }
      (** interactive mode: impacted apps must extract state and ack *)

type provision = {
  fid : Activermt.Packet.fid;
  response : Activermt.Packet.t;  (** allocation response for the client *)
  reallocated : Activermt.Packet.fid list;
  phase : provision_phase;
  timing : Cost_model.breakdown;
}

type t

val create :
  ?scheme:Allocator.scheme ->
  ?policy:Mutant.policy ->
  ?cost:Cost_model.t ->
  ?mode:commit_mode ->
  ?extraction_timeout_s:float ->
  ?telemetry:Telemetry.t ->
  ?series:Timeseries.t ->
  ?tracer:Trace.t ->
  Rmt.Device.t ->
  t
(** [telemetry] (default {!Telemetry.default}) is shared with the
    embedded allocator and additionally receives the controller's
    measured provisioning phases — [control.provision] with nested
    [control.allocation], [control.snapshot] (the state move) and
    [control.table_update] spans (Fig. 8a's breakdown from real timers,
    next to the modeled {!Cost_model.breakdown}) — plus [control.provisions],
    [control.rejections] and [control.departures] counters.

    [tracer] (default {!Trace.noop}) is shared with the embedded
    allocator; when a request arrives with a trace context the
    provisioning phases are recorded as causal trace spans too. *)

val tables : t -> Activermt.Table.t
val allocator : t -> Allocator.t
val device : t -> Rmt.Device.t

val handle_request :
  ?trace:Trace.ctx ->
  t ->
  Activermt.Packet.t ->
  (provision, [ `Rejected of Allocator.rejected | `Bad_packet of string ]) result
(** Process one allocation-request packet (admission is serialized; this
    is the digest path).  On success the new app's tables are installed
    (its region zeroed) and, depending on mode, reallocated apps are
    either migrated immediately or left awaiting extraction.

    Because admission is serialized, a fresh request in [`Interactive]
    mode first completes any admission still awaiting extraction, as
    {!expire} does at its deadline: impacted apps that have not acked
    are committed to their new placement and lose the state they had not
    extracted.

    Idempotent per FID: a request for an already-resident FID (a network
    duplicate, or a client retry after its response was lost) is answered
    from the existing allocation — [reallocated = []], zero-work timing,
    counted under [control.dup_requests] — never allocated twice. *)

(** {2 Async provision queue (batched epoch admission)}

    The pipelined alternative to the one-digest-at-a-time path:
    [enqueue_request] is the cheap producer side (what the digest
    interrupt handler would do on a real switch), and [drain] admits the
    backlog in epochs of up to [max_batch] requests.  Each epoch scores
    its arrivals against one shared pool snapshot
    ({!Allocator.admit_batch}), commits every touched app's tables
    exactly once through a single batched write session
    ({!Cost_model.breakdown_batched}), and overlaps client notification
    round trips with the next epoch's scoring. *)

type epoch_result = {
  epoch_index : int;  (** 0-based, monotonic across [drain] calls *)
  results :
    (provision, [ `Rejected of Allocator.rejected | `Bad_packet of string ]) result
    list;
      (** 1:1 with the epoch's requests, in enqueue order.  Admitted
          provisions share the epoch's batched [timing]. *)
  epoch_timing : Cost_model.breakdown;
      (** one batched table-write session for the whole epoch *)
  installs : int;
      (** table (re)installs performed: each admitted or reallocated app
          exactly once, so each FID's [Table.epoch] advances once per
          epoch and the JIT invalidates once, not once per arrival *)
  batch : Allocator.batch_stats option;
      (** the allocator's epoch statistics.  Always [Some]; it stays an
          option because [perfbench/] matches on it. *)
}

val enqueue_request : ?trace:Trace.ctx -> t -> Activermt.Packet.t -> unit
(** Queue an allocation request for the next [drain].  Constant-time; no
    allocator or table work happens here.  Counted under
    [control.enqueued]; with a trace context, emits a [control.enqueue]
    instant and the stored context chains the eventual provision back to
    the request's trace. *)

val queue_depth : t -> int

val drain : ?max_batch:int -> t -> epoch_result list
(** Admit the whole backlog in epochs of up to [max_batch] (default 64)
    requests, oldest first; [] if the queue is empty.

    FID-idempotent like {!handle_request}: requests for already-resident
    FIDs are answered from the existing allocation, and a duplicate FID
    {e within} an epoch is an intra-epoch echo answered from its
    primary's outcome — the allocator sees each FID at most once.  Both
    count under [control.dup_requests].

    Each epoch emits a [control.epoch] trace span (attrs [epoch],
    [batch]) parenting the allocator's spans and one [control.provision]
    child span per admitted FID (registered in {!admit_trace}), plus
    [control.epochs] / [control.provisions] / [control.rejections]
    counters.
    @raise Invalid_argument if [max_batch <= 0], or if the controller is
    in [`Interactive] mode. *)

val handle_departure :
  ?trace:Trace.ctx ->
  t ->
  fid:Activermt.Packet.fid ->
  Cost_model.breakdown * Activermt.Packet.fid list
(** Release a service's allocation; returns timing and the apps expanded
    (reallocated) into the freed space. *)

val complete_extraction : t -> fid:Activermt.Packet.fid -> unit
(** Client signals (bare active packet with ack) that it finished
    extracting state; when all impacted apps of a pending admission have
    acked, the new tables are applied and everyone is reactivated. *)

val pending_extraction : t -> Activermt.Packet.fid list
(** Apps the controller is still waiting on. *)

val expire : t -> elapsed_s:float -> unit
(** Advance the extraction timeout clock; unresponsive apps are forcibly
    committed (Section 4.3's timeout). *)

val grant_privilege : t -> fid:Activermt.Packet.fid -> unit
(** Mark the FID as a curated, privileged service (Section 7.2): its
    programs may execute FORK and SET_DST.  Privilege is switch-side
    configuration, never taken from packets.  Takes effect immediately,
    re-installing tables if the FID is resident. *)

val revoke_privilege : t -> fid:Activermt.Packet.fid -> unit

val limit_recirculation : t -> fid:Activermt.Packet.fid -> max_passes:int -> unit
(** Cap the FID's pipeline passes below the device recirculation limit —
    the bandwidth-inflation rate limiting Section 7.2 contemplates.
    @raise Invalid_argument if [max_passes] is not positive. *)

val regions_packet :
  t -> fid:Activermt.Packet.fid -> Activermt.Packet.t option
(** A granted-style allocation response describing the FID's *current*
    regions; used to inform reallocated clients of their new placement.
    [None] if the FID is not resident. *)

val read_region : t -> fid:Activermt.Packet.fid -> stage:int -> int array option
(** Control-plane (BFRT-style) read of the app's installed region — for
    an app quiesced awaiting extraction, its old, untouched one. *)

val write_region_word :
  t -> fid:Activermt.Packet.fid -> stage:int -> index:int -> value:int -> bool
(** Control-plane write of one word, region-relative; false if no region. *)

val tracer : t -> Trace.t
(** The tracer passed at {!create} ({!Trace.noop} by default). *)

val admit_trace : t -> fid:Activermt.Packet.fid -> Trace.ctx option
(** The [control.provision] span that admitted the FID, while it stays
    resident — lets data-plane execution events link back to the
    control-plane decision that placed the program. *)
