(** Provisioning-time cost model (Section 6.2 / Figure 8a).

    Allocation *computation* time is measured for real (our allocator
    actually runs); everything a Tofino would spend outside that — BFRT
    table-entry updates, register snapshots over the control plane, and
    the client/controller notification round-trips — is modeled with
    per-unit costs calibrated against the constants the paper reports:
    provisioning levels off at slightly over one second, dominated by
    table updates, while snapshotting stays comparatively small; a
    comparable single-program P4 compile takes 28.79 s. *)

type t = {
  table_entry_update_s : float;  (** per entry added or removed *)
  app_install_s : float;
      (** fixed BFRT session/batch overhead per app whose tables are
          (re)installed or removed *)
  snapshot_word_s : float;  (** per 32-bit register word snapshotted *)
  notify_rtt_s : float;  (** controller<->client notification round trip *)
  digest_s : float;  (** data-plane digest to switch CPU per request *)
  batch_setup_s : float;
      (** fixed cost of opening/flushing one batched BFRT write session
          per admission epoch (RBFRT-style) *)
  batched_entry_update_s : float;
      (** per entry added or removed inside a batched write — amortized,
          an order of magnitude-plus below [table_entry_update_s] *)
}

val default : t

val p4_compile_s : float
(** Measured compile time of the 22-instance monolithic cache program the
    paper quotes for comparison (28.79 s). *)

val p4_reprovision_blackout_s : float
(** Traffic blackout of a conventional P4 re-provision, O(50 ms) [5]. *)

val degrade : t -> slowdown:float -> t
(** A cost model whose control-plane table work ([table_entry_update_s],
    [app_install_s], [batch_setup_s], [batched_entry_update_s]) runs
    [slowdown] times slower — the fault simulator's "slow table updates"
    knob (a congested or flaky BFRT session).  Snapshot/notify costs are
    unchanged.
    @raise Invalid_argument if [slowdown < 1]. *)

type breakdown = {
  allocation_s : float;  (** measured compute time *)
  table_update_s : float;
  snapshot_s : float;
  notify_s : float;
}

val total : breakdown -> float

val modeled : breakdown -> float
(** [total] without the measured [allocation_s]: the part that depends
    only on the cost model and the work counts, so simulated time built
    from it replays exactly from a seed.  Summed without [allocation_s]
    rather than subtracted from [total], whose rounding would carry the
    measurement's low bits. *)

val estimated_entries : logical_stages:int -> apps:int -> int
(** The table entries charged for installing [apps] apps when they are
    estimated rather than counted: [2 * (logical_stages + 3)] per app.
    [Interactive] admissions charge their deferred table work this way,
    and so does the churn pipeline's modeled epoch. *)

val breakdown :
  t ->
  allocation_s:float ->
  entries_updated:int ->
  apps_touched:int ->
  words_snapshotted:int ->
  notifications:int ->
  breakdown

val breakdown_batched :
  t ->
  allocation_s:float ->
  entries_updated:int ->
  words_snapshotted:int ->
  notifications:int ->
  breakdown
(** Cost of one admission epoch committed through a single batched BFRT
    write session: [batch_setup_s] once plus [batched_entry_update_s] per
    entry (no per-app install cost — apps ride the shared batch), and at
    most one un-overlapped notification round trip because the async
    provision queue overlaps the rest with the next epoch's scoring. *)
