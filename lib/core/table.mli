(** Per-switch match-table state installed by the control plane.

    For every admitted FID the controller installs, per logical stage, an
    entry holding the app's memory region in that stage (protection bounds,
    enforced in TCAM) and the translation constants (mask and offset) of
    the app's *next* memory-access stage, which back the ADDR_MASK and
    ADDR_OFFSET instructions (Section 3.2).

    Installing protection consumes TCAM entries in the device
    (range-to-prefix expansion); when a stage's TCAM is full, installation
    fails and rolls back, which is how admission hits the paper's "TCAMs
    end up being the resource bottleneck" limit.

    The table also tracks quiesced FIDs: programs whose packets are
    "deactivated" for the duration of a reallocation (Section 4.3). *)

type entry = {
  region : Packet.region option;  (** app's memory region in this stage *)
  xmask : int;  (** pow2 mask for the next access's region *)
  xoffset : int;  (** offset for the next access's region (0 when the FID
                      uses virtual addressing: the access itself adds it) *)
  virtual_addressing : bool;
}

type t

type update_stats = { entries_added : int; entries_removed : int }
(** Counted across install/remove calls; the provisioning-time cost model
    (Figure 8a) charges per entry. *)

val create : Rmt.Device.t -> t
val device : t -> Rmt.Device.t

val install :
  ?privileged:bool ->
  ?max_passes:int ->
  t ->
  fid:Packet.fid ->
  virtual_addressing:bool ->
  regions:Packet.region option array ->
  (unit, [ `Tcam_capacity of int ]) result
(** Install an app's allocation ([regions] indexed by logical stage).
    Entries are written for every stage so ADDR_* instructions can execute
    anywhere before the access.  On TCAM exhaustion at some stage the whole
    installation is rolled back.

    On a FID that is already installed, [install] reinstalls: the result
    is what [remove] followed by a fresh install would leave, but only the
    stages whose region changed release their protection range and
    install the new one, and only translation entries that differ are
    rewritten.  It still counts as that pair does — every old entry in
    [entries_removed], every new one in [entries_added] — and bumps
    [epoch] twice, clearing quiescence.  If a stage's TCAM cannot hold the
    new range, every range of the app is released and the FID is dropped
    (the state [remove] and a failed install leave: the removal counted,
    [epoch] bumped once) and the first such stage is returned; TCAM is per
    stage, so it is the stage the pair would have failed at.

    [privileged] (default false) gates the forwarding-affecting
    instructions FORK and SET_DST (the privilege levels Section 7.2
    explores); [max_passes] caps the FID's pipeline passes below the
    device recirculation limit (the bandwidth-inflation rate limiting
    Section 7.2 contemplates).
    @raise Invalid_argument, before any change, if [regions] does not
    have one slot per stage. *)

val is_privileged : t -> fid:Packet.fid -> bool
val max_passes_of : t -> fid:Packet.fid -> int option

val remove : t -> fid:Packet.fid -> unit
(** Remove all entries and protection ranges for the FID.  Idempotent. *)

val lookup : t -> fid:Packet.fid -> stage:int -> entry option
val installed : t -> fid:Packet.fid -> bool

val epoch : t -> fid:Packet.fid -> int
(** Allocation epoch of a FID on this switch: a monotonically increasing
    counter bumped by every successful [install], every effective
    [remove], and every quiescence transition.  Any change that could
    affect a program's execution semantics — reallocation, migration,
    departure, privilege or pass-limit changes (the controller reinstalls
    for all of these), deactivation — bumps it, so a cached specialization
    keyed by [(fid, epoch)] (see {!Jit}) is invalidated exactly when it
    could disagree with the interpreter. *)

val epoch_ref : t -> fid:Packet.fid -> int ref
(** The cell behind [epoch], allocated once per FID and stable across
    install/remove, so per-packet revalidation is a dereference rather
    than a table probe.  Callers must treat it as read-only. *)

val regions_of : t -> fid:Packet.fid -> Packet.region option array option

val quiesce : t -> fid:Packet.fid -> unit
val unquiesce : t -> fid:Packet.fid -> unit
val is_quiesced : t -> fid:Packet.fid -> bool

val update_stats : t -> update_stats
val reset_update_stats : t -> unit

val fids : t -> Packet.fid list
