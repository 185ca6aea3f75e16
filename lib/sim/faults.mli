(** Seeded fault injection for the simulated testbed.

    The paper's protocols — capsule-based allocation negotiation, memsync
    snapshot/repopulation, reallocation notifications — are designed for
    a real lossy network; this module makes the simulator's links and
    control plane unreliable so the recovery paths actually run.  A
    {!profile} describes a link/switch fault model; a {!t} instance draws
    every decision from one seeded [Stdx.Prng], so a chaos run is exactly
    reproducible from its seed.  Attach one instance per
    {!Netsim.Fabric} (per switch / per link direction as desired).

    When the profile is {!none} the fabric takes its pre-fault code path
    and behaves bit-identically to a build without this layer. *)

type profile = {
  drop : float;  (** P(a delivery is lost), per hop *)
  duplicate : float;  (** P(a delivery arrives twice) *)
  corrupt : float;
      (** P(a byte of the capsule is flipped in flight).  The wire's
          16-bit checksum ({!Activermt.Wire.frame}) catches every
          single-byte flip, so corruption surfaces as a clean rejection —
          i.e. behaves as loss, but through the parser. *)
  jitter_s : float;
      (** Extra per-delivery delay, uniform in [0, jitter_s).  With
          multiple packets in flight this reorders them. *)
  flap_period_s : float;
      (** Link flap cycle length; 0 disables flapping.  The link is down
          (all deliveries lost) during the first [flap_down_s] of every
          period — a deterministic square wave of simulated time, so it
          costs no PRNG state. *)
  flap_down_s : float;
  table_update_slowdown : float;
      (** >= 1: multiplies the modeled control-plane provisioning time
          (table updates are slow).  See also
          {!Activermt_control.Cost_model.degrade}. *)
  table_update_fail : float;
      (** P(a provisioning response is lost after the controller
          committed — a failed/hung table-update RPC).  The client's
          re-request is answered idempotently from the existing
          allocation. *)
}

val none : profile
(** All knobs off; [is_none none = true]. *)

val is_none : profile -> bool

val lossy :
  ?drop:float ->
  ?duplicate:float ->
  ?corrupt:float ->
  ?jitter_s:float ->
  unit ->
  profile
(** Convenience constructor for pure link faults. *)

type kind = Drop | Duplicate | Corrupt | Flap | Ctl_fail

val kind_to_string : kind -> string

type event = { time : float; kind : kind }

val pp_event : Format.formatter -> event -> unit

type t

val create :
  ?seed:int -> ?telemetry:Activermt_telemetry.Telemetry.t -> profile -> t
(** [telemetry] receives [faults.injected.<kind>] counters and the
    [faults.jitter_s] histogram.
    @raise Invalid_argument on an ill-formed profile (a probability
    outside [0, 1], a negative or non-finite time, a slowdown that is not
    a finite number >= 1, a down window longer than the period; NaN is
    outside every range). *)

val profile : t -> profile

val injected : t -> int
(** Total faults injected so far (all kinds). *)

val events : t -> event list
(** The fault-event trace, oldest first, capped at its first 10k events. *)

(** {2 Decisions (called by the fabric per delivery)} *)

type verdict = {
  lose : bool;
  corrupt : bool;
  copies : int;
  cause : kind option;  (** Which knob fired, for trace attribution. *)
}

val plan : t -> now:float -> verdict
(** Decide one delivery's fate.  Exactly one PRNG draw per probabilistic
    knob regardless of outcome, so the stream position depends only on
    the number of deliveries. *)

val jitter : t -> float
(** Extra delay for one scheduled copy (0 when the profile has none). *)

val link_down : t -> now:float -> bool
(** Whether the flap square wave has the link down at [now]. *)

val corrupt_bytes : t -> Bytes.t -> Bytes.t
(** Flip one byte (guaranteed to change) at a PRNG position — the wire
    damage behind a [corrupt] verdict. *)

val scale_table_update : t -> float -> float
(** Apply [table_update_slowdown] to a modeled provisioning duration. *)

val control_failure : t -> now:float -> bool
(** Draw the failed-table-update knob; true means the provisioning
    response must be discarded (the client will retry). *)
