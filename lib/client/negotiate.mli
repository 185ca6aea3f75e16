(** Allocation-protocol packet builders shared by all service clients. *)

val request_packet :
  fid:Activermt.Packet.fid -> seq:int -> Activermt_apps.App.t -> Activermt.Packet.t
(** Allocation request describing the service's canonical access pattern,
    demands and elasticity (Section 3.3). *)

val extraction_done_packet : fid:Activermt.Packet.fid -> Activermt.Packet.t
(** Bare active packet with the ack flag: "I finished extracting state"
    (Section 4.3). *)

val release_packet : fid:Activermt.Packet.fid -> Activermt.Packet.t
(** Bare active packet without the ack flag: release my allocation. *)

val granted_regions :
  Activermt.Packet.t -> Activermt.Packet.region option array option
(** Regions from a granted allocation response; [None] for rejections or
    other packets. *)

(** {1 Retrying negotiation sessions}

    Allocation requests and responses travel the data plane and can be
    lost, duplicated or corrupted.  A {!session} wraps the request in a
    timeout / exponential-backoff / bounded-retry loop, implemented as a
    pure state machine: the caller supplies the clock ([now]) and a
    [send] function, so the same code runs under the discrete-event
    simulator and against real sockets.  Retries are safe because the
    controller answers duplicate requests for a resident FID from the
    existing allocation ({!Activermt_control.Controller.handle_request}). *)

type backoff = {
  base_timeout_s : float;  (** first attempt's response timeout *)
  multiplier : float;  (** timeout growth per retry (>= 1) *)
  max_timeout_s : float;  (** timeout ceiling *)
  jitter : float;
      (** symmetric jitter fraction in [0, 1): each timeout is scaled by
          a factor drawn uniformly from [1-jitter, 1+jitter] so
          colliding clients decorrelate *)
  max_attempts : int;  (** total transmissions before giving up (>= 1) *)
}

val default_backoff : backoff
(** 0.25 s base, doubling to a 4 s cap, 10% jitter, 6 attempts. *)

val no_retry : backoff
(** Single attempt ({!default_backoff} with [max_attempts = 1]) — the
    legacy fire-once behavior, for baselines. *)

type outcome =
  | Granted of Activermt.Packet.region option array
  | Rejected  (** the switch refused (insufficient memory) *)
  | Timeout  (** retry budget exhausted with no response *)

type session

val session :
  ?backoff:backoff -> ?seed:int -> ?tracer:Activermt_telemetry.Trace.t ->
  fid:Activermt.Packet.fid -> Activermt_apps.App.t -> session
(** A fresh (unstarted) session.  [seed] (mixed with [fid] so sessions
    sharing a base seed still jitter independently) drives only the
    timeout jitter; with [backoff.jitter = 0] the session is entirely
    deterministic.

    [tracer] (default [Trace.noop]) records the session as a trace:
    [start] opens a [negotiate.session] root (head-sampled), every
    transmission emits a [negotiate.attempt] child stamped with the
    caller's [now] (attempt number, seq, armed timeout), and settling
    emits [negotiate.settled] with the outcome
    ([granted]/[rejected]/[alloc_failed]/[timeout]) and total attempts.
    @raise Invalid_argument on a malformed [backoff]. *)

val start :
  session -> now:float -> send:(Activermt.Packet.t -> unit) -> unit
(** Transmit the first request ([seq] 0) and arm the timeout.
    @raise Invalid_argument if already started. *)

val on_packet :
  session ->
  Activermt.Packet.t ->
  [ `Granted of Activermt.Packet.region option array
  | `Rejected
  | `Stale  (** session already settled — a duplicate response *)
  | `Ignored  (** different FID, or not an allocation response *) ]
(** Feed a packet received by the client.  Responses to any attempt
    settle the session (the controller dedups by FID, so every response
    describes the same allocation). *)

val on_alloc_failed : session -> unit
(** An out-of-band allocation-failure notification (e.g. the fabric's
    [Alloc_failed] signal); settles the session as [Rejected]. *)

val tick :
  session ->
  now:float ->
  send:(Activermt.Packet.t -> unit) ->
  [ `Wait of float | `Done of outcome ]
(** Drive timeouts: retransmits (with [seq] = attempt number and a
    grown, jittered timeout) when the deadline passed and budget
    remains; [`Wait dt] says nothing to do for [dt] seconds, [`Done]
    that the session settled.  Never blocks and, because attempts are
    bounded, always reaches [`Done] after finitely many calls.
    @raise Invalid_argument if the session was never started. *)

val outcome : session -> outcome option
(** [None] while still in flight. *)

val attempts : session -> int
(** Requests transmitted so far. *)

val trace : session -> Activermt_telemetry.Trace.ctx option
(** The session's trace context once started (and head-sampled) — attach
    it to outgoing fabric messages so capsule hops chain under the
    [negotiate.session] trace. *)
