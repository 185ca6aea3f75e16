(** Chaos scenario: the full allocation + memsync protocol stack under a
    seeded fault profile ({!Netsim.Faults}).

    A population of services negotiates allocations through a faulty
    fabric, then bulk-writes its state with memsync capsules over the
    same faulty links.  With [retries] on, every layer's recovery
    machinery runs — negotiation backoff ({!Activermt_client.Negotiate}
    sessions), memsync retransmission with exponential backoff and a
    bounded attempt budget, and control-plane fallback for indices the
    data plane never delivered.  With [retries] off each packet is sent
    exactly once, documenting the baseline failure rate the recovery
    paths exist to fix.

    The service mix is inelastic (flow counter / load balancer / heavy
    hitter) so placements never move mid-run and completion measures
    fault recovery alone.  Everything is driven by one seeded PRNG per
    fault model: same config, same result, bit for bit. *)

type config = {
  services : int;  (** concurrent service clients (default 16) *)
  words : int;  (** state words each service writes (default 48) *)
  seed : int;  (** drives the fault model and all jitter *)
  retries : bool;  (** false = fire-once baseline *)
  profile : Netsim.Faults.profile;
  horizon_s : float;  (** simulated-time cap; the run never hangs *)
  jit : bool;  (** run capsules through the switch's JIT tier (default) *)
}

val default_config : config
(** 16 services, 48 words, retries on, 1% drop, 120 s horizon. *)

type outcome =
  | Synced  (** all words written via the data plane and verified *)
  | Fallback  (** completed, but some words needed the control plane *)
  | Rejected  (** the switch refused the allocation *)
  | Timeout  (** negotiation retry budget exhausted *)
  | Incomplete  (** state missing or unverified at the horizon *)

val outcome_to_string : outcome -> string

type result = {
  outcomes : (int * outcome) list;  (** per service, ascending fid *)
  completed : int;  (** services whose memory verified end-to-end *)
  completion : float;  (** completed / services *)
  negotiation_attempts : int;
  negotiation_retries : int;  (** attempts beyond the first per service *)
  sync_packets : int;
  sync_retransmits : int;
  fallback_words : int;  (** words written over the control plane *)
  fault_events : int;  (** faults the model injected, all kinds *)
  sim_time_s : float;
  faults : Netsim.Faults.t;  (** for dumping the event trace *)
}

val run :
  ?telemetry:Activermt_telemetry.Telemetry.t ->
  ?tracer:Activermt_telemetry.Trace.t ->
  config ->
  result
(** Also sets the [chaos.completion] gauge and [chaos.fallback_words] /
    [chaos.negotiation_timeouts] counters on [telemetry], and adds
    [chaos.services], [chaos.completed] and [chaos.fallbacks] on the
    engine's clock (windowed when the registry keeps windows).

    [tracer] (default [Trace.noop]) records causal traces: each service's
    [negotiate.session] and [memsync.sync] roots, with every capsule's
    fabric hops, fault verdicts and controller provisioning chained
    underneath (the tracer's clock is wired to the engine, so trace time
    is simulated time).
    @raise Invalid_argument on non-positive sizes. *)
