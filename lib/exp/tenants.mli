open Import

(** The noisy-neighbor scenario: multi-tenant admission under one
    hostile tenant's flood.

    [tenants] equal-weight tenants share one virtual switch
    ({!Vswitch}).  Tenant 0 — the noisy neighbor — floods the empty
    switch with [hostile_factor] times its weighted fair share of
    admission requests and, unopposed, captures most of the device.
    Then every well-behaved tenant offers (at most) its own fair share.
    The scenario passes when WRR scheduling plus preemptive reclamation
    claw the hostile surplus back: each well-behaved tenant must end up
    holding its entitlement (the gate in [bench tenants] requires
    [min_retained_wb >= 0.9] and Jain's index over the well-behaved
    [>= 0.9]).

    Everything that feeds the gates is deterministic: admission runs on
    the vswitch's modeled clock, the only randomness is the seeded
    submission shuffle, and the per-service demand is inelastic, so a
    tenant's charged blocks equal its allocator footprint exactly. *)

type config = {
  tenants : int;  (** total, including the hostile tenant 0; >= 2 *)
  hostile_factor : int;
      (** hostile offered load as a multiple of its fair share *)
  demand_blocks : int;  (** per-service inelastic block demand *)
  services_per_tenant : int;  (** well-behaved offered services *)
  max_batch : int;  (** vswitch admission epoch size *)
  seed : int;  (** phase-2 submission shuffle *)
}

val scenario_params : Rmt.Params.t
(** {!Rmt.Params.default} with 16-word blocks ([words_per_stage] 4096)
    so evicting a service drains a few dozen memsync words, not
    thousands. *)

val preset : tenants:int -> unit -> config
(** A saturating configuration for [tenants] equal tenants: per-service
    demand scaled so each well-behaved tenant offers its whole fair
    share in a handful of services (total well-behaved demand ~= the
    device), hostile factor 10, 64-request epochs, seed 7. *)

type tenant_outcome = {
  tenant : int;
  weight : int;
  hostile : bool;
  offered_blocks : int;
  granted_blocks : int;  (** charged (guaranteed) blocks held at end *)
  fair_blocks : float;  (** weighted fair share of the device *)
  retained : float;
      (** [granted / min(offered, fair)] — the share-retention ratio the
          fairness gates run on (1.0 when the tenant could not have
          wanted more) *)
}

type result = {
  config : config;
  capacity_blocks : int;  (** raw pool size *)
  effective_capacity_blocks : int;
      (** achievable capacity for the service class, probed by filling a
          scratch allocator: program shape limits which stages the
          memory access can occupy, so this is below [capacity_blocks].
          Entitlements, [fair_blocks] and the retention gates all use
          it. *)
  per_tenant : tenant_outcome list;  (** ascending tenant id *)
  jain_wb : float;
      (** Jain's fairness index over well-behaved retention ratios *)
  min_retained_wb : float;
  granted : int;
  denied_quota : int;
  denied_capacity : int;
  evictions : int;
  relocations : int;  (** evictees re-admitted with state repopulated *)
  deferrals : int;
  epochs : int;
  p50_admit_s : float;  (** modeled submit-to-grant latency percentiles *)
  p99_admit_s : float;
  modeled_span_s : float;  (** vswitch modeled clock at scenario end *)
  consistent : bool;
      (** zero-FID-loss audit: allocator residents, Granted decisions
          and the parked set tile the submitted FIDs with no overlap *)
  admit_wall_s : float;  (** measured wall time of both drains *)
}

val run : ?telemetry:Telemetry.t -> ?clock:(unit -> float) -> config -> result
(** Run the two-phase scenario on {!scenario_params}.  [telemetry]
    defaults to a {e fresh} registry so counters are scenario-local;
    [clock] (default [Sys.time]) only feeds [admit_wall_s]. *)

val summary_lines : result -> string
(** Deterministic multi-line summary (modeled quantities only — no wall
    times), byte-identical across same-config runs; the tenantsim golden
    in [test/golden/churn.t] pins it. *)
