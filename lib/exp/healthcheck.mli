(** The fleet health-plane scenario: drive the quick fleetscale,
    chaos and tenants workloads into one registry that keeps windows, evaluate
    the standing SLOs and watchdogs, and emit a deterministic health
    report.

    Everything in the report derives from virtual clocks (admission
    epochs, the chaos engine, the vswitch's modeled clock), so two
    same-seed runs produce byte-identical reports — CI [cmp]s them.

    [inject_flap_storm] forces a breach for drill/CI purposes: the pod-0
    uplink flaps [storm_flaps] times inside one window, tripping the
    route-locality watchdog ([route.locality_storm]) with a [Page]
    incident whose [trace_ids] link the offending [topology.flap]
    flight-recorder traces. *)

module Slo = Activermt_health.Slo
module Monitor = Activermt_health.Monitor

type config = {
  seed : int;
  fleet_k : int;  (** fat-tree arity *)
  fleet_pods : int;
  fleet_services : int;
  fleet_batch : int;
  fail_switches : int;  (** switches of pod 1 taken down, one per window *)
  chaos_services : int;
  tenants : int;
  inject_flap_storm : bool;
  storm_flaps : int;  (** flap transitions the storm injects *)
}

val quick_config : config
(** k=8 x 6 pods (64 switches), 1500 services, 16 chaos services,
    8 tenants, no storm, seed 9001. *)

val default_config : config
(** The quick fleetscale shape (5000 services); otherwise as
    {!quick_config}. *)

type result = {
  evaluations : Slo.evaluation list;
  incidents : Monitor.incident list;
  healthy : bool;  (** no [Page] incident *)
  monitor : Monitor.t;  (** the registry is {!Monitor.telemetry} *)
  report : Activermt_telemetry.Json.t;  (** deterministic full report *)
}

val run : ?log:(string -> unit) -> config -> result

val summary_lines : result -> string list
(** Deterministic SLO table + incident summary, one line each — what
    the [healthcheck] CLI prints and CI tees to the step summary. *)
