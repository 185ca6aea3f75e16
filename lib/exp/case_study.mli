(** The Section 6.3 case study: full in-network cache services running
    end-to-end on the simulated testbed (client shims, switch runtime +
    controller, KV server), reproducing Figures 9a, 9b and 10.

    A tenant's lifecycle follows the paper: (optionally) deploy the
    frequent-item monitor on its object requests, extract the computed
    statistics through data-plane memsync reads, context-switch to the
    cache service, populate it (at multiplicative refresh intervals), and
    serve queries.  Reallocations arrive as controller notifications; the
    tenant pauses, extracts, acks, re-synthesizes against its new regions
    and repopulates. *)

type config = {
  n_keys : int;  (** object key space *)
  zipf_exponent : float;
  request_rate_pps : float;  (** per-tenant object-request rate *)
  populate_rate_pps : float;
  extract_compute_s : float;
      (** client-side recompute time during a reallocation *)
  hh_window_s : float;  (** monitoring window before the context switch *)
  refresh_base_s : float;  (** first multiplicative populate interval *)
  seed : int;
}

val default_config : config

type tenant_stats = {
  addr : int;
  fid : int;
  arrival_s : float;
  first_hit_s : float option;
  bins_hits : int array;  (** per-1ms hits *)
  bins_total : int array;  (** per-1ms replies to object requests *)
  n_buckets : int;  (** final cache capacity *)
  disruptions : (float * float) list;
      (** (start, end) of post-operational windows at zero hit rate *)
}

val hit_rate_window : tenant_stats -> lo_ms:int -> hi_ms:int -> float
(** Aggregate hit rate over a bin window (0 when no traffic). *)

type result = { tenants : tenant_stats list; duration_s : float }

val run_single : ?config:config -> Rmt.Params.t -> result
(** Figure 9a: one tenant, HH monitor phase then cache. *)

val run_multi :
  ?config:config -> ?n_tenants:int -> ?stagger_s:float -> Rmt.Params.t -> result
(** Figures 9b/10: [n_tenants] (default 4) cache tenants staggered by
    [stagger_s] (default 5 s), populating from known request patterns. *)

val print_9a : Rmt.Params.t -> unit
val print_9b : Rmt.Params.t -> unit
val print_10 : Rmt.Params.t -> unit
(** Print Figures 9a, 9b and 10 under {!default_config}. *)
