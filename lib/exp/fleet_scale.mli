(** The planet-scale fleet scenario (ROADMAP item 4): a fat-tree fleet
    admits a large concurrent service population through the batched
    epoch pipeline under hierarchical placement, a link flap exercises
    the incremental router's bounded repair, and a rolling pod failure
    re-places every resident with zero FID loss.

    The full configuration is the headline 1024-switch run (k=32, 24
    pods, 100k services); [quick_config] is the 64-switch CI drill
    (k=8, 6 pods).  Both close exactly on their switch count:
    [pods*k + (k/2)^2]. *)

val scenario_params : Rmt.Params.t
(** [Rmt.Params.default] with 2048 words per stage: same 256-block
    allocation granularity, ~328 KB modeled register memory per switch
    so 1024 devices fit in RAM. *)

type config = {
  k : int;  (** fat-tree arity (even) *)
  pods : int;  (** pods built out (partial fabric allowed) *)
  services : int;  (** concurrent services offered *)
  batch : int;  (** services enqueued per admission drain *)
  seed : int;
  fail_pod : int option;  (** rolling failure: every switch of this pod *)
  params : Rmt.Params.t;
}

val default_config : config
(** 1024 switches, 100k services, rolling failure of pod 0. *)

val quick_config : config
(** 64 switches, 3k services — the CI smoke variant. *)

type result = {
  switches : int;
  links : int;
  n_pods : int;
  offered : int;
  admitted : int;
  rejected : int;
  concurrent : int;
  spillover : int;
  adm_epochs : int;
  occupancy : float;
  place_us : float list;
      (** per-service placement+admission cost samples, one per batch
          (wall-clock derived — excluded from deterministic summaries) *)
  sssp_runs : int;
  routed_pairs : int;
  flap_down_touched : int;
  flap_up_touched : int;
  flap_frac : float;  (** worst single-transition touched/routed fraction *)
  flap_repairs : int;
  failed_switches : int;
  relocated : int;
  lost : int;
  orphans : int;  (** residents left on a down switch — must be 0 *)
}

val arrivals : n:int -> seed:int -> (int * Workload.Churn.kind) list
(** The scenario's seeded service mix: mostly light services with
    1-in-16 heavy hitters, as (fid, kind) ascending fid.  Shared with
    the health plane's [healthcheck] scenario so both drills admit the
    same population. *)

val run_scenario : ?log:(string -> unit) -> config -> result
(** Execute the scenario: batched admission (one placement-cost sample
    per batch), a down+up flap of pod 0's first edge uplink against
    fully built route tables, then the rolling pod failure. *)
