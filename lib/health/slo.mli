(** Declarative service-level objectives over the windowed metrics of an
    {!Activermt_telemetry.Telemetry} registry.

    An SLO names a target over its newest [window] registry windows and
    is evaluated Google-SRE style with two windows: the full ("slow")
    window and a fast window of [fast_fraction] of it (default 5%,
    minimum one registry window).  For ratio SLOs the measured quantity is a
    {e burn rate} — the error rate divided by the error budget
    [1 - target], so burn 1.0 consumes the budget exactly at the end of
    the window.  A page fires only when {e both} windows burn at
    [page_burn] or above (the fast window makes the signal reset
    quickly); a warn fires when the slow window burns at [warn_burn].
    Threshold SLOs (quantile / stat bounds) normalize the same way:
    burn is the fraction of the bound consumed (measured/bound for
    upper bounds, deficit-ratio for lower bounds), with page at burn
    >= 1 in both windows and warn at [warn_burn] (default 0.8) in the
    slow window. *)

type status = Ok | Warn | Page

val status_name : status -> string

type stat = Mean | Min | Max

type kind =
  | Ratio of { good : string; total : string; target : float }
      (** [good]/[total] are windowed counters; healthy when the window
          ratio of sums is >= [target].  An empty window (total sum 0)
          counts as healthy — no traffic burns no budget. *)
  | Quantile of { series : string; q : float; bound : float }
      (** a sampled metric; healthy when its [q]-quantile over the
          window is <= [bound]. *)
  | Stat of { series : string; stat : stat; cmp : [ `Le | `Ge ]; bound : float }
      (** healthy when [stat] over the window compares to [bound]
          ([Mean]/[Min]/[Max] of observed values for a sampled metric;
          for a counter [Mean] is the mean per-window sum and
          [Min]/[Max] range over per-window sums). *)

type t = {
  slo_name : string;
  slo_description : string;
  slo_kind : kind;
  slo_window : int;  (** slow window, in registry windows *)
  slo_fast_fraction : float;
  slo_page_burn : float;
  slo_warn_burn : float;
}

val ratio :
  name:string ->
  ?description:string ->
  ?window:int ->
  ?fast_fraction:float ->
  ?page_burn:float ->
  ?warn_burn:float ->
  good:string ->
  total:string ->
  target:float ->
  unit ->
  t
(** Defaults: window 40, fast_fraction 0.05, page_burn 14.4,
    warn_burn 6.0 (the SRE-workbook pairing). *)

val quantile :
  name:string ->
  ?description:string ->
  ?window:int ->
  series:string ->
  q:float ->
  bound:float ->
  unit ->
  t
(** Upper-bound a quantile (e.g. admission p99 <= 1 ms).  [window]
    defaults to 40; fast_fraction is 0.05, page_burn 1.0 and warn_burn
    0.8. *)

val stat :
  name:string ->
  ?description:string ->
  ?window:int ->
  series:string ->
  stat:stat ->
  cmp:[ `Le | `Ge ] ->
  bound:float ->
  unit ->
  t
(** Bound a window statistic (e.g. Jain fairness Min >= 0.9, route
    flap locality Max <= 0.05).  Same defaults as {!quantile}. *)

type evaluation = {
  ev_slo : t;
  ev_status : status;
  ev_measured : float;  (** the SLO's quantity over the slow window *)
  ev_fast_measured : float;
  ev_burn_slow : float;
  ev_burn_fast : float;
  ev_detail : string;
}

val evaluate : Activermt_telemetry.Telemetry.t -> t -> evaluation

val threshold_of : t -> float
(** The target / bound the SLO compares against (for reports). *)

val json_of_evaluation : evaluation -> Activermt_telemetry.Json.t
(** Deterministic: name, status, measured values, burns, threshold,
    detail — no wall-clock fields. *)
