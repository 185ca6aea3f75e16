(** Runtime health monitor: discrete-event intake, rule-based watchdogs,
    and an append-only deterministic incident log.

    A monitor wraps a {!Activermt_telemetry.Telemetry} registry that
    keeps windows.  Components report discrete events ({!event}) — link
    flaps, preemptions, rejections, JIT invalidations — which land both
    in the registry (a windowed counter under the event name) and in a bounded
    per-name recent-event ring that remembers each event's virtual time
    and, when the caller passes one, the flight-recorder [trace_id]
    responsible.

    Watchdogs are rules over those signals: "more than [max] events of
    this kind inside the window" or "windowed sum above [max] inside the
    window".  {!check} evaluates every watchdog at a virtual instant;
    {!evaluate} additionally runs a set of {!Slo} definitions.  Both
    append to the incident log on {e transitions only} (a rule firing
    stays one incident until it clears), and every incident derived
    from events carries the trace ids of the contributing events — the
    cause attribution the flight recorder can expand. *)

type t

val create : telemetry:Activermt_telemetry.Telemetry.t -> unit -> t
(** Each event ring holds the newest 4096 events. *)

val telemetry : t -> Activermt_telemetry.Telemetry.t

val event : t -> ?t:float -> ?trace_id:int -> string -> unit
(** Report one discrete event at virtual time [t] (default: the
    registry clock).  Also {!Activermt_telemetry.Telemetry.add}s the
    counter of the same name at [t]. *)

(** {1 Watchdogs} *)

type trigger =
  | Event_count of { event : string; max : int }
      (** fires when more than [max] events landed inside the window *)
  | Series_sum of { series : string; max : float }
      (** fires when the windowed metric [series] sums to more than
          [max] over the newest windows *)

type watchdog = {
  wd_name : string;
  wd_description : string;
  wd_window : int;  (** in registry windows *)
  wd_trigger : trigger;
  wd_severity : Slo.status;  (** [Warn] or [Page] *)
}

val add_watchdog : t -> watchdog -> unit

(** {1 Incidents} *)

type incident = {
  i_seq : int;  (** 0-based position in the log *)
  i_at : float;  (** virtual time of the check that opened it *)
  i_source : string;  (** watchdog or SLO name *)
  i_severity : Slo.status;
  i_measured : float;
  i_threshold : float;
  i_detail : string;
  i_trace_ids : int list;  (** linked flight-recorder traces, in event order *)
}

val check : ?at:float -> t -> unit
(** Evaluate every watchdog at virtual time [at] (default: the registry
    clock); open incidents for rules that newly trip, clear rules that
    no longer hold. *)

val evaluate : ?at:float -> t -> Slo.t list -> Slo.evaluation list
(** {!check}, then evaluate the SLOs against the registry's windows.  SLO
    status transitions (to [Warn]/[Page], or escalations) append
    incidents the same way. *)

val incidents : t -> incident list
(** The append-only log, in append order. *)

val page_count : t -> int
val warn_count : t -> int

val healthy : t -> bool
(** No [Page] incident was ever recorded. *)

(** {1 Reports} *)

val json_report :
  ?slos:Slo.evaluation list -> t -> Activermt_telemetry.Json.t
(** Deterministic health report:
    [{ "healthy": bool, "pages": n, "warns": n, "slos": [...],
       "incidents": [...], "series": {...} }], where "series" is the
    registry's {!Activermt_telemetry.Telemetry.series_json} — same-seed
    runs produce byte-identical output. *)
