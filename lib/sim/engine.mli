(** Discrete-event simulation engine: a time-ordered queue of thunks.

    Events scheduled for the same instant fire in scheduling order, so
    traces are deterministic.  The queue is a binary heap on
    [(time, seq)] kept in parallel arrays of unboxed times and sequence
    numbers, with each thunk in a fixed cell: the queue allocates
    nothing per event, and drops its reference to a thunk as soon as the
    thunk fires. *)

type t

val create : ?telemetry:Activermt_telemetry.Telemetry.t -> unit -> t
(** [telemetry] (default [Telemetry.default]) counts
    [sim.events.scheduled] / [sim.events.processed] and tracks the
    [sim.queue_depth] gauge as events fire, through handles resolved at
    creation; the metrics appear on the first event. *)

val now : t -> float
(** Current simulated time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Enqueue an event [delay] seconds from now (clamped to now for
    negative delays). *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Enqueue an event at absolute [time] (clamped to now for past or NaN
    times). *)

val run : ?until:float -> t -> unit
(** Drain the queue (or stop once the next event is past [until], leaving
    it queued and setting the clock to [until]). *)

val step : t -> bool
(** Fire the single next event; false when the queue is empty. *)

val pending : t -> int
