(** Discrete-event simulation engine: a time-ordered queue of events.

    Events scheduled for the same instant fire in scheduling order, so
    traces are deterministic: every event gets a sequence number, and the
    next event to fire is always the least [(time, seq)] queued.

    An event is one cell holding a handler and its argument
    ({!schedule_call}); a thunk is the handler [thunk] with argument
    [()].  The queue has two parts, and neither allocates per event
    beyond that cell:
    - a binary heap on [(time, seq)] kept in parallel arrays of unboxed
      times and sequence numbers, with each event in a fixed cell;
    - a fixed number of FIFO rings, each bound to one delay.  {!schedule}
      with a finite delay [>= 0] appends to the ring bound to that exact
      delay when the new time is no earlier than the ring's last event,
      or binds an empty ring to the delay; when every ring is busy with
      other delays the event goes to the heap, as do {!schedule_at},
      negative, NaN and infinite delays.

    The order is exact, not approximate: the clock never goes back and
    IEEE addition is monotone, so events scheduled with the same delay
    arrive in [(time, seq)] order, and a ring only ever appends an event
    that keeps it sorted.  A ring's head is therefore its least event,
    and the least of the heap's top and the ring heads is the least
    event queued.  Most traffic uses a few fixed delays (the wire, plus
    a pass latency per pipeline), so most events never enter the heap.

    The queue drops its reference to an event as soon as it fires. *)

type t

val create : ?telemetry:Activermt_telemetry.Telemetry.t -> unit -> t
(** [telemetry] (default [Telemetry.default]) reads the engine's
    [sim.events.scheduled] / [sim.events.processed] counters and its
    [sim.queue_depth] gauge (the events queued after the pop of the last
    fired event, before its handler ran) through a source registered
    here.  The engine counts into plain ints of a record apart from
    itself, so the registry never keeps an engine alive.  Each counter
    appears once it is nonzero, and the gauge once an event has fired. *)

val now : t -> float
(** Current simulated time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Enqueue an event [delay] seconds from now (clamped to now for
    negative or NaN delays). *)

val schedule_call : t -> delay:float -> ('a -> unit) -> 'a -> unit
(** [schedule_call t ~delay f x] enqueues the event [f x] like
    {!schedule}, without a closure over [f] and [x]: the queue holds the
    pair in one cell. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Enqueue an event at absolute [time] (clamped to now for past or NaN
    times).  It always goes to the heap. *)

val run : ?until:float -> t -> unit
(** Drain the queue, or stop once the next event is past [until], leaving
    it queued.  Stopping moves the clock to [until] if that is later than
    now; the clock never goes back. *)

val step : t -> bool
(** Fire the single next event; false when the queue is empty. *)

val pending : t -> int
(** Events queued, in the heap and the rings. *)
