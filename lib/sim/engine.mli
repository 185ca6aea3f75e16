(** Discrete-event simulation engine: a time-ordered queue of events.

    Events scheduled for the same instant fire in scheduling order, so
    traces are deterministic: every event gets a sequence number, and the
    next event to fire is always the least [(time, seq)] queued.

    The queue has two parts:
    - {e lanes}: FIFO queues, each with a fixed delay and a fixed handler
      ({!lane}).  A caller that sends many events with one delay owns a
      lane and {!push}es each event's value onto it: the engine stores
      the value, its time and its sequence number in the lane's arrays,
      with no cell, no closure and no boxed float.  {!schedule} with a
      finite delay [>= 0] pushes the thunk onto one of the engine's own
      lanes of thunks, each at one delay: the lane at that exact delay,
      or an empty one moved to it.
    - a binary heap on [(time, seq)] kept in parallel arrays of unboxed
      times and sequence numbers, each event in a fixed cell holding its
      handler and argument, the one allocation per heap event.  It takes
      {!schedule_at}, negative, NaN and infinite delays, a delay that
      arrives while every lane of thunks is busy at other delays, and a
      push that finds no slot (below).

    {b Slots.}  At most eight lanes are {e bound} at once, each to a
    slot, and only a bound lane holds events: finding the next event
    reads at most eight lane heads besides the heap's top, however many
    lanes exist (a fleet puts up to 1,024 fabrics, each with its own
    lanes, on one engine).  A push onto an unbound lane binds it to a
    free slot, or takes the slot of a bound lane that is empty; when
    every slot's lane holds events, the event goes to the heap as a cell
    holding the lane's handler and the value, and fires at the same
    [(time, seq)].

    The order is exact, not approximate: the clock never goes back and
    IEEE addition is monotone, so a lane's events, all with one delay,
    arrive in [(time, seq)] order.  A lane's head is therefore its least
    event, and the least of the heap's top and the bound lanes' heads is
    the least event queued.  Most traffic uses a few fixed delays (the
    wire, plus a pass latency per pipeline), so most events never enter
    the heap.

    The queue drops its reference to an event as soon as it fires: a
    fired heap cell and a fired lane cell are refilled, a lane's with its
    [none] value. *)

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

type 'a lane
(** A FIFO of events on one engine, all with the lane's delay and
    handler.  Its caller owns it; the engine holds it only while it is
    bound to a slot. *)

val lane : t -> delay:float -> none:'a -> ('a -> unit) -> 'a lane
(** [lane t ~delay ~none handler] is a new, unbound lane whose events
    fire [handler x], [delay] seconds after their push.  [none] fills the
    lane's free cells: a value the engine holds but never hands to
    [handler].  Raises [Invalid_argument] unless [delay] is finite and
    [>= 0]. *)

val push : 'a lane -> 'a -> unit
(** [push l x] queues the event [handler x] at [now + delay] and takes
    the next sequence number, like {!schedule} with the lane's delay.  A
    push onto a bound lane with room in its arrays allocates nothing.
    [x] is the engine's until its event fires, and the engine keeps no
    reference to it after. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Enqueue an event [delay] seconds from now (clamped to now for
    negative or NaN delays). *)

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
(** Events queued, in the heap and the lanes. *)
