(** Capsule flight recorder: bounded, sampled, causally-linked event traces.

    Where {!Telemetry} aggregates (counters, histograms, span timers),
    [Trace] records *individual* causally-linked events so one capsule can
    be followed end to end: injection, fabric hops, fault verdicts,
    device execution, controller provisioning, fleet bridging and
    migration.  Each event carries a [(trace_id, span_id, parent_span_id)]
    triple; the context travels in-band with the capsule (see
    [Core.Wire.frame]'s trace extension and [Sim.Fabric]'s message trace
    field), so a trace survives switch hops, recirculation and migration.

    Properties:
    - {b Head-based, seeded sampling.}  The keep/drop decision is made
      once, at {!start_trace}, from a [Stdx.Prng] stream seeded at
      {!create} — the same run with the same seed yields the same traces.
    - {b Hard-bounded.}  A tracer holds at most [capacity] events (default
      64k); when full, the oldest traces are evicted wholesale.
    - {b Deterministic output.}  Events keep their emission order and
      timestamps come from an injectable clock (wire it to
      [Sim.Engine.now]; the default clock returns 0), so same-seed runs
      export byte-identical dumps.  Never wire the clock to wall time if
      dumps must be reproducible.
    - {b Cheap when off.}  {!noop} never samples and every operation on it
      returns immediately; instrumented call sites guard on the returned
      [ctx option], so a disabled tracer costs a pointer test.

    A tracer belongs to one domain.  It keeps one store and takes no lock,
    so emitting into it from, or reading it on, any domain other than the
    one that emits into it is a data race.  The program runs on one
    domain; nothing in it spawns another. *)

type ctx = { trace_id : int; span_id : int }
(** A position in a trace: which trace, and which span new children should
    hang off.  Mirrors [Core.Wire.trace_ctx] field for field (the two
    types stay separate only because [Core] cannot depend on this
    library). *)

type event = {
  trace_id : int;
  span_id : int;
  parent_span_id : int;  (** 0 for a trace's root event. *)
  t_start : float;
  t_end : float;  (** Equal to [t_start] for instant events. *)
  name : string;  (** Dot-separated taxonomy, e.g. ["fault.drop"]. *)
  attrs : (string * string) list;
}

type t

val create : ?capacity:int -> ?sample:float -> ?seed:int -> unit -> t
(** [capacity] (default 65536) bounds the stored event count.  [sample]
    (default 1.0) is the head-sampling probability in [0, 1]; values
    [>= 1.0] keep everything without consuming PRNG state, [<= 0.0] keeps
    nothing.  [seed] (default 0x7ace) seeds the sampling stream. *)

val noop : t
(** A permanently disabled tracer: {!start_trace} always returns [None]
    and emission is a no-op.  Components default to this. *)

val enabled : t -> bool

val set_clock : t -> (unit -> float) -> unit
(** Replace the clock used for event timestamps.  Simulations wire this to
    [Engine.now] so trace time is simulated time. *)

val now : t -> float
(** Current clock reading (0 with the default clock). *)

val start_trace :
  t -> ?attrs:(string * string) list -> string -> ctx option
(** Allocate a new trace and emit its root event (instant, at the current
    clock), or [None] if the tracer is disabled or head sampling rejects
    it.  All downstream instrumentation keys off the returned context. *)

val instant : t -> ctx -> ?attrs:(string * string) list -> string -> ctx
(** Emit a zero-duration event as a child of [ctx] and return the child's
    context, so successive hops chain causally. *)

val span :
  t ->
  ctx ->
  ?attrs:(string * string) list ->
  t_start:float ->
  t_end:float ->
  string ->
  ctx
(** Emit a completed span with explicit bounds as a child of [ctx];
    returns the child's context. *)

val with_span :
  t ->
  ctx option ->
  ?attrs:(string * string) list ->
  string ->
  (ctx option -> 'a) ->
  'a
(** [with_span t (Some ctx) name f] runs [f (Some child)] and emits the
    span [name] from clock entry to exit (also on exception).
    [with_span t None name f] is just [f None]. *)

val length : t -> int
(** Events currently stored. *)

val evicted : t -> int
(** Events discarded by oldest-trace eviction since creation/reset. *)

val events : t -> event list
(** The stored events in emission order: at most [capacity], the oldest
    traces evicted first. *)

val reset : t -> unit
(** Drop all stored events and zero {!evicted}.  Id counters keep
    advancing so contexts never collide across a reset. *)

(** {2 Exporters} *)

val dump_chrome : t -> string
(** Chrome trace-event JSON (the ["traceEvents"] array format),
    pretty-printed, loadable in Perfetto / [chrome://tracing].  Events
    map to complete ("ph":"X") slices with [ts]/[dur] in microseconds;
    [pid] is the event's ["switch"] attribute (0 when absent, with
    process-name metadata records naming each), [tid] is the trace id,
    and [args] carries the span triple plus every attribute. *)

val write_chrome : t -> string -> unit
(** Write {!dump_chrome} to a file (trailing newline included). *)

val render_tree : event list -> string
(** Compact text form: one block per trace, events indented under their
    causal parent, ordered by emission.  Exposed on raw event lists so the
    [tracequery] CLI can render trees parsed back from a dump. *)
