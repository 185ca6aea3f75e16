(** Dependency-light metrics registry: counters, gauges, log-bucketed
    latency histograms, and span timers.

    Recording is allocation-cheap: a hashtable lookup plus an in-place
    cell update.

    A registry belongs to one domain.  It keeps one store and takes no
    lock, so recording into it from, or reading it on, any domain other
    than the one that records into it is a data race.  The program runs
    on one domain; nothing in it spawns another.

    Histograms store no samples: observations land in logarithmic
    buckets (8 per octave) covering ~6e-8 .. ~2e2, so percentiles carry
    at most ~4.4% relative error and are clamped to the exact observed
    min/max.  Suitable for latencies in seconds; the exact [sum], [min],
    [max] and [count] are tracked alongside.

    A registry created with [~windows] also keeps, for each metric
    recorded through {!add} or {!sample}, a ring of that many windows of
    {!window_s} virtual seconds: what happened {e when}, beside the run
    total.  A window holds the count and sum of its records and, for a
    sampled metric, min/max and the same sketch at 4 buckets per octave.
    The virtual clock is injected (simulations pass their engine or
    modeled clock, never wall time), so same-seed replays dump
    byte-identical series.

    Spans are sugar over histograms: [with_span t "alloc.score" f] times
    [f] and observes the elapsed seconds into histogram "alloc.score".
    Spans nest (a stack), and [with_span] records even when [f] raises.

    Metric names are flat dot-separated strings (see docs/TELEMETRY.md
    for the taxonomy).  A name denotes one kind forever; re-using it as
    a different kind raises [Invalid_argument]. *)

type t

val create : ?now:(unit -> float) -> ?windows:int -> ?clock:(unit -> float) -> unit -> t
(** A fresh registry.  [now] (default [Unix.gettimeofday]) is the span
    clock, injectable for deterministic tests.  [windows] (default 0:
    run totals only) is how many windows each windowed metric keeps;
    older windows are overwritten in ring order.  [clock] (default
    [fun () -> 0.0]) is the virtual clock that places a windowed record
    made without [~at]; it must not run backwards.
    @raise Invalid_argument if [windows] is negative. *)

val default : t
(** The process-wide registry that instrumented components record into
    unless handed a specific one. *)

(** {2 Recording (hot path)} *)

val incr : t -> ?by:int -> string -> unit
val set_gauge : t -> string -> float -> unit

val observe : t -> string -> float -> unit
(** Record one observation into the named histogram. *)

(** {2 Sources (per-packet and per-event paths)} *)

val source :
  t ->
  read:(counter:(string -> int -> unit) -> gauge:(string -> float -> unit) -> unit) ->
  zero:(unit -> unit) ->
  unit
(** A component owns its hot counters as plain ints and registers one
    source over them at creation.  Every read ({!counter_value},
    {!gauge_value}, {!counters}, {!gauges}, the dumps) calls
    [read ~counter ~gauge], which emits the current values by name, and
    {!reset} calls [zero].  A counter sums its cell and every source's
    reading; a gauge reads as the newest source that emits it has it,
    over any cell.  Sources feed run totals, never windows.

    The registry grows by one source per component ever created on it,
    and keeps alive what [read] and [zero] close over: a small record of
    counts, never the component.  A name a source emits as another kind
    than a cell or another source holds raises [Invalid_argument] at
    read, not at record. *)

(** {2 Windowed recording (cold paths)}

    Each bumps the run total exactly as {!incr} / {!observe} do; when the
    registry keeps windows it also records into the window covering
    virtual time [at] (default: the registry clock). *)

val window_s : float
(** The width of one window: 1.0 virtual seconds. *)

val add : t -> ?at:float -> ?by:int -> string -> unit
(** [incr t ?by name], and one call of [by] in the window.  A counter
    window counts calls and sums [by]; a call with [~by:0] still counts. *)

val sample : t -> ?at:float -> string -> float -> unit
(** [observe t name v], and [v] in the window. *)

val set_clock : t -> (unit -> float) -> unit
(** Re-wire the virtual clock, as when a scenario moves to another
    modeled clock.  Ignored by a registry that keeps no windows, so
    pointing a shared registry such as {!default} at a run's clock is
    harmless. *)

val clock : t -> float
(** The virtual clock's current reading. *)

(** {2 Spans} *)

val span_begin : t -> string -> unit

val span_end : t -> unit
(** Close the innermost open span and observe its elapsed seconds under
    the span's name.
    @raise Invalid_argument if no span is open. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [span_begin]/[span_end] around [f], exception-safe. *)

(** {2 Reads} *)

type hist_summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val counter_value : t -> string -> int
(** The cell plus every source's reading; 0 if never incremented. *)

val gauge_value : t -> string -> float option
(** The newest source's reading, else the most recently set value. *)

val hist_summary : t -> string -> hist_summary option
(** [None] for an unknown name.  A single-observation histogram reports
    that observation for every percentile (sketch midpoints clamp to
    [min, max]); an empty summary reports zeros throughout. *)

val hist_percentile : t -> string -> float -> float
(** The [p]-th percentile ([0..100]) of a span histogram, from the
    log-bucketed sketch, clamped to the observed [min, max].  Edge
    cases are pinned: unknown name or empty histogram yields [0.0];
    [p <= 0.0] yields the exact observed minimum and [p >= 100.0] the
    exact maximum.
    @raise Invalid_argument if [p] is NaN. *)

val counters : t -> (string * int) list
(** All counters, sources included, sorted by name.  Likewise
    [gauges]. *)

val gauges : t -> (string * float) list

val reset : t -> unit
(** Clear every cell, windows included, and zero every source. *)

(** {2 Window reads}

    A window reads as a {!hist_summary} of its records; a counter window
    reports its calls as [count], the sum of their [by] as [sum], and
    zeros for [min], [max] and the percentiles. *)

val windowed : t -> (string * [ `Counter | `Dist ]) list
(** Every metric recorded through {!add} ([`Counter]) or {!sample}
    ([`Dist]) into a registry that keeps windows, sorted by name. *)

val windows : ?last:int -> t -> string -> (int * hist_summary) list
(** The kept windows of a metric as [(index, summary)], ascending by
    index ([floor (at / window_s)]): the newest [windows] indices, or
    the newest [last] of them.  [[]] for an unknown name. *)

val aggregate : ?last:int -> t -> string -> hist_summary
(** The newest [last] windows (default: every kept one) merged into one
    summary; all zeros when there are none. *)

val quantile : ?last:int -> t -> string -> float -> float
(** [quantile t name q] is the [q]-quantile ([0.0 <= q <= 1.0]) of a
    sampled metric over the newest [last] windows, clamped to the
    observed min/max as in {!hist_percentile}; [0.0] when empty or for
    a counter.
    @raise Invalid_argument if [q] is NaN or outside [0, 1]. *)

(** {2 Dumps} *)

val dump_json : t -> string
(** Pretty-printed JSON: counters, gauges, histogram summaries. *)

val write_json : t -> path:string -> unit

(** {2 Series dumps} *)

val series_json : t -> Json.t
(** Every windowed metric with its kind and kept windows:
    [{"bucket_s": 1, "capacity": windows, "series": {name: {"kind",
    "windows": [{"index", "count", "sum"} + "min"/"max"/"p50"/"p90"/
    "p99" for a sampled metric]}}}], sorted by name, with no wall-clock
    field. *)

val write_series : t -> path:string -> unit

type dump = {
  d_bucket_s : float;
  d_capacity : int;
  d_series : (string * [ `Counter | `Dist ] * (int * hist_summary) list) list;
}
(** A parsed {!series_json}; a window's [mean] is derived from its
    [count] and [sum]. *)

val dump_of_json : Json.t -> (dump, string) result
(** [Error] naming the series and field for a window [index] or [count]
    that is not an integer in [0, 2^53], a [capacity] that is not an
    integer in [1, 2^53], or a [bucket_s] that is not a finite number
    > 0.  Missing top-level fields default ([bucket_s] 1, [capacity]
    128, no series), as do a window's [min], [max] and percentiles. *)

val dump_of_string : string -> (dump, string) result
