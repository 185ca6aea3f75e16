(** Dependency-light metrics registry: counters, gauges, log-bucketed
    latency histograms, and span timers.

    Recording is allocation-cheap (a domain-local lookup plus an in-place
    cell update; no lookup at all through a {!counter} or {!gauge}
    handle) and safe under [Stdx.Domain_pool] fan-out: every writing
    domain gets its own shard and readers merge all shards, so no write
    ever contends.  Merged totals are exact once the writing domains have
    synchronized — [Domain_pool.parallel_for] returns only after every
    worker signals completion under the pool's mutex, so recording inside
    a fan-out and reading after it returns is exact.

    Histograms store no samples: observations land in logarithmic
    buckets (8 per octave) covering ~6e-8 .. ~2e2, so percentiles carry
    at most ~4.4% relative error and are clamped to the exact observed
    min/max.  Suitable for latencies in seconds; the exact [sum], [min],
    [max] and [count] are tracked alongside.

    Spans are sugar over histograms: [with_span t "alloc.score" f] times
    [f] and observes the elapsed seconds into histogram "alloc.score".
    Spans nest per domain (a stack), and [with_span] records even when
    [f] raises.

    Metric names are flat dot-separated strings (see docs/TELEMETRY.md
    for the taxonomy).  A name denotes one kind forever; re-using it as
    a different kind raises [Invalid_argument]. *)

type t

val create : ?now:(unit -> float) -> unit -> t
(** A fresh registry.  [now] (default [Unix.gettimeofday]) is the span
    clock, injectable for deterministic tests. *)

val default : t
(** The process-wide registry that instrumented components record into
    unless handed a specific one. *)

(** {2 Recording (hot path)} *)

val incr : t -> ?by:int -> string -> unit
val set_gauge : t -> string -> float -> unit

val observe : t -> string -> float -> unit
(** Record one observation into the named histogram. *)

(** {2 Handles (per-packet and per-event paths)}

    A handle names one counter or gauge and records into it without
    hashing the name: it caches the calling domain's cell and checks the
    cache against that domain's shard and a generation bumped by
    {!reset}, so it stays exact under [Stdx.Domain_pool] fan-out and
    after a reset.  Creating a handle registers nothing; the metric
    appears on its first record, exactly as with {!incr} and
    {!set_gauge}, which stay for cold paths. *)

type counter
type gauge

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val bump : ?by:int -> counter -> unit
(** [incr t ?by name] through the handle.
    @raise Invalid_argument if the name is registered as another kind. *)

val set : gauge -> float -> unit
(** [set_gauge t name v] through the handle.
    @raise Invalid_argument if the name is registered as another kind. *)

val span_begin : t -> string -> unit

val span_end : t -> unit
(** Close the innermost open span of the calling domain and observe its
    elapsed seconds under the span's name.
    @raise Invalid_argument if no span is open. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [span_begin]/[span_end] around [f], exception-safe. *)

(** {2 Merged reads} *)

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
(** Sum over all shards; 0 if the counter was never incremented. *)

val gauge_value : t -> string -> float option
(** Most recently set value across shards (global write order). *)

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
(** All counters, merged, sorted by name.  Likewise [gauges] and
    [histograms]. *)

val gauges : t -> (string * float) list
val histograms : t -> (string * hist_summary) list

val reset : t -> unit
(** Clear every shard; handles re-register on their next record.  Only
    call while no other domain is recording. *)

(** {2 Dumps} *)

val json_of : t -> Json.t
val json_of_summary : hist_summary -> Json.t

val dump_json : t -> string
(** Pretty-printed {!json_of}: counters, gauges, histogram summaries. *)

val dump_prometheus : t -> string
(** Prometheus text exposition: counters, gauges, summaries with
    p50/p90/p99 quantiles.  Names are sanitized to the exposition
    format's charset ([[a-zA-Z_:][a-zA-Z0-9_:]*]) and label values have
    backslash, double-quote and newline escaped, so the output is
    well-formed promtext for any registry key. *)

val prom_name : string -> string
(** The metric-name sanitizer {!dump_prometheus} uses: every character
    outside [[a-zA-Z0-9_:]] collapses to ['_'] and a leading digit gets a
    ['_'] prefix. *)

val prom_escape_label : string -> string
(** The label-value escaper {!dump_prometheus} uses: backslash,
    double-quote and newline each gain a leading backslash (newline
    becomes the two characters backslash-n). *)

val write_json : t -> path:string -> unit
