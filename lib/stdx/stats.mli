(** Small statistics toolkit backing the evaluation harness: summary
    statistics, percentiles, Jain's fairness index and boxplots. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

val summarize : float list -> summary
(** Summary of a non-empty sample list.  [summarize []] returns an
    all-zero summary with [n = 0]. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] with p in [0, 100], linear interpolation between
    order statistics.  @raise Invalid_argument on an empty list. *)

val jain_fairness : float list -> float
(** Jain's fairness index (sum x)^2 / (n * sum x^2) over the allocations,
    as plotted in Figures 7d and 11.  Equals 1.0 for equal shares; 1/n for
    a single winner.  Returns 1.0 for empty or all-zero input (vacuously
    fair). *)

type boxplot = {
  q1 : float;
  q2 : float;
  q3 : float;
  whisker_lo : float;
  whisker_hi : float;
}

val boxplot : float list -> boxplot
(** Five-number boxplot summary (whiskers at 1.5 IQR clamped to the data
    range), mirroring the Figure 11 presentation. *)
