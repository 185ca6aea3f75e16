(** Exponentially weighted moving average, as used throughout the paper's
    evaluation plots (Figures 5b, 7c, 9a). *)

type t

val create : alpha:float -> t
(** [create ~alpha] with smoothing factor 0 < alpha <= 1; larger alpha
    weights recent samples more. *)

val update : t -> float -> float
(** Feed a sample; returns the new smoothed value. *)
