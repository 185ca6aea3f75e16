(** Figure 7: the online experiment — 1000 epochs of Poisson(2) arrivals /
    Poisson(1) departures with a uniform service mix, 10 trials, both
    policies.  (a) utilization converges to a common plateau, (b) resident
    population grows until about half the arrivals fail, (c) the fraction
    of resident cache instances reallocated per epoch stabilizes (EWMA
    alpha = 0.6), (d) Jain fairness among cache instances dips then
    recovers above 0.99. *)

type outputs = {
  utilization : bool;
  residents : bool;
  reallocation : bool;
  fairness : bool;
}

val all : outputs

val run :
  ?epochs:int -> ?trials:int -> ?every:int -> outputs -> Rmt.Params.t -> unit
