(** Application arrival/departure processes for the allocator evaluation.

    Section 6.1's online experiments draw, per unit-less epoch, a Poisson
    number of arrivals (mean 2) and departures (mean 1); arriving
    instances are one of the three example services chosen uniformly at
    random; departures remove a uniformly random resident instance. *)

type kind = Cache | Heavy_hitter | Load_balancer | Flow_counter | Bloom_filter

val kind_to_string : kind -> string

val all_kinds : kind array
(** The paper's three evaluation services. *)

val extended_kinds : kind array
(** The paper's three plus the two services this repo adds (flow counter,
    Bloom filter), for the extended-workload experiment. *)

type event =
  | Arrive of { fid : int; kind : kind; tenant : int option }
      (** [tenant] labels the arrival with the submitting tenant when the
          generator runs a multi-tenant mix; [None] everywhere else, so
          single-tenant consumers can ignore it. *)
  | Depart of { fid : int }

type epoch = { index : int; events : event list }

type config = { kinds : kind array  (** arrival mix, sampled uniformly *) }

val default_config : config

val extended_config : config
(** [default_config] over [extended_kinds]. *)

val generate :
  config -> epochs:int -> Stdx.Prng.t -> epoch list
(** Deterministic sequence given the PRNG.  Each epoch draws Poisson
    arrivals (mean 2.0) and departures (mean 1.0).  FIDs are unique and
    increase; departures pick among instances currently alive in the
    generated sequence (so the trace is self-consistent without an
    allocator). *)

val arrivals_sequence : kind -> n:int -> epoch list
(** [n] single-arrival epochs of one kind: the Figure 5a shape. *)

val mixed_arrivals : n:int -> Stdx.Prng.t -> epoch list
(** [n] single-arrival epochs, kind uniform at random: Figure 5b. *)

type zipf_config = {
  clients : int;  (** total arrivals to generate across the sequence *)
  batch : int;  (** arrivals per epoch (the admission batch size) *)
  resident_target : int;
      (** uniform departures trim the alive set back to this after each
          epoch's arrivals, keeping the switch near steady-state load *)
  exponent : float;  (** Zipf exponent over [zipf_kinds] popularity ranks *)
  zipf_kinds : kind array;  (** popularity order: index 0 is the head *)
  tenant_weights : int array;
      (** when non-empty, each arrival carries [tenant = Some i] with [i]
          drawn proportionally to [tenant_weights.(i)] from a dedicated
          split PRNG stream (a 10x-weight hostile tenant is
          [[| 10; 1; ...; 1 |]]).  The empty default makes zero extra PRNG
          draws, keeping the no-tenant sequence byte-identical to older
          generators. *)
}

val default_zipf_config : zipf_config
(** 50k clients, batch 64, resident target 64, exponent 0.99 over
    [extended_kinds] — the CI churn smoke configuration; the full bench
    raises [clients] to 1M. *)

val zipf_churn : zipf_config -> Stdx.Prng.t -> epoch Seq.t
(** Large-scale client churn under Zipf program popularity: each epoch
    carries [batch] fresh arrivals (unique, increasing FIDs; kind drawn
    Zipf-distributed from [zipf_kinds]) followed by uniform departures
    down to [resident_target].  Lazy so 1M clients never materialize as a
    list.

    The sequence is {e ephemeral} (it advances an internal PRNG stream):
    force it once, front to back.  Two generators built from equal-seed
    PRNGs yield identical sequences.
    @raise Invalid_argument on negative [clients]/[resident_target],
    non-positive [batch] or empty [zipf_kinds]. *)
