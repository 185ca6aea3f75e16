(** Ablations of the reproduction's own design knobs (DESIGN.md):

    - the mutant-enumeration cap: the systematic search is subsampled to a
      fixed candidate budget; this sweep shows how the budget trades
      allocation time against placement quality (admitted instances);
    - per-stage TCAM capacity: protection ranges are the admission
      bottleneck the paper calls out; this sweep shows concurrent cache
      capacity scaling with TCAM size;
    - allocation-granularity interaction with the heavy hitter's fixed
      byte demand (complements Figure 12). *)

val run_mutant_limit : ?n:int -> Rmt.Params.t -> unit
(** A1 over mutant budgets of 64, 256, 1024 and 4096 candidates. *)

val run_tcam : ?n:int -> Rmt.Params.t -> unit
(** A2 over 1536, 3072, 6144 and 12288 TCAM entries per stage. *)

val run_bandwidth : ?n:int -> Rmt.Params.t -> unit
(** A3: the bandwidth price of least-constrained placement — mean pipeline
    passes (and port recirculations) per cache query across co-resident
    instances under each policy. *)
