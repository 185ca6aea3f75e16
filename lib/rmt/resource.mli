(** Static resource-overhead model backing the Section 5 comparisons.

    These are architectural accounting computations (how many apps fit, how
    much of a stage's match-action resources remain usable), not dynamic
    simulation.  The Tofino-specific unit budgets are inputs documented in
    DESIGN.md; everything derived is computed here so the comparisons can
    be regenerated and varied. *)

type budget = {
  physical_stages_per_direction : int;
      (** physical match-action stages per traversal direction (12) *)
  sram_blocks_per_stage : int;  (** unit SRAM blocks per stage (80) *)
  tcam_blocks_per_stage : int;  (** unit TCAM blocks per stage (24) *)
  decode_sram_blocks : int;  (** SRAM the ActiveRMT decode tables occupy *)
  decode_tcam_blocks : int;  (** TCAM the decode + protection tables occupy *)
}

val default_budget : budget

val activermt_stage_availability : budget -> float
(** Fraction of a stage's match-action resources left for active-program
    execution after the shared runtime's decode/protection overhead; the
    paper reports 83%. *)

val native_cache_availability : budget -> n_stages:int -> float
(** Even a native P4 cache cannot use the first and last stage fully due
    to read-after-read dependencies (~92% with 20 usable stages). *)

val netvrm_availability : float
(** NetVRM's published virtualization overhead leaves <50% of stage
    resources usable; constant from [47] as cited in Section 5. *)

val monolithic_p4_capacity : budget -> stages_per_app:int -> int
(** Maximum isolated instances of a [stages_per_app]-stage app a single
    monolithic P4 image fits across both traversal directions; the paper
    measures 22 for the 2-stage minimal cache. *)

val activermt_theoretical_instances : Params.t -> int
(** Upper bound on co-resident instances of one mutant when regions shrink
    to a single word: the per-stage word count (94K on the paper's
    hardware; 64K with our default parameters). *)

val phv_state_variables : int -> int
(** [phv_state_variables word_bits] — Section 7.1's trade-off: the shared
    internal state (MAR, MBR, MBR2, hash data, program arguments, control
    flags) lives in PHV containers of limited total size, so wider memory
    words mean fewer state variables.  The budget is 768 bits (the share
    of a Tofino PHV the runtime can bridge through the pipeline), of which
    16 are reserved for control flags. *)
