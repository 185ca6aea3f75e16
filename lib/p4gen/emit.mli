(** Generator for the ActiveRMT switch runtime as P4-16 (TNA).

    The paper's artifact is ≈10K lines of P4 implementing the shared
    runtime: parsers for the active headers, one large register extern per
    stage with the four stateful-ALU micro-programs, and per-stage
    match-action tables that decode instructions against FID, opcode, MAR
    bounds and the control flags.  This module emits an equivalent
    program from the same [Instr] set and [Rmt.Params] the simulator
    runs, so the OCaml model and the hardware artifact cannot drift
    apart.

    The output is structurally faithful TNA-style P4-16 (headers, parser
    states up to the maximum program length, registers + RegisterActions,
    an action per opcode, a table per logical stage, ingress/egress
    pipelines with recirculation) — a starting point for a hardware port;
    it has not been run through bf-p4c (no Tofino toolchain in this
    environment). *)

type config = {
  params : Rmt.Params.t;
  max_program_length : int;  (** instruction headers the parser unrolls *)
}

val default_config : config

val emit : config -> string
(** The complete P4 program text: headers, parser, one register extern +
    stateful actions per logical stage, one P4 action per opcode of the
    instruction set (generated from [Instr.all_opcodes], so adding an
    instruction updates the runtime), the per-stage tables and the
    pipelines.  Deterministic for a given config. *)

val opcode_action_name : Activermt.Instr.t -> string
(** The generated action's name for an instruction (stable API for
    tests and for control-plane entry generators). *)
