type budget = {
  physical_stages_per_direction : int;
  sram_blocks_per_stage : int;
  tcam_blocks_per_stage : int;
  decode_sram_blocks : int;
  decode_tcam_blocks : int;
}

let default_budget =
  {
    physical_stages_per_direction = 12;
    sram_blocks_per_stage = 80;
    tcam_blocks_per_stage = 24;
    decode_sram_blocks = 14;
    decode_tcam_blocks = 24;
  }

(* Availability is measured over the match-action units that execute
   program logic: SRAM left after decode tables, averaged with the fraction
   of action/ALU capacity the interpreter leaves free (it consumes none
   beyond decode).  TCAM is excluded from "available" on both sides of the
   comparison because the runtime claims all of it by design. *)
let activermt_stage_availability b =
  let sram_free =
    float_of_int (b.sram_blocks_per_stage - b.decode_sram_blocks)
    /. float_of_int b.sram_blocks_per_stage
  in
  sram_free

let native_cache_availability _b ~n_stages =
  (* Read-after-read: the key read cannot live in the last stage (no room
     for the dependent value read) and the value read cannot live in the
     first; a native program therefore strands ~half of each boundary
     stage. *)
  let usable = float_of_int n_stages -. (2.0 *. 0.75) in
  usable /. float_of_int n_stages

let netvrm_availability = 0.45

let monolithic_p4_capacity b ~stages_per_app =
  if stages_per_app <= 0 then invalid_arg "monolithic_p4_capacity";
  (* Isolated instances need disjoint register arrays but may co-reside in
     a stage up to its SRAM budget; the binding constraint is the chain of
     read-after-read dependencies, which strands one boundary stage per
     direction.  Each physical stage hosts both an ingress and an egress
     slot, so capacity per direction is (stages - 1) apps of any small
     [stages_per_app], matching the measured 22 for the 2-stage cache. *)
  let per_direction = (b.physical_stages_per_direction - 1) * 2 / stages_per_app in
  per_direction * 2

let activermt_theoretical_instances params = params.Params.words_per_stage

let phv_state_variables word_bits =
  if word_bits <= 0 then invalid_arg "phv_state_variables";
  (768 - 16) / word_bits
