type t = {
  logical_stages : int;
  ingress_stages : int;
  words_per_stage : int;
  blocks_per_stage : int;
  tcam_entries_per_stage : int;
  mar_bits : int;
  recirc_limit : int;
  pass_latency_us : float;
  wire_rtt_us : float;
}

let default =
  {
    logical_stages = 20;
    ingress_stages = 10;
    words_per_stage = 65536;
    blocks_per_stage = 256;
    tcam_entries_per_stage = 6144;
    mar_bits = 16;
    recirc_limit = 8;
    pass_latency_us = 0.5;
    wire_rtt_us = 10.0;
  }

let words_per_block t = t.words_per_stage / t.blocks_per_stage
let bytes_per_block t = 4 * words_per_block t
let with_blocks_per_stage t blocks = { t with blocks_per_stage = blocks }

let validate t =
  if t.logical_stages <= 0 then Error "logical_stages must be positive"
  else if t.ingress_stages <= 0 || t.ingress_stages > t.logical_stages then
    Error "ingress_stages must be in (0, logical_stages]"
  else if t.blocks_per_stage <= 0 then Error "blocks_per_stage must be positive"
  else if t.words_per_stage mod t.blocks_per_stage <> 0 then
    Error "words_per_stage must be a multiple of blocks_per_stage"
  else if t.words_per_stage > 1 lsl t.mar_bits then
    Error "mar_bits too small to address words_per_stage"
  else if t.recirc_limit < 0 then Error "recirc_limit must be non-negative"
  else if not (t.pass_latency_us >= 0.0 && t.pass_latency_us < Float.infinity) then
    Error "pass_latency_us must be finite and non-negative"
  else Ok t
