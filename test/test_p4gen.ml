(* Structural tests of the generated P4 runtime: every stage gets its
   register pool, stateful actions and decode table; every opcode gets an
   action; the parser unrolls to the configured depth; output is
   deterministic and scales with the device parameters. *)

module Emit = Activermt_p4gen.Emit
module I = Activermt.Instr

let cfg = Emit.default_config
let program = Emit.emit cfg

let count_occurrences hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub hay i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let contains hay needle = count_occurrences hay needle > 0

let test_deterministic () =
  Alcotest.(check string) "same output twice" program (Emit.emit cfg)

let test_register_per_stage () =
  Alcotest.(check int) "20 register pools" 20
    (count_occurrences program "Register<bit<32>, bit<32>>(65536)");
  for s = 0 to 19 do
    Alcotest.(check bool)
      (Printf.sprintf "heap_%d present" s)
      true
      (contains program (Printf.sprintf "heap_%d_minreadinc" s))
  done

let test_table_per_stage () =
  for s = 0 to 19 do
    Alcotest.(check bool)
      (Printf.sprintf "table instruction_%d" s)
      true
      (contains program (Printf.sprintf "table instruction_%d {" s))
  done;
  Alcotest.(check int) "exactly 20 tables" 20
    (count_occurrences program "table instruction_")

let test_action_per_opcode () =
  List.iter
    (fun i ->
      let name = Emit.opcode_action_name i in
      Alcotest.(check bool) name true (contains program ("action " ^ name)))
    I.all_opcodes

let test_branch_actions_parameterized () =
  Alcotest.(check bool) "cjump takes target" true
    (contains program "action act_cjump(bit<3> target)");
  Alcotest.(check bool) "addr_mask takes mask" true
    (contains program "action act_addr_mask_s0(bit<32> xmask)")

let test_parser_depth () =
  Alcotest.(check bool) "deepest state present" true
    (contains program (Printf.sprintf "state parse_instr_%d" (cfg.Emit.max_program_length - 1)));
  Alcotest.(check bool) "no state beyond depth" false
    (contains program (Printf.sprintf "state parse_instr_%d" cfg.Emit.max_program_length))

let test_protection_key () =
  Alcotest.(check int) "range match on MAR in every table" 20
    (count_occurrences program "meta.mar               : range")

let test_scales_with_params () =
  let small =
    {
      Emit.params = { cfg.Emit.params with Rmt.Params.logical_stages = 4;
                      Rmt.Params.ingress_stages = 2 };
      max_program_length = 8;
    }
  in
  let p = Emit.emit small in
  Alcotest.(check int) "4 tables" 4 (count_occurrences p "table instruction_");
  Alcotest.(check bool) "shorter parser" false (contains p "state parse_instr_8");
  Alcotest.(check bool) "smaller than default" true
    (String.length p < String.length program)

let test_pipeline_split () =
  Alcotest.(check bool) "ingress applies stage 0" true
    (contains program "instruction_0.apply()");
  Alcotest.(check bool) "egress applies stage 19" true
    (contains program "instruction_19.apply()");
  Alcotest.(check bool) "TNA scaffolding" true
    (contains program "Pipeline(ActiveParser(), ActiveIngress(), ActiveEgress())")

let test_balanced_braces () =
  let opens = count_occurrences program "{" and closes = count_occurrences program "}" in
  Alcotest.(check int) "balanced braces" opens closes

let () =
  Alcotest.run "p4gen"
    [
      ( "emit",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "register per stage" `Quick test_register_per_stage;
          Alcotest.test_case "table per stage" `Quick test_table_per_stage;
          Alcotest.test_case "action per opcode" `Quick test_action_per_opcode;
          Alcotest.test_case "parameterized actions" `Quick
            test_branch_actions_parameterized;
          Alcotest.test_case "parser depth" `Quick test_parser_depth;
          Alcotest.test_case "protection key" `Quick test_protection_key;
          Alcotest.test_case "scales with params" `Quick test_scales_with_params;
          Alcotest.test_case "pipeline split" `Quick test_pipeline_split;
          Alcotest.test_case "balanced braces" `Quick test_balanced_braces;
        ] );
    ]
