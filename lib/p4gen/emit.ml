module I = Activermt.Instr

type config = { params : Rmt.Params.t; max_program_length : int }

let default_config = { params = Rmt.Params.default; max_program_length = 48 }

(* The port an unfinished program recirculates through. *)
let recirculation_port = 68

let line b s =
  Buffer.add_string b s;
  Buffer.add_char b '\n'

(* -- action naming --------------------------------------------------------- *)

let opcode_action_name (instr : I.t) =
  match instr with
  | I.Mbr_load a -> Printf.sprintf "act_mbr_load_%d" (I.arg_index a)
  | I.Mbr_store a -> Printf.sprintf "act_mbr_store_%d" (I.arg_index a)
  | I.Mbr2_load a -> Printf.sprintf "act_mbr2_load_%d" (I.arg_index a)
  | I.Mar_load a -> Printf.sprintf "act_mar_load_%d" (I.arg_index a)
  | I.Mbr_equals_data a -> Printf.sprintf "act_mbr_equals_data_%d" (I.arg_index a)
  | I.Cjump _ -> "act_cjump"
  | I.Cjumpi _ -> "act_cjumpi"
  | I.Ujump _ -> "act_ujump"
  | other ->
    let m = String.lowercase_ascii (I.mnemonic other) in
    "act_" ^ String.map (fun c -> if c = ' ' then '_' else c) m

(* Representative opcodes, deduplicated by action name (branch targets are
   action data, not distinct actions). *)
let distinct_actions () =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun i ->
      let n = opcode_action_name i in
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.add seen n ();
        true
      end)
    I.all_opcodes

let is_stage_local (i : I.t) =
  I.is_memory_access i || i = I.Addr_mask || i = I.Addr_offset || i = I.Hash

(* -- headers ---------------------------------------------------------------- *)

let emit_headers cfg =
  let b = Buffer.create 2048 in
  line b "/* ---- active packet headers (Section 3.3) ---- */";
  line b "";
  line b "header ethernet_h {";
  line b "    bit<48> dst_addr;";
  line b "    bit<48> src_addr;";
  line b "    bit<16> ether_type;";
  line b "}";
  line b "";
  line b "header active_initial_h {";
  line b "    bit<16> fid;";
  line b "    bit<8>  flags;       /* type[1:0], elastic, virtual, ack */";
  line b "    bit<32> seq;";
  line b "    bit<8>  prog_len;";
  line b "    bit<8>  rts_pos;";
  line b "    bit<8>  n_accesses;";
  line b "}";
  line b "";
  line b "header active_args_h {";
  line b "    bit<32> data0;";
  line b "    bit<32> data1;";
  line b "    bit<32> data2;";
  line b "    bit<32> data3;";
  line b "}";
  line b "";
  line b "header active_instruction_h {";
  line b "    bit<8> opcode;";
  line b "    bit<8> flags;        /* executed, label+1[3:1], target[6:4] */";
  line b "}";
  line b "";
  line b "header allocation_request_h {";
  line b "    bit<192> constraints; /* eight 3-byte access entries */";
  line b "}";
  line b "";
  line b
    (Printf.sprintf
       "header allocation_response_h { bit<%d> regions; } /* %d x 8-byte stage records */"
       (8 * (1 + (8 * cfg.params.Rmt.Params.logical_stages)))
       cfg.params.Rmt.Params.logical_stages);
  line b "";
  line b "struct active_headers_t {";
  line b "    ethernet_h ethernet;";
  line b "    active_initial_h initial;";
  line b "    allocation_request_h alloc_req;";
  line b "    allocation_response_h alloc_resp;";
  line b "    active_args_h args;";
  line b (Printf.sprintf "    active_instruction_h[%d] instr;" cfg.max_program_length);
  line b "}";
  line b "";
  line b "struct active_metadata_t {";
  line b "    bit<32> mar;";
  line b "    bit<32> mbr;";
  line b "    bit<32> mbr2;";
  line b "    bit<32> hd0;";
  line b "    bit<32> hd1;";
  line b "    bit<1>  complete;";
  line b "    bit<1>  disabled;";
  line b "    bit<3>  branch_target;";
  line b "    bit<1>  rts;";
  line b "    bit<1>  quiesced;";
  line b "    bit<8>  pc;";
  line b "}";
  Buffer.contents b

(* -- parser ----------------------------------------------------------------- *)

let emit_parser cfg =
  let b = Buffer.create 4096 in
  line b "parser ActiveParser(packet_in pkt, out active_headers_t hdr,";
  line b "                    out active_metadata_t meta,";
  line b "                    out ingress_intrinsic_metadata_t ig_intr_md) {";
  line b "    state start {";
  line b "        pkt.extract(ig_intr_md);";
  line b "        pkt.advance(PORT_METADATA_SIZE);";
  line b "        pkt.extract(hdr.ethernet);";
  line b "        transition select(hdr.ethernet.ether_type) {";
  line b "            0x83b2: parse_active;   /* the layer-2 encapsulation */";
  line b "            default: accept;";
  line b "        }";
  line b "    }";
  line b "    state parse_active {";
  line b "        pkt.extract(hdr.initial);";
  line b "        transition select(hdr.initial.flags[1:0]) {";
  line b "            0: parse_alloc_request;";
  line b "            1: parse_alloc_response;";
  line b "            2: parse_program;";
  line b "            3: accept;              /* bare control packet */";
  line b "        }";
  line b "    }";
  line b "    state parse_alloc_request {";
  line b "        pkt.extract(hdr.alloc_req);";
  line b "        transition accept;";
  line b "    }";
  line b "    state parse_alloc_response {";
  line b "        pkt.extract(hdr.alloc_resp);";
  line b "        transition accept;";
  line b "    }";
  line b "    state parse_program {";
  line b "        pkt.extract(hdr.args);";
  line b "        transition parse_instr_0;";
  line b "    }";
  for i = 0 to cfg.max_program_length - 1 do
    line b (Printf.sprintf "    state parse_instr_%d {" i);
    line b (Printf.sprintf "        pkt.extract(hdr.instr[%d]);" i);
    line b (Printf.sprintf "        transition select(hdr.instr[%d].opcode) {" i);
    line b "            0x00: accept;        /* EOF */";
    if i < cfg.max_program_length - 1 then
      line b (Printf.sprintf "            default: parse_instr_%d;" (i + 1))
    else line b "            default: accept; /* program truncated at parser depth */";
    line b "        }";
    line b "    }"
  done;
  line b "}";
  Buffer.contents b

(* -- registers -------------------------------------------------------------- *)

let emit_registers cfg =
  let b = Buffer.create 8192 in
  let words = cfg.params.Rmt.Params.words_per_stage in
  line b "/* ---- per-stage register pools and stateful-ALU micro-programs ---- */";
  for s = 0 to cfg.params.Rmt.Params.logical_stages - 1 do
    line b "";
    line b (Printf.sprintf "Register<bit<32>, bit<32>>(%d) heap_%d;" words s);
    line b (Printf.sprintf
              "RegisterAction<bit<32>, bit<32>, bit<32>>(heap_%d) heap_%d_read = {" s s);
    line b "    void apply(inout bit<32> obj, out bit<32> rv) { rv = obj; }";
    line b "};";
    line b (Printf.sprintf
              "RegisterAction<bit<32>, bit<32>, bit<32>>(heap_%d) heap_%d_write = {" s s);
    line b "    void apply(inout bit<32> obj, out bit<32> rv) { obj = meta.mbr; rv = obj; }";
    line b "};";
    line b (Printf.sprintf
              "RegisterAction<bit<32>, bit<32>, bit<32>>(heap_%d) heap_%d_increment = {" s s);
    line b "    void apply(inout bit<32> obj, out bit<32> rv) { obj = obj + 1; rv = obj; }";
    line b "};";
    line b (Printf.sprintf
              "RegisterAction<bit<32>, bit<32>, bit<32>>(heap_%d) heap_%d_minread = {" s s);
    line b "    void apply(inout bit<32> obj, out bit<32> rv) {";
    line b "        rv = min(obj, meta.mbr);";
    line b "    }";
    line b "};";
    line b (Printf.sprintf
              "RegisterAction<bit<32>, bit<32>, bit<32>>(heap_%d) heap_%d_minreadinc = {" s s);
    line b "    void apply(inout bit<32> obj, out bit<32> rv) {";
    line b "        obj = obj + 1;";
    line b "        rv = obj;";
    line b "    }";
    line b "};"
  done;
  Buffer.contents b

(* -- instruction actions ----------------------------------------------------- *)

let action_body (i : I.t) ~stage =
  let mem regact = [ Printf.sprintf "meta.mbr = heap_%d_%s.execute(meta.mar);" stage regact ] in
  match i with
  | I.Mbr_load a -> [ Printf.sprintf "meta.mbr = hdr.args.data%d;" (I.arg_index a) ]
  | I.Mbr_store a -> [ Printf.sprintf "hdr.args.data%d = meta.mbr;" (I.arg_index a) ]
  | I.Mbr2_load a -> [ Printf.sprintf "meta.mbr2 = hdr.args.data%d;" (I.arg_index a) ]
  | I.Mar_load a -> [ Printf.sprintf "meta.mar = hdr.args.data%d;" (I.arg_index a) ]
  | I.Copy_mbr_mbr2 -> [ "meta.mbr = meta.mbr2;" ]
  | I.Copy_mbr2_mbr -> [ "meta.mbr2 = meta.mbr;" ]
  | I.Copy_mbr_mar -> [ "meta.mbr = meta.mar;" ]
  | I.Copy_mar_mbr -> [ "meta.mar = meta.mbr;" ]
  | I.Copy_hashdata_mbr -> [ "meta.hd0 = meta.mbr;" ]
  | I.Copy_hashdata_mbr2 -> [ "meta.hd1 = meta.mbr2;" ]
  | I.Hashdata_load_5tuple ->
    [ "meta.hd0 = meta.flow_key0;"; "meta.hd1 = meta.flow_key1;" ]
  | I.Mbr_add_mbr2 -> [ "meta.mbr = meta.mbr + meta.mbr2;" ]
  | I.Mar_add_mbr -> [ "meta.mar = meta.mar + meta.mbr;" ]
  | I.Mar_add_mbr2 -> [ "meta.mar = meta.mar + meta.mbr2;" ]
  | I.Mar_mbr_add_mbr2 -> [ "meta.mar = meta.mbr + meta.mbr2;" ]
  | I.Mbr_subtract_mbr2 -> [ "meta.mbr = meta.mbr - meta.mbr2;" ]
  | I.Bit_and_mar_mbr -> [ "meta.mar = meta.mar & meta.mbr;" ]
  | I.Bit_or_mbr_mbr2 -> [ "meta.mbr = meta.mbr | meta.mbr2;" ]
  | I.Mbr_equals_mbr2 -> [ "meta.mbr = meta.mbr ^ meta.mbr2;" ]
  | I.Mbr_equals_data a ->
    [ Printf.sprintf "meta.mbr = meta.mbr ^ hdr.args.data%d;" (I.arg_index a) ]
  | I.Max -> [ "meta.mbr = max(meta.mbr, meta.mbr2);" ]
  | I.Min -> [ "meta.mbr = min(meta.mbr, meta.mbr2);" ]
  | I.Revmin -> [ "meta.mbr2 = min(meta.mbr, meta.mbr2);" ]
  | I.Swap_mbr_mbr2 ->
    [ "bit<32> tmp = meta.mbr;"; "meta.mbr = meta.mbr2;"; "meta.mbr2 = tmp;" ]
  | I.Mbr_not -> [ "meta.mbr = ~meta.mbr;" ]
  | I.Return -> [ "meta.complete = 1;" ]
  | I.Cret -> [ "if (meta.mbr != 0) { meta.complete = 1; }" ]
  | I.Creti -> [ "if (meta.mbr == 0) { meta.complete = 1; }" ]
  | I.Cjump _ ->
    [ "if (meta.mbr != 0) { meta.disabled = 1; meta.branch_target = target; }" ]
  | I.Cjumpi _ ->
    [ "if (meta.mbr == 0) { meta.disabled = 1; meta.branch_target = target; }" ]
  | I.Ujump _ -> [ "meta.disabled = 1; meta.branch_target = target;" ]
  | I.Mem_write -> mem "write"
  | I.Mem_read -> mem "read"
  | I.Mem_increment -> mem "increment"
  | I.Mem_minread -> mem "minread"
  | I.Mem_minreadinc ->
    mem "minreadinc" @ [ "meta.mbr2 = min(meta.mbr, meta.mbr2);" ]
  | I.Drop -> [ "ig_dprsr_md.drop_ctl = 1;"; "meta.complete = 1;" ]
  | I.Fork -> [ "ig_tm_md.copy_to_cpu = 0; /* clone session set by control plane */" ]
  | I.Set_dst -> [ "ig_tm_md.ucast_egress_port = (PortId_t) meta.mbr[8:0];" ]
  | I.Rts ->
    [
      "bit<48> mac_tmp = hdr.ethernet.dst_addr;";
      "hdr.ethernet.dst_addr = hdr.ethernet.src_addr;";
      "hdr.ethernet.src_addr = mac_tmp;";
      "meta.rts = 1;";
    ]
  | I.Crts -> [ "if (meta.mbr != 0) { meta.rts = 1; }" ]
  | I.Eof -> [ "meta.complete = 1;" ]
  | I.Nop -> [ "/* no operation */" ]
  | I.Addr_mask -> [ "meta.mar = meta.mar & xmask; /* action data from the table entry */" ]
  | I.Addr_offset -> [ "meta.mar = meta.mar + xoffset;" ]
  | I.Hash -> [ Printf.sprintf "meta.mar = hash_%d.get({meta.hd0, meta.hd1});" stage ]

let action_params (i : I.t) =
  match i with
  | I.Cjump _ | I.Cjumpi _ | I.Ujump _ -> "(bit<3> target)"
  | I.Addr_mask -> "(bit<32> xmask)"
  | I.Addr_offset -> "(bit<32> xoffset)"
  | _ -> "()"

let emit_instruction_actions cfg =
  let b = Buffer.create 16384 in
  line b "/* ---- one action per opcode; memory/hash opcodes are stage-local ---- */";
  let emit_action ~stage i =
    let suffix = if is_stage_local i then Printf.sprintf "_s%d" stage else "" in
    line b (Printf.sprintf "action %s%s%s {" (opcode_action_name i) suffix (action_params i));
    List.iter (fun stmt -> line b ("    " ^ stmt)) (action_body i ~stage);
    line b "}"
  in
  let actions = distinct_actions () in
  List.iter (fun i -> if not (is_stage_local i) then emit_action ~stage:0 i) actions;
  for s = 0 to cfg.params.Rmt.Params.logical_stages - 1 do
    line b "";
    line b (Printf.sprintf "/* stage %d memory and hash actions */" s);
    line b (Printf.sprintf
              "Hash<bit<32>>(HashAlgorithm_t.CRC32, poly_stage_%d) hash_%d;" s s);
    List.iter (fun i -> if is_stage_local i then emit_action ~stage:s i) actions
  done;
  Buffer.contents b

(* -- stage tables ------------------------------------------------------------ *)

let emit_stage_tables cfg =
  let b = Buffer.create 8192 in
  let actions = distinct_actions () in
  line b "/* ---- per-stage instruction decode + memory protection ---- */";
  for s = 0 to cfg.params.Rmt.Params.logical_stages - 1 do
    line b "";
    line b (Printf.sprintf "table instruction_%d {" s);
    line b "    key = {";
    line b "        hdr.initial.fid        : exact;";
    line b (Printf.sprintf "        hdr.instr[%d].opcode   : exact;" s);
    line b "        meta.mar               : range;   /* memory protection */";
    line b "        meta.complete          : exact;";
    line b "        meta.disabled          : exact;";
    line b (Printf.sprintf "        hdr.instr[%d].flags    : ternary; /* label matching */" s);
    line b "    }";
    line b "    actions = {";
    List.iter
      (fun i ->
        let suffix = if is_stage_local i then Printf.sprintf "_s%d" s else "" in
        line b (Printf.sprintf "        %s%s;" (opcode_action_name i) suffix))
      actions;
    line b "        NoAction;";
    line b "    }";
    line b "    default_action = NoAction();";
    line b (Printf.sprintf "    size = %d;" cfg.params.Rmt.Params.tcam_entries_per_stage);
    line b "}"
  done;
  Buffer.contents b

(* -- pipeline ----------------------------------------------------------------- *)

let emit_pipeline cfg =
  let b = Buffer.create 4096 in
  let n = cfg.params.Rmt.Params.logical_stages in
  let ingress = cfg.params.Rmt.Params.ingress_stages in
  line b "control ActiveIngress(inout active_headers_t hdr,";
  line b "                      inout active_metadata_t meta,";
  line b "                      in ingress_intrinsic_metadata_t ig_intr_md,";
  line b "                      inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,";
  line b "                      inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {";
  line b "    apply {";
  line b "        if (hdr.initial.isValid() && meta.quiesced == 0) {";
  for s = 0 to ingress - 1 do
    line b (Printf.sprintf "            instruction_%d.apply();" s)
  done;
  line b "            if (meta.rts == 1) {";
  line b "                ig_tm_md.ucast_egress_port = ig_intr_md.ingress_port;";
  line b "            }";
  line b "        }";
  line b "    }";
  line b "}";
  line b "";
  line b "control ActiveEgress(inout active_headers_t hdr,";
  line b "                     inout active_metadata_t meta,";
  line b "                     inout egress_intrinsic_metadata_for_deparser_t eg_dprsr_md) {";
  line b "    apply {";
  line b "        if (hdr.initial.isValid() && meta.quiesced == 0) {";
  for s = ingress to n - 1 do
    line b (Printf.sprintf "            instruction_%d.apply();" s)
  done;
  line b "            if (meta.complete == 0) {";
  line b (Printf.sprintf
            "                /* program continues: recirculate via port %d */"
            recirculation_port);
  line b "            }";
  line b "        }";
  line b "    }";
  line b "}";
  line b "";
  line b "Pipeline(ActiveParser(), ActiveIngress(), ActiveEgress()) pipe;";
  line b "Switch(pipe) main;";
  Buffer.contents b

let emit cfg =
  let b = Buffer.create 65536 in
  line b "/* ActiveRMT shared runtime — generated by activermt.p4gen.";
  line b "   Memory Management in ActiveRMT (SIGCOMM 2023), OCaml reproduction.";
  line b (Printf.sprintf
            "   %d logical stages (%d ingress), %d words/stage, parser depth %d. */"
            cfg.params.Rmt.Params.logical_stages cfg.params.Rmt.Params.ingress_stages
            cfg.params.Rmt.Params.words_per_stage cfg.max_program_length);
  line b "";
  line b "#include <core.p4>";
  line b "#include <tna.p4>";
  line b "";
  Buffer.add_string b (emit_headers cfg);
  Buffer.add_char b '\n';
  Buffer.add_string b (emit_parser cfg);
  Buffer.add_char b '\n';
  Buffer.add_string b (emit_registers cfg);
  Buffer.add_char b '\n';
  Buffer.add_string b (emit_instruction_actions cfg);
  Buffer.add_char b '\n';
  Buffer.add_string b (emit_stage_tables cfg);
  Buffer.add_char b '\n';
  Buffer.add_string b (emit_pipeline cfg);
  Buffer.contents b
