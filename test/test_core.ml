(* Tests for the ActiveRMT core library: instruction set, wire codec,
   program validation, active-packet formats, match tables and the
   data-plane interpreter. *)

module I = Activermt.Instr
module P = Activermt.Program
module W = Activermt.Wire
module Pkt = Activermt.Packet
module Tbl = Activermt.Table
module RT = Activermt.Runtime

let params = Rmt.Params.default

(* -- Instr --------------------------------------------------------------- *)

let test_mnemonic_roundtrip () =
  List.iter
    (fun instr ->
      match I.of_mnemonic (I.mnemonic instr) with
      | Ok back -> Alcotest.(check bool) (I.mnemonic instr) true (I.equal instr back)
      | Error e -> Alcotest.fail (I.mnemonic instr ^ ": " ^ e))
    I.all_opcodes

let test_mnemonic_case_insensitive () =
  match I.of_mnemonic "mem_read" with
  | Ok I.Mem_read -> ()
  | _ -> Alcotest.fail "lowercase mnemonic"

let test_mnemonic_errors () =
  let expect_error s =
    match I.of_mnemonic s with
    | Ok _ -> Alcotest.fail ("parsed bogus " ^ s)
    | Error _ -> ()
  in
  List.iter expect_error
    [ "FROBNICATE"; "MBR_LOAD"; "MBR_LOAD 4"; "CJUMP"; "CJUMP L9"; "NOP 3"; "" ]

let test_cret1_alias () =
  match I.of_mnemonic "CRET1" with
  | Ok I.Creti -> ()
  | _ -> Alcotest.fail "CRET1 (paper spelling) should parse as CRETI"

let test_memory_access_classification () =
  let memory = List.filter I.is_memory_access I.all_opcodes in
  Alcotest.(check int) "exactly five memory opcodes" 5 (List.length memory)

let test_needs_ingress () =
  Alcotest.(check bool) "rts" true (I.needs_ingress I.Rts);
  Alcotest.(check bool) "crts" true (I.needs_ingress I.Crts);
  Alcotest.(check bool) "mem_read" false (I.needs_ingress I.Mem_read)

let test_branch_target () =
  Alcotest.(check (option int)) "cjump" (Some 3) (I.branch_target (I.Cjump 3));
  Alcotest.(check (option int)) "ujump" (Some 0) (I.branch_target (I.Ujump 0));
  Alcotest.(check (option int)) "nop" None (I.branch_target I.Nop)

let test_arg_index () =
  Alcotest.(check (option int)) "oob" None (Option.map I.arg_index (I.arg_of_index 4));
  List.iter
    (fun i ->
      match I.arg_of_index i with
      | Some a -> Alcotest.(check int) "roundtrip" i (I.arg_index a)
      | None -> Alcotest.fail "in range")
    [ 0; 1; 2; 3 ]

(* -- Wire ---------------------------------------------------------------- *)

let test_wire_roundtrip_all () =
  List.iter
    (fun instr ->
      List.iter
        (fun (label, executed) ->
          let line = { P.instr; label } in
          let opcode, flag = W.encode ~executed line in
          match W.decode ~opcode ~flag with
          | Ok d ->
            Alcotest.(check bool) "instr" true (I.equal d.W.line.P.instr instr);
            Alcotest.(check (option int)) "label" label d.W.line.P.label;
            Alcotest.(check bool) "executed" executed d.W.executed
          | Error e -> Alcotest.fail e)
        [ (None, false); (Some 0, true); (Some 6, false) ])
    I.all_opcodes

let test_wire_unknown_opcode () =
  match W.decode ~opcode:0xFE ~flag:0 with
  | Ok _ -> Alcotest.fail "decoded garbage"
  | Error _ -> ()

let test_wire_program_roundtrip () =
  let prog =
    P.v
      [
        P.line (I.Mar_load I.A0);
        P.line I.Mem_read;
        P.line ~label:2 I.Nop;
        P.line (I.Cjump 2);
        P.line I.Return;
      ]
  in
  (* Structurally invalid (backward jump) but the codec does not care;
     validation is a separate concern. *)
  let b = W.encode_program prog in
  Alcotest.(check int) "2 bytes per instr + EOF" 12 (Bytes.length b);
  match W.decode_program b ~off:0 with
  | Ok (back, marks, fin) ->
    Alcotest.(check bool) "programs equal" true (P.equal prog back);
    Alcotest.(check int) "consumed all" (Bytes.length b) fin;
    Alcotest.(check int) "marks per line" 5 (Array.length marks)
  | Error e -> Alcotest.fail e

(* No complete program at [off]: the bytes end first, or [off] lies
   outside them — a negative offset used to index before the start, and
   [max_int + 2] wrapped past the length check. *)
let test_wire_truncated () =
  let prog = W.encode_program (P.v (P.plain [ I.Nop; I.Return ])) in
  let n = Bytes.length prog in
  List.iter
    (fun (b, off) ->
      match W.decode_program b ~off with
      | Ok _ -> Alcotest.failf "decoded at offset %d of %d bytes" off (Bytes.length b)
      | Error _ -> ())
    ((Bytes.make 3 '\001', 0)
    :: List.map (fun off -> (prog, off)) [ -1; -2; min_int; n - 1; n; max_int - 1; max_int ])

(* -- Program ------------------------------------------------------------- *)

let listing1 = Activermt_apps.Cache.query_program

let test_listing1_structure () =
  Alcotest.(check int) "11 instructions" 11 (P.length listing1);
  Alcotest.(check (list int)) "accesses at paper's lines 2,5,9 (0-based)"
    [ 1; 4; 8 ]
    (P.memory_access_positions listing1);
  Alcotest.(check (option int)) "RTS at line 8 (0-based 7)" (Some 7)
    (P.rts_position listing1)

let test_parse_backward_jump () =
  match
    P.parse "  MBR_LOAD 0 // load\n; full-line comment\nL1: NOP\nCJUMPI L1\n"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "backward jump should not validate"

(* Label digits that overflow an int are a parse error, not a raise. *)
let test_parse_huge_label () =
  match P.parse "L99999999999999999999: NOP\nRETURN\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an out-of-range label"

let test_parse_forward_label () =
  match P.parse "MBR_LOAD 0\nCJUMP L1\nNOP\nL1: RETURN\n" with
  | Ok p -> Alcotest.(check int) "4 instructions" 4 (P.length p)
  | Error e -> Alcotest.fail e

let test_validate_duplicate_label () =
  let p = P.v [ P.line ~label:1 I.Nop; P.line ~label:1 I.Return ] in
  match P.validate p with
  | Error (P.Duplicate_label 1) -> ()
  | Error e -> Alcotest.fail (P.error_to_string e)
  | Ok _ -> Alcotest.fail "accepted duplicate label"

let test_validate_embedded_eof () =
  let p = P.v [ P.line I.Eof; P.line I.Return ] in
  match P.validate p with
  | Error (P.Embedded_eof 0) -> ()
  | _ -> Alcotest.fail "accepted embedded EOF"

let test_validate_unreachable () =
  let p = P.v [ P.line I.Return; P.line I.Mem_read ] in
  match P.validate p with
  | Error (P.Unreachable_after_return 0) -> ()
  | _ -> Alcotest.fail "accepted dead code"

let test_validate_trailing_padding_ok () =
  let p = P.v [ P.line I.Return; P.line I.Nop; P.line I.Nop ] in
  match P.validate p with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (P.error_to_string e)

let test_assembly_roundtrip () =
  let text = P.to_assembly listing1 in
  match P.parse text with
  | Ok p -> Alcotest.(check bool) "equal" true (P.equal p listing1)
  | Error e -> Alcotest.fail e

let instr_gen =
  (* No branches: random label placement rarely validates; branch handling
     is covered by directed tests. *)
  let pool =
    List.filter (fun i -> I.branch_target i = None && i <> I.Eof) I.all_opcodes
  in
  QCheck.Gen.oneofl pool

let prop_program_wire_roundtrip =
  QCheck.Test.make ~name:"program -> wire -> program" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) instr_gen))
    (fun instrs ->
      let p = P.v (P.plain instrs) in
      match W.decode_program (W.encode_program p) ~off:0 with
      | Ok (back, _, _) -> P.equal p back
      | Error _ -> false)

let prop_assembly_roundtrip =
  QCheck.Test.make ~name:"program -> assembly -> program" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) instr_gen))
    (fun instrs ->
      let p = P.v (P.plain instrs) in
      match P.parse (P.to_assembly p) with
      | Ok back -> P.equal p back
      | Error _ ->
        (* Dead code after RETURN is a legitimate validation failure for
           random programs. *)
        List.exists (fun i -> i = I.Return) instrs)

(* -- Packet -------------------------------------------------------------- *)

let roundtrip pkt =
  match Pkt.decode (Pkt.encode pkt) with
  | Ok p -> p
  | Error e -> Alcotest.failf "decode: %s" e

let test_packet_bare () =
  let pkt = { Pkt.fid = 300; seq = 12; flags = Pkt.no_flags; payload = Pkt.Bare } in
  let b = Pkt.encode pkt in
  Alcotest.(check int) "10-byte initial header" 10 (Bytes.length b);
  let back = roundtrip pkt in
  Alcotest.(check int) "fid" 300 back.Pkt.fid;
  Alcotest.(check int) "seq" 12 back.Pkt.seq

let test_packet_flags () =
  let flags = { Pkt.elastic = true; virtual_addressing = true; ack = true } in
  let pkt = { Pkt.fid = 1; seq = 0; flags; payload = Pkt.Bare } in
  let back = roundtrip pkt in
  Alcotest.(check bool) "elastic" true back.Pkt.flags.Pkt.elastic;
  Alcotest.(check bool) "virtual" true back.Pkt.flags.Pkt.virtual_addressing;
  Alcotest.(check bool) "ack" true back.Pkt.flags.Pkt.ack

let test_packet_request_roundtrip () =
  let request =
    {
      Pkt.prog_length = 11;
      rts_position = Some 7;
      accesses =
        [
          { Pkt.position = 1; min_gap = 2; demand_blocks = 1 };
          { Pkt.position = 4; min_gap = 3; demand_blocks = 2 };
          { Pkt.position = 8; min_gap = 4; demand_blocks = 16 };
        ];
    }
  in
  let pkt =
    { Pkt.fid = 7; seq = 1; flags = Pkt.no_flags; payload = Pkt.Request request }
  in
  let b = Pkt.encode pkt in
  Alcotest.(check int) "10 + 24 bytes" 34 (Bytes.length b);
  match (roundtrip pkt).Pkt.payload with
  | Pkt.Request r ->
    Alcotest.(check int) "length" 11 r.Pkt.prog_length;
    Alcotest.(check (option int)) "rts" (Some 7) r.Pkt.rts_position;
    Alcotest.(check int) "accesses" 3 (List.length r.Pkt.accesses);
    Alcotest.(check int) "demand" 16 (List.nth r.Pkt.accesses 2).Pkt.demand_blocks
  | _ -> Alcotest.fail "wrong payload"

let test_packet_response_roundtrip () =
  let regions = Array.make 20 None in
  regions.(3) <- Some { Pkt.start_word = 1024; n_words = 4096 };
  regions.(19) <- Some { Pkt.start_word = 0; n_words = 65536 };
  let pkt =
    {
      Pkt.fid = 9;
      seq = 2;
      flags = Pkt.no_flags;
      payload = Pkt.Response { status = Pkt.Granted; regions };
    }
  in
  let b = Pkt.encode pkt in
  Alcotest.(check int) "10 + 161 bytes" 171 (Bytes.length b);
  match (roundtrip pkt).Pkt.payload with
  | Pkt.Response r ->
    Alcotest.(check bool) "granted" true (r.Pkt.status = Pkt.Granted);
    (match r.Pkt.regions.(3) with
    | Some { Pkt.start_word; n_words } ->
      Alcotest.(check int) "start" 1024 start_word;
      Alcotest.(check int) "len" 4096 n_words
    | None -> Alcotest.fail "lost region");
    Alcotest.(check bool) "empty stage stays empty" true (r.Pkt.regions.(0) = None)
  | _ -> Alcotest.fail "wrong payload"

let test_packet_exec_roundtrip () =
  let pkt = Pkt.exec ~fid:5 ~seq:3 ~args:[| 10; 20 |] listing1 in
  (match pkt.Pkt.payload with
  | Pkt.Exec { args; _ } ->
    Alcotest.(check (array int)) "padded args" [| 10; 20; 0; 0 |] args
  | _ -> Alcotest.fail "constructor");
  match (roundtrip pkt).Pkt.payload with
  | Pkt.Exec { args; program } ->
    Alcotest.(check (array int)) "args" [| 10; 20; 0; 0 |] args;
    Alcotest.(check bool) "program" true (P.equal program listing1)
  | _ -> Alcotest.fail "wrong payload"

let test_packet_wire_size () =
  let pkt = Pkt.exec ~fid:5 ~seq:3 ~args:[||] listing1 in
  Alcotest.(check int) "wire_size = encode length"
    (Bytes.length (Pkt.encode pkt))
    (Pkt.wire_size ~stages:20 pkt)

let test_packet_short () =
  match Pkt.decode (Bytes.make 4 '\000') with
  | Ok _ -> Alcotest.fail "decoded short packet"
  | Error _ -> ()

let test_packet_too_many_args () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Pkt.exec ~fid:1 ~seq:0 ~args:(Array.make 5 0) listing1);
       false
     with Invalid_argument _ -> true)

let prop_packet_decode_never_raises =
  QCheck.Test.make ~name:"decode on arbitrary bytes never raises" ~count:500
    QCheck.(string_of_size Gen.(int_range 0 120))
    (fun s ->
      match Pkt.decode (Bytes.of_string s) with Ok _ | Error _ -> true)

(* Mutations of a valid input: overwrite, delete or insert bytes, with
   insertions drawn from fragments the parsers branch on (label and
   comment syntax, digit runs past [max_int], operands). *)
let mutate_gen base =
  let open QCheck.Gen in
  let fragment =
    oneof
      [
        string_size ~gen:char (int_range 0 4);
        oneofl
          [
            "L"; ":"; "L1:"; "L99999999999999999999:"; "99999999999999999999";
            "-1"; " 0"; " 7"; "//"; ";"; "\n"; "\000"; "\255"; "CJUMP L3";
            "MBR_LOAD"; "EOF";
          ];
      ]
  in
  let edit s =
    let n = String.length s in
    int_range 0 (max 0 n) >>= fun i ->
    int_range 0 (min 4 (n - i)) >>= fun k ->
    oneof
      [
        map (fun f -> String.sub s 0 i ^ f ^ String.sub s i (n - i)) fragment;
        return (String.sub s 0 i ^ String.sub s (i + k) (n - i - k));
        map
          (fun c ->
            if i = n then s
            else String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1))
          char;
      ]
  in
  int_range 1 4 >>= fun edits ->
  let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
  go edits base

let never_raises f x = match f x with Ok _ | Error _ -> true

(* Arbitrary bytes at arbitrary offsets, in and out of range. *)
let prop_decode_program_never_raises =
  QCheck.Test.make ~name:"decode_program never raises" ~count:1000
    (QCheck.make
       ~print:(fun (s, off) -> Printf.sprintf "%S ~off:%d" s off)
       QCheck.Gen.(
         string_size ~gen:char (int_range 0 40) >>= fun s ->
         let n = String.length s in
         pair (return s)
           (frequency
              [ (9, int_range (-3) (n + 3)); (1, oneofl [ max_int; max_int - 1; min_int ]) ])))
    (fun (s, off) ->
      never_raises (fun off -> W.decode_program (Bytes.of_string s) ~off) off)

let frame_gen =
  QCheck.Gen.(
    pair (string_size ~gen:char (int_range 0 24)) (option (pair int int))
    >>= fun (payload, trace) ->
    let trace =
      Option.map (fun (trace_id, span_id) -> { W.trace_id; span_id }) trace
    in
    let framed = Bytes.to_string (W.frame ?trace (Bytes.of_string payload)) in
    frequency
      [ (1, string_size ~gen:char (int_range 0 40)); (1, return framed); (3, mutate_gen framed) ])

let prop_unframe_never_raises =
  QCheck.Test.make ~name:"unframe_traced never raises" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") frame_gen)
    (fun s -> never_raises W.unframe_traced (Bytes.of_string s))

(* Arbitrary text, and valid listings mutated or given a label of up to
   25 digits on one line. *)
let assembly_gen =
  QCheck.Gen.(
    list_size (int_range 1 12) instr_gen >>= fun instrs ->
    let text = P.to_assembly (P.v (P.plain instrs)) in
    let lines = String.split_on_char '\n' text in
    let labelled =
      int_range 0 (List.length lines - 1) >>= fun k ->
      string_size ~gen:(char_range '0' '9') (int_range 1 25) >|= fun digits ->
      String.concat "\n"
        (List.mapi (fun i l -> if i = k then "L" ^ digits ^ ": " ^ l else l) lines)
    in
    frequency
      [
        (1, string_size ~gen:printable (int_range 0 60));
        (1, return "MBR_LOAD 0\nCJUMP L1\nNOP\nL1: RETURN\n");
        (2, labelled);
        (4, mutate_gen text);
      ])

let prop_parse_never_raises =
  QCheck.Test.make ~name:"parse never raises" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") assembly_gen)
    (fun s -> never_raises P.parse s)

let prop_packet_roundtrip_requests =
  QCheck.Test.make ~name:"random requests roundtrip" ~count:300
    QCheck.(
      triple (int_range 0 0xFFFF)
        (list_of_size Gen.(int_range 0 8) (triple (int_range 0 60) (int_range 0 20) (int_range 1 255)))
        (option (int_range 0 59)))
    (fun (fid, accesses, rts) ->
      let request =
        {
          Pkt.prog_length = 60;
          rts_position = rts;
          accesses =
            List.map
              (fun (position, min_gap, demand_blocks) ->
                { Pkt.position; min_gap; demand_blocks })
              accesses;
        }
      in
      let pkt = { Pkt.fid; seq = 0; flags = Pkt.no_flags; payload = Pkt.Request request } in
      match Pkt.decode (Pkt.encode pkt) with
      | Ok { Pkt.payload = Pkt.Request r; fid = fid'; _ } ->
        fid' = fid && r = request
      | Ok _ | Error _ -> false)

let prop_packet_roundtrip_responses =
  QCheck.Test.make ~name:"random responses roundtrip" ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 0 20)
        (triple (int_range 0 19) (int_range 0 65535) (int_range 1 65536)))
    (fun regions_spec ->
      let regions = Array.make 20 None in
      List.iter
        (fun (s, start_word, n_words) ->
          regions.(s) <- Some { Pkt.start_word; n_words })
        regions_spec;
      let pkt =
        {
          Pkt.fid = 3;
          seq = 9;
          flags = Pkt.no_flags;
          payload = Pkt.Response { status = Pkt.Granted; regions };
        }
      in
      match Pkt.decode (Pkt.encode pkt) with
      | Ok { Pkt.payload = Pkt.Response r; _ } ->
        r.Pkt.status = Pkt.Granted && r.Pkt.regions = regions
      | Ok _ | Error _ -> false)

(* -- Table --------------------------------------------------------------- *)

let fresh_table () = Tbl.create (Rmt.Device.create params)

let regions_with assoc =
  let r = Array.make 20 None in
  List.iter
    (fun (s, start_word, n_words) -> r.(s) <- Some { Pkt.start_word; n_words })
    assoc;
  r

let test_table_install_lookup () =
  let t = fresh_table () in
  (match
     Tbl.install t ~fid:1 ~virtual_addressing:true
       ~regions:(regions_with [ (2, 0, 1024); (5, 512, 256) ])
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install");
  Alcotest.(check bool) "installed" true (Tbl.installed t ~fid:1);
  (match Tbl.lookup t ~fid:1 ~stage:2 with
  | Some { Tbl.region = Some r; _ } -> Alcotest.(check int) "region" 1024 r.Pkt.n_words
  | _ -> Alcotest.fail "missing entry");
  match Tbl.lookup t ~fid:1 ~stage:3 with
  | Some { Tbl.region = None; xmask; xoffset; _ } ->
    (* next access stage after 3 is 5: 256 words -> pow2 mask 255; virtual
       addressing keeps the offset at 0 *)
    Alcotest.(check int) "xmask of next access" 255 xmask;
    Alcotest.(check int) "offset 0 (virtual)" 0 xoffset
  | _ -> Alcotest.fail "no pass-through entry"

let test_table_physical_offsets () =
  let t = fresh_table () in
  (match
     Tbl.install t ~fid:2 ~virtual_addressing:false
       ~regions:(regions_with [ (4, 768, 512) ])
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "install");
  match Tbl.lookup t ~fid:2 ~stage:0 with
  | Some e ->
    Alcotest.(check int) "mask" 511 e.Tbl.xmask;
    Alcotest.(check int) "offset = region start" 768 e.Tbl.xoffset
  | None -> Alcotest.fail "entry"

let test_table_remove () =
  let t = fresh_table () in
  ignore
    (Tbl.install t ~fid:1 ~virtual_addressing:true
       ~regions:(regions_with [ (0, 0, 256) ]));
  Tbl.remove t ~fid:1;
  Tbl.remove t ~fid:1;
  Alcotest.(check bool) "gone" false (Tbl.installed t ~fid:1);
  Alcotest.(check bool) "no lookup" true (Tbl.lookup t ~fid:1 ~stage:0 = None)

let test_table_quiesce () =
  let t = fresh_table () in
  Tbl.quiesce t ~fid:5;
  Alcotest.(check bool) "quiesced" true (Tbl.is_quiesced t ~fid:5);
  Tbl.unquiesce t ~fid:5;
  Alcotest.(check bool) "released" false (Tbl.is_quiesced t ~fid:5)

let test_table_update_stats () =
  let t = fresh_table () in
  ignore
    (Tbl.install t ~fid:1 ~virtual_addressing:true
       ~regions:(regions_with [ (0, 0, 256) ]));
  let s = Tbl.update_stats t in
  Alcotest.(check bool) "counts adds" true (s.Tbl.entries_added > 20);
  Tbl.reset_update_stats t;
  Tbl.remove t ~fid:1;
  let s = Tbl.update_stats t in
  Alcotest.(check int) "no adds after reset" 0 s.Tbl.entries_added;
  Alcotest.(check bool) "counts removes" true (s.Tbl.entries_removed > 20)

let test_table_tcam_rollback () =
  (* A tiny TCAM: the second region cannot fit and the whole install rolls
     back, leaving no leaked entries. *)
  let small = { params with Rmt.Params.tcam_entries_per_stage = 2 } in
  let device = Rmt.Device.create small in
  let t = Tbl.create device in
  match
    Tbl.install t ~fid:1 ~virtual_addressing:true
      ~regions:(regions_with [ (0, 0, 65536); (1, 1, 30000) ])
  with
  | Error (`Tcam_capacity 1) ->
    Alcotest.(check int) "stage 0 rolled back" 0
      (Rmt.Tcam.used (Rmt.Device.stage device 0).Rmt.Device.protection)
  | Ok () -> Alcotest.fail "should exceed capacity"
  | Error _ -> Alcotest.fail "wrong error"

(* Reinstalling an installed FID rewrites in place only what changed; it
   must leave every observable exactly as [remove] followed by a fresh
   install does.  A twin table does the pair; random installs, removes and
   quiescence transitions over four FIDs run on both, on a device whose
   TCAM is small enough that some reinstalls run out of entries. *)
type table_op =
  | Install of {
      fid : int;
      regions : (int * int) option array;  (* (start_word, n_words) *)
      virtual_addressing : bool;
      privileged : bool;
      max_passes : int option;
    }
  | Remove of int
  | Quiesce of int
  | Unquiesce of int

let small_params =
  {
    params with
    Rmt.Params.logical_stages = 4;
    ingress_stages = 2;
    words_per_stage = 256;
    blocks_per_stage = 16;
    tcam_entries_per_stage = 16;
    mar_bits = 8;
  }

let show_table_op = function
  | Install { fid; regions; virtual_addressing; privileged; max_passes } ->
    Printf.sprintf "install %d [%s]%s%s%s" fid
      (String.concat "; "
         (Array.to_list
            (Array.map
               (function None -> "-" | Some (lo, n) -> Printf.sprintf "%d+%d" lo n)
               regions)))
      (if virtual_addressing then " virtual" else "")
      (if privileged then " privileged" else "")
      (match max_passes with Some p -> Printf.sprintf " passes=%d" p | None -> "")
  | Remove f -> Printf.sprintf "remove %d" f
  | Quiesce f -> Printf.sprintf "quiesce %d" f
  | Unquiesce f -> Printf.sprintf "unquiesce %d" f

let table_op_gen =
  let open QCheck.Gen in
  let fid = int_range 0 3 in
  let words = small_params.Rmt.Params.words_per_stage in
  let region =
    frequency
      [
        (1, return None);
        ( 2,
          int_range 0 (words - 1) >>= fun lo ->
          map (fun n -> Some (lo, n)) (int_range 1 (words - lo)) );
      ]
  in
  frequency
    [
      ( 5,
        map
          (fun (fid, regions, (virtual_addressing, privileged, max_passes)) ->
            Install { fid; regions; virtual_addressing; privileged; max_passes })
          (triple fid
             (array_size (return small_params.Rmt.Params.logical_stages) region)
             (triple bool bool (opt (int_range 1 4)))) );
      (2, map (fun f -> Remove f) fid);
      (1, map (fun f -> Quiesce f) fid);
      (1, map (fun f -> Unquiesce f) fid);
    ]

let prop_table_reinstall =
  QCheck.Test.make ~name:"reinstall = remove + install" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "\n" (List.map show_table_op ops))
        ~shrink:Shrink.list
        Gen.(list_size (int_range 1 40) table_op_gen))
    (fun ops ->
      let dev_a = Rmt.Device.create small_params and dev_b = Rmt.Device.create small_params in
      let a = Tbl.create dev_a and b = Tbl.create dev_b in
      let n = small_params.Rmt.Params.logical_stages in
      let apply t ~twin op =
        match op with
        | Install { fid; regions; virtual_addressing; privileged; max_passes } ->
          if twin then Tbl.remove t ~fid;
          let regions =
            Array.map
              (Option.map (fun (start_word, n_words) -> { Pkt.start_word; n_words }))
              regions
          in
          Some (Tbl.install ~privileged ?max_passes t ~fid ~virtual_addressing ~regions)
        | Remove fid ->
          Tbl.remove t ~fid;
          None
        | Quiesce fid ->
          Tbl.quiesce t ~fid;
          None
        | Unquiesce fid ->
          Tbl.unquiesce t ~fid;
          None
      in
      let same_state () =
        Tbl.update_stats a = Tbl.update_stats b
        && List.for_all
             (fun s ->
               Rmt.Tcam.used (Rmt.Device.stage dev_a s).Rmt.Device.protection
               = Rmt.Tcam.used (Rmt.Device.stage dev_b s).Rmt.Device.protection)
             (List.init n Fun.id)
        && List.for_all
             (fun fid ->
               Tbl.installed a ~fid = Tbl.installed b ~fid
               && Tbl.regions_of a ~fid = Tbl.regions_of b ~fid
               && Tbl.is_quiesced a ~fid = Tbl.is_quiesced b ~fid
               && Tbl.is_privileged a ~fid = Tbl.is_privileged b ~fid
               && Tbl.max_passes_of a ~fid = Tbl.max_passes_of b ~fid
               && Tbl.epoch a ~fid = Tbl.epoch b ~fid
               && List.for_all
                    (fun stage -> Tbl.lookup a ~fid ~stage = Tbl.lookup b ~fid ~stage)
                    (List.init n Fun.id))
             [ 0; 1; 2; 3 ]
      in
      List.for_all
        (fun op ->
          let ra = apply a ~twin:false op in
          let rb = apply b ~twin:true op in
          ra = rb && same_state ())
        ops)

(* -- Runtime ------------------------------------------------------------- *)

let setup ?(privileged = false) ?max_passes ?(virtual_addressing = true)
    ?(stages = [ (0, 0, 256) ]) () =
  let t = fresh_table () in
  (match
     Tbl.install ~privileged ?max_passes t ~fid:1 ~virtual_addressing
       ~regions:(regions_with stages)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "setup install");
  t

let run ?tables ?(args = [||]) ?(src = 100) ?(dst = 200) ?(flow_key = [||]) instrs =
  let tables = match tables with Some t -> t | None -> setup () in
  let meta = RT.meta ~flow_key ~src ~dst () in
  let pkt = Pkt.exec ~fid:1 ~seq:0 ~args (P.v (P.plain instrs)) in
  RT.run tables ~meta pkt

let test_rt_preloading () =
  let r = run ~args:[| 11; 22; 33; 44 |] [ I.Return ] in
  Alcotest.(check int) "MAR preloaded" 11 r.RT.final_mar;
  Alcotest.(check int) "MBR preloaded" 22 r.RT.final_mbr;
  Alcotest.(check int) "MBR2 preloaded" 33 r.RT.final_mbr2

let test_rt_loads_and_copies () =
  let r =
    run ~args:[| 1; 2; 3; 4 |]
      [ I.Mbr_load I.A3; I.Copy_mbr2_mbr; I.Mar_load I.A2; I.Copy_mbr_mar; I.Return ]
  in
  Alcotest.(check int) "MBR2 <- MBR = arg3" 4 r.RT.final_mbr2;
  Alcotest.(check int) "MBR <- MAR = arg2" 3 r.RT.final_mbr;
  Alcotest.(check int) "MAR = arg2" 3 r.RT.final_mar

let test_rt_arithmetic () =
  let r =
    run ~args:[| 0; 10; 3; 0 |] [ I.Mbr_subtract_mbr2; I.Mar_mbr_add_mbr2; I.Return ]
  in
  Alcotest.(check int) "MBR = 10-3" 7 r.RT.final_mbr;
  Alcotest.(check int) "MAR = 7+3" 10 r.RT.final_mar

let test_rt_mar_adds () =
  let r = run ~args:[| 100; 10; 3; 0 |] [ I.Mar_add_mbr; I.Mar_add_mbr2; I.Return ] in
  Alcotest.(check int) "MAR = 100+10+3" 113 r.RT.final_mar;
  let r = run ~args:[| 0; 6; 7; 0 |] [ I.Mbr_add_mbr2; I.Return ] in
  Alcotest.(check int) "MBR = 6+7" 13 r.RT.final_mbr

let test_rt_bitops () =
  let r =
    run ~args:[| 0b1100; 0b1010; 0b0110; 0 |]
      [ I.Bit_and_mar_mbr; I.Bit_or_mbr_mbr2; I.Return ]
  in
  Alcotest.(check int) "MAR = 1100 & 1010" 0b1000 r.RT.final_mar;
  Alcotest.(check int) "MBR = 1010 | 0110" 0b1110 r.RT.final_mbr

let test_rt_minmax () =
  let r = run ~args:[| 0; 9; 4; 0 |] [ I.Min; I.Return ] in
  Alcotest.(check int) "min" 4 r.RT.final_mbr;
  let r = run ~args:[| 0; 9; 4; 0 |] [ I.Max; I.Return ] in
  Alcotest.(check int) "max" 9 r.RT.final_mbr

let test_rt_swap () =
  let r = run ~args:[| 0; 1; 2; 0 |] [ I.Swap_mbr_mbr2; I.Return ] in
  Alcotest.(check int) "mbr" 2 r.RT.final_mbr;
  Alcotest.(check int) "mbr2" 1 r.RT.final_mbr2

let test_rt_revmin () =
  let r = run ~args:[| 0; 3; 8; 0 |] [ I.Revmin; I.Return ] in
  Alcotest.(check int) "MBR2 = min(3,8)" 3 r.RT.final_mbr2;
  Alcotest.(check int) "MBR untouched" 3 r.RT.final_mbr

let test_rt_equals_and_not () =
  let r = run ~args:[| 0; 5; 5; 0 |] [ I.Mbr_equals_mbr2; I.Return ] in
  Alcotest.(check int) "xor equal = 0" 0 r.RT.final_mbr;
  let r = run ~args:[| 0; 0; 0; 7 |] [ I.Mbr_equals_data I.A3; I.Mbr_not; I.Return ] in
  Alcotest.(check int) "not (0 xor 7)" (lnot 7 land 0xFFFFFFFF) r.RT.final_mbr

let test_rt_mbr_store () =
  let r = run ~args:[| 0; 42; 0; 0 |] [ I.Mbr_store I.A3; I.Return ] in
  Alcotest.(check int) "stored into arg 3" 42 r.RT.args_out.(3)

let test_rt_return_forwards () =
  let r = run [ I.Return ] in
  (match r.RT.decision with
  | RT.Forward 200 -> ()
  | _ -> Alcotest.fail "expected forward to dst");
  Alcotest.(check int) "one instruction" 1 r.RT.executed

let test_rt_cret () =
  let r = run ~args:[| 0; 1; 0; 0 |] [ I.Cret; I.Mbr_load I.A0; I.Return ] in
  Alcotest.(check int) "returned early" 1 r.RT.executed;
  let r = run ~args:[| 0; 0; 0; 0 |] [ I.Cret; I.Return ] in
  Alcotest.(check int) "fell through" 2 r.RT.executed

let test_rt_creti () =
  let r = run ~args:[| 0; 0; 0; 0 |] [ I.Creti; I.Return ] in
  Alcotest.(check int) "returned on zero" 1 r.RT.executed

let test_rt_cjump_taken () =
  (* MBR2 is preloaded with args[2] = 9; the skipped load would have
     replaced it with args[3] = 4. *)
  let prog =
    [
      P.line (I.Mbr_load I.A1);
      P.line (I.Cjump 1);
      P.line (I.Mbr2_load I.A3);
      P.line ~label:1 I.Return;
    ]
  in
  let pkt = Pkt.exec ~fid:1 ~seq:0 ~args:[| 0; 5; 9; 4 |] (P.v prog) in
  let r = RT.run (setup ()) ~meta:(RT.meta ~src:1 ~dst:2 ()) pkt in
  Alcotest.(check int) "skipped load" 9 r.RT.final_mbr2;
  Alcotest.(check int) "3 executed (skipped one)" 3 r.RT.executed

let test_rt_cjumpi_not_taken () =
  let prog =
    [
      P.line (I.Mbr_load I.A1);
      P.line (I.Cjumpi 1);
      P.line (I.Mbr2_load I.A3);
      P.line ~label:1 I.Return;
    ]
  in
  let pkt = Pkt.exec ~fid:1 ~seq:0 ~args:[| 0; 5; 9; 4 |] (P.v prog) in
  let r = RT.run (setup ()) ~meta:(RT.meta ~src:1 ~dst:2 ()) pkt in
  Alcotest.(check int) "executed load" 4 r.RT.final_mbr2

let test_rt_ujump () =
  (* MBR preloaded with args[1] = 2; the skipped load would set 5. *)
  let prog =
    [ P.line (I.Ujump 2); P.line (I.Mbr_load I.A2); P.line ~label:2 I.Return ]
  in
  let pkt = Pkt.exec ~fid:1 ~seq:0 ~args:[| 0; 2; 5; 0 |] (P.v prog) in
  let r = RT.run (setup ()) ~meta:(RT.meta ~src:1 ~dst:2 ()) pkt in
  Alcotest.(check int) "skipped" 2 r.RT.final_mbr

let test_rt_skipped_consume_stages () =
  let prog =
    (P.line (I.Ujump 1) :: List.init 18 (fun _ -> P.line I.Nop))
    @ [ P.line ~label:1 I.Return ]
  in
  let pkt = Pkt.exec ~fid:1 ~seq:0 ~args:[||] (P.v prog) in
  let r = RT.run (setup ()) ~meta:(RT.meta ~src:1 ~dst:2 ()) pkt in
  Alcotest.(check int) "single pass" 1 r.RT.passes;
  Alcotest.(check int) "2 executed" 2 r.RT.executed

let test_rt_mem_read_write () =
  let tables = setup () in
  let r = run ~tables ~args:[| 5; 77; 0; 0 |] [ I.Mem_write; I.Return ] in
  (match r.RT.decision with RT.Forward _ -> () | _ -> Alcotest.fail "write ok");
  let r = run ~tables ~args:[| 5; 0; 0; 0 |] [ I.Mem_read; I.Return ] in
  Alcotest.(check int) "read back" 77 r.RT.final_mbr

let test_rt_mem_increment () =
  let tables = setup () in
  let r = run ~tables ~args:[| 9; 0; 0; 0 |] [ I.Mem_increment; I.Return ] in
  Alcotest.(check int) "first" 1 r.RT.final_mbr;
  let r = run ~tables ~args:[| 9; 0; 0; 0 |] [ I.Mem_increment; I.Return ] in
  Alcotest.(check int) "second" 2 r.RT.final_mbr

let test_rt_mem_minread () =
  let tables = setup () in
  ignore (run ~tables ~args:[| 0; 50; 0; 0 |] [ I.Mem_write; I.Return ]);
  let r = run ~tables ~args:[| 0; 30; 0; 0 |] [ I.Mem_minread; I.Return ] in
  Alcotest.(check int) "min(50,30)" 30 r.RT.final_mbr

let test_rt_mem_minreadinc () =
  let tables = setup () in
  let r = run ~tables ~args:[| 0; 0; 100; 0 |] [ I.Mem_minreadinc; I.Return ] in
  Alcotest.(check int) "MBR = new count" 1 r.RT.final_mbr;
  Alcotest.(check int) "MBR2 = min(count, MBR2)" 1 r.RT.final_mbr2

let test_rt_virtual_confinement () =
  let tables = setup ~stages:[ (0, 512, 256) ] () in
  ignore (run ~tables ~args:[| 300; 7; 0; 0 |] [ I.Mem_write; I.Return ]);
  let r = run ~tables ~args:[| 44; 0; 0; 0 |] [ I.Mem_read; I.Return ] in
  Alcotest.(check int) "wrapped" 7 r.RT.final_mbr

let test_rt_protection_physical () =
  let tables = setup ~virtual_addressing:false ~stages:[ (0, 512, 256) ] () in
  let r = run ~tables ~args:[| 100; 0; 0; 0 |] [ I.Mem_read; I.Return ] in
  (match r.RT.decision with
  | RT.Dropped (RT.Protection_violation { stage = 0; mar = 100 }) -> ()
  | _ -> Alcotest.fail "expected protection drop");
  let r = run ~tables ~args:[| 600; 0; 0; 0 |] [ I.Mem_read; I.Return ] in
  match r.RT.decision with
  | RT.Forward _ -> ()
  | _ -> Alcotest.fail "in-range physical access works"

let test_rt_no_allocation_drop () =
  let tables = setup ~stages:[ (3, 0, 256) ] () in
  let r = run ~tables [ I.Mem_read; I.Return ] in
  match r.RT.decision with
  | RT.Dropped (RT.No_allocation { stage = 0 }) -> ()
  | _ -> Alcotest.fail "expected no-allocation drop"

let test_rt_quiesced_passthrough () =
  let tables = setup () in
  Tbl.quiesce tables ~fid:1;
  let pkt = Pkt.exec ~fid:1 ~seq:0 ~args:[| 1; 2; 3; 4 |] (P.v (P.plain [ I.Drop ])) in
  let r = RT.run tables ~meta:(RT.meta ~src:1 ~dst:2 ()) pkt in
  Alcotest.(check bool) "marked quiesced" true r.RT.quiesced;
  (match r.RT.decision with
  | RT.Forward 2 -> ()
  | _ -> Alcotest.fail "quiesced packets pass through");
  Alcotest.(check (array int)) "args preserved" [| 1; 2; 3; 4 |] r.RT.args_out

let test_rt_hash_uses_hashdata () =
  let tables = setup () in
  let r1 =
    run ~tables ~args:[| 0; 5; 9; 0 |]
      [ I.Copy_hashdata_mbr; I.Copy_hashdata_mbr2; I.Hash; I.Return ]
  in
  let r2 =
    run ~tables ~args:[| 0; 5; 10; 0 |]
      [ I.Copy_hashdata_mbr; I.Copy_hashdata_mbr2; I.Hash; I.Return ]
  in
  Alcotest.(check bool) "different data different hash" false
    (r1.RT.final_mar = r2.RT.final_mar)

let test_rt_hash_stage_dependent () =
  let tables = setup () in
  let r1 = run ~tables ~args:[| 0; 5; 9; 0 |] [ I.Hash; I.Return ] in
  let r2 = run ~tables ~args:[| 0; 5; 9; 0 |] [ I.Nop; I.Hash; I.Return ] in
  Alcotest.(check bool) "stage seeds hash rows" false (r1.RT.final_mar = r2.RT.final_mar)

let test_rt_hashdata_5tuple () =
  let tables = setup () in
  let r =
    run ~tables ~flow_key:[| 111; 222 |] [ I.Hashdata_load_5tuple; I.Hash; I.Return ]
  in
  let r' =
    run ~tables ~flow_key:[| 111; 223 |] [ I.Hashdata_load_5tuple; I.Hash; I.Return ]
  in
  Alcotest.(check bool) "flow key feeds hash" false (r.RT.final_mar = r'.RT.final_mar)

let test_rt_addr_mask_offset () =
  let tables = setup ~stages:[ (2, 512, 256) ] () in
  let r =
    run ~tables ~args:[| 0xFFFF; 0; 0; 0 |]
      [ I.Addr_mask; I.Addr_offset; I.Mem_read; I.Return ]
  in
  (match r.RT.decision with RT.Forward _ -> () | _ -> Alcotest.fail "masked access ok");
  Alcotest.(check int) "mask applied" 255 r.RT.final_mar

let test_rt_set_dst () =
  let tables = setup ~privileged:true () in
  let r = run ~tables ~args:[| 0; 555; 0; 0 |] [ I.Set_dst; I.Return ] in
  match r.RT.decision with
  | RT.Forward 555 -> ()
  | _ -> Alcotest.fail "SET_DST did not change destination"

let test_rt_set_dst_unprivileged () =
  let r = run ~args:[| 0; 555; 0; 0 |] [ I.Set_dst; I.Return ] in
  match r.RT.decision with
  | RT.Dropped (RT.Privilege_violation { stage = 0 }) -> ()
  | _ -> Alcotest.fail "unprivileged SET_DST must drop"

let test_rt_drop_instruction () =
  let r = run [ I.Drop; I.Return ] in
  match r.RT.decision with
  | RT.Dropped RT.Explicit_drop -> ()
  | _ -> Alcotest.fail "expected explicit drop"

let test_rt_rts_ingress () =
  let r = run [ I.Rts; I.Return ] in
  (match r.RT.decision with
  | RT.Return_to_sender -> ()
  | _ -> Alcotest.fail "expected RTS");
  Alcotest.(check int) "no port recirculation" 0 r.RT.port_recirculations

let test_rt_rts_egress_costs_recirc () =
  let instrs = List.init 15 (fun _ -> I.Nop) @ [ I.Rts; I.Return ] in
  let r = run instrs in
  Alcotest.(check int) "port recirculation" 1 r.RT.port_recirculations

let test_rt_crts () =
  let r = run ~args:[| 0; 1; 0; 0 |] [ I.Crts; I.Return ] in
  (match r.RT.decision with RT.Return_to_sender -> () | _ -> Alcotest.fail "taken");
  let r = run ~args:[| 0; 0; 0; 0 |] [ I.Crts; I.Return ] in
  match r.RT.decision with
  | RT.Forward _ -> ()
  | _ -> Alcotest.fail "not taken"

let test_rt_fork () =
  let tables = setup ~privileged:true () in
  let r = run ~tables [ I.Fork; I.Return ] in
  Alcotest.(check int) "one clone" 1 r.RT.forks

let test_rt_fork_unprivileged () =
  let r = run [ I.Fork; I.Return ] in
  match r.RT.decision with
  | RT.Dropped (RT.Privilege_violation _) -> ()
  | _ -> Alcotest.fail "unprivileged FORK must drop"

let test_rt_per_fid_pass_allowance () =
  (* The device would allow many recirculations, but this FID is limited
     to two passes: a 3-pass program drops. *)
  let tables = setup ~max_passes:2 () in
  let three_pass = List.init 45 (fun _ -> I.Nop) @ [ I.Return ] in
  let r = run ~tables three_pass in
  (match r.RT.decision with
  | RT.Dropped RT.Recirculation_limit -> ()
  | _ -> Alcotest.fail "pass allowance not enforced");
  let two_pass = List.init 24 (fun _ -> I.Nop) @ [ I.Return ] in
  let r = run ~tables two_pass in
  match r.RT.decision with
  | RT.Forward _ -> ()
  | _ -> Alcotest.fail "allowed passes still run"

let test_rt_recirculation () =
  let instrs = List.init 24 (fun _ -> I.Nop) @ [ I.Return ] in
  let r = run instrs in
  Alcotest.(check int) "two passes" 2 r.RT.passes;
  Alcotest.(check int) "25 executed" 25 r.RT.executed

let test_rt_recirc_limit () =
  let small = { params with Rmt.Params.recirc_limit = 1 } in
  let device = Rmt.Device.create small in
  let t = Tbl.create device in
  ignore (Tbl.install t ~fid:1 ~virtual_addressing:true ~regions:(Array.make 20 None));
  let instrs = List.init 70 (fun _ -> I.Nop) @ [ I.Return ] in
  let pkt = Pkt.exec ~fid:1 ~seq:0 ~args:[||] (P.v (P.plain instrs)) in
  let r = RT.run t ~meta:(RT.meta ~src:1 ~dst:2 ()) pkt in
  match r.RT.decision with
  | RT.Dropped RT.Recirculation_limit -> ()
  | _ -> Alcotest.fail "expected recirculation-limit drop"

let test_rt_pipelines_and_latency () =
  let check_pipelines n expect =
    let instrs = (I.Rts :: List.init (n - 2) (fun _ -> I.Nop)) @ [ I.Return ] in
    let r = run instrs in
    Alcotest.(check int) (Printf.sprintf "%d instrs" n) expect r.RT.pipelines
  in
  check_pipelines 10 1;
  check_pipelines 20 2;
  check_pipelines 30 3;
  let r = run ((I.Rts :: List.init 8 (fun _ -> I.Nop)) @ [ I.Return ]) in
  Alcotest.(check (float 1e-9)) "latency model" 10.5 (RT.latency_us params r)

let test_packet_strip_executed () =
  let pkt = Pkt.exec ~fid:1 ~seq:0 ~args:[||] listing1 in
  let full = Pkt.wire_size ~stages:20 pkt in
  let stripped = Pkt.strip_executed pkt ~upto:4 in
  Alcotest.(check int) "4 headers = 8 bytes saved" (full - 8)
    (Pkt.wire_size ~stages:20 stripped);
  (match stripped.Pkt.payload with
  | Pkt.Exec { program; _ } ->
    Alcotest.(check int) "7 instructions left" 7 (P.length program)
  | _ -> Alcotest.fail "payload");
  let all = Pkt.strip_executed pkt ~upto:99 in
  (match all.Pkt.payload with
  | Pkt.Exec { program; _ } -> Alcotest.(check int) "empty" 0 (P.length program)
  | _ -> Alcotest.fail "payload");
  Alcotest.(check bool) "non-exec unchanged" true
    (Pkt.strip_executed { pkt with Pkt.payload = Pkt.Bare } ~upto:3
     = { pkt with Pkt.payload = Pkt.Bare })

let test_rt_consumed_prefix () =
  (* A cache miss completes at the first CRET: the parser can discard the
     four leading instruction headers. *)
  let tables = setup ~stages:[ (1, 0, 256); (4, 0, 256); (8, 0, 256) ] () in
  let key = Workload.Kv.key_of_rank 3 in
  let pkt =
    Pkt.exec
      ~flags:{ Pkt.no_flags with Pkt.virtual_addressing = true }
      ~fid:1 ~seq:0
      ~args:[| 9; key.Workload.Kv.k0; key.Workload.Kv.k1; 0 |]
      listing1
  in
  let r = RT.run tables ~meta:(RT.meta ~src:1 ~dst:2 ()) pkt in
  Alcotest.(check int) "miss consumes 4 headers" 4 r.RT.consumed_prefix;
  let shrunk = Pkt.strip_executed pkt ~upto:r.RT.consumed_prefix in
  Alcotest.(check bool) "packet shrank" true
    (Pkt.wire_size ~stages:20 shrunk < Pkt.wire_size ~stages:20 pkt)

(* Random label-free programs execute without raising under any of the
   addressing modes; decisions are always one of the three outcomes. *)
let prop_runtime_total =
  QCheck.Test.make ~name:"interpreter is total on label-free programs" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 50) instr_gen)
           (array_size (return 4) (int_range 0 0xFFFF))))
    (fun (instrs, args) ->
      let tables = setup ~stages:[ (0, 0, 256); (5, 256, 256); (13, 0, 512) ] () in
      let pkt = Pkt.exec ~fid:1 ~seq:0 ~args (P.v (P.plain instrs)) in
      let r = RT.run tables ~meta:(RT.meta ~src:1 ~dst:2 ()) pkt in
      (match r.RT.decision with
      | RT.Forward _ | RT.Return_to_sender | RT.Dropped _ -> true)
      && r.RT.passes >= 1
      && r.RT.executed <= List.length instrs * (Rmt.Params.default.Rmt.Params.recirc_limit + 1))

(* Differential: a program must behave identically after a trip through
   the assembler or the wire codec (fresh, identical switches). *)
let same_result r1 r2 =
  r1.RT.decision = r2.RT.decision
  && r1.RT.args_out = r2.RT.args_out
  && r1.RT.executed = r2.RT.executed
  && r1.RT.passes = r2.RT.passes
  && r1.RT.final_mbr = r2.RT.final_mbr
  && r1.RT.final_mbr2 = r2.RT.final_mbr2
  && r1.RT.final_mar = r2.RT.final_mar

let run_fresh instrs_program args =
  let tables = setup ~stages:[ (0, 0, 256); (5, 256, 256); (13, 0, 512) ] () in
  let pkt = Pkt.exec ~fid:1 ~seq:0 ~args instrs_program in
  RT.run tables ~meta:(RT.meta ~src:1 ~dst:2 ()) pkt

let prop_assembler_preserves_semantics =
  QCheck.Test.make ~name:"assembler round trip preserves execution" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 30) instr_gen)
           (array_size (return 4) (int_range 0 1000))))
    (fun (instrs, args) ->
      let p = P.v (P.plain instrs) in
      match P.parse (P.to_assembly p) with
      | Error _ -> List.exists (fun i -> i = I.Return) instrs
      | Ok p' -> same_result (run_fresh p args) (run_fresh p' args))

let prop_wire_preserves_semantics =
  QCheck.Test.make ~name:"wire round trip preserves execution" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 30) instr_gen)
           (array_size (return 4) (int_range 0 1000))))
    (fun (instrs, args) ->
      let p = P.v (P.plain instrs) in
      match W.decode_program (W.encode_program p) ~off:0 with
      | Error _ -> false
      | Ok (p', _, _) -> same_result (run_fresh p args) (run_fresh p' args))

let () =
  Alcotest.run "core"
    [
      ( "instr",
        [
          Alcotest.test_case "mnemonic roundtrip" `Quick test_mnemonic_roundtrip;
          Alcotest.test_case "case insensitive" `Quick test_mnemonic_case_insensitive;
          Alcotest.test_case "parse errors" `Quick test_mnemonic_errors;
          Alcotest.test_case "CRET1 alias" `Quick test_cret1_alias;
          Alcotest.test_case "memory classification" `Quick
            test_memory_access_classification;
          Alcotest.test_case "needs ingress" `Quick test_needs_ingress;
          Alcotest.test_case "branch target" `Quick test_branch_target;
          Alcotest.test_case "arg index" `Quick test_arg_index;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip all opcodes" `Quick test_wire_roundtrip_all;
          Alcotest.test_case "unknown opcode" `Quick test_wire_unknown_opcode;
          Alcotest.test_case "program roundtrip" `Quick test_wire_program_roundtrip;
          Alcotest.test_case "truncated" `Quick test_wire_truncated;
          QCheck_alcotest.to_alcotest prop_program_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_decode_program_never_raises;
          QCheck_alcotest.to_alcotest prop_unframe_never_raises;
        ] );
      ( "program",
        [
          Alcotest.test_case "listing 1 structure" `Quick test_listing1_structure;
          Alcotest.test_case "backward jump rejected" `Quick test_parse_backward_jump;
          Alcotest.test_case "forward label ok" `Quick test_parse_forward_label;
          Alcotest.test_case "huge label" `Quick test_parse_huge_label;
          Alcotest.test_case "duplicate label" `Quick test_validate_duplicate_label;
          Alcotest.test_case "embedded EOF" `Quick test_validate_embedded_eof;
          Alcotest.test_case "unreachable code" `Quick test_validate_unreachable;
          Alcotest.test_case "trailing padding" `Quick test_validate_trailing_padding_ok;
          Alcotest.test_case "assembly roundtrip" `Quick test_assembly_roundtrip;
          QCheck_alcotest.to_alcotest prop_assembly_roundtrip;
          QCheck_alcotest.to_alcotest prop_parse_never_raises;
        ] );
      ( "packet",
        [
          Alcotest.test_case "bare" `Quick test_packet_bare;
          Alcotest.test_case "flags" `Quick test_packet_flags;
          Alcotest.test_case "request" `Quick test_packet_request_roundtrip;
          Alcotest.test_case "response" `Quick test_packet_response_roundtrip;
          Alcotest.test_case "exec" `Quick test_packet_exec_roundtrip;
          Alcotest.test_case "wire size" `Quick test_packet_wire_size;
          Alcotest.test_case "short packet" `Quick test_packet_short;
          Alcotest.test_case "too many args" `Quick test_packet_too_many_args;
          Alcotest.test_case "strip executed" `Quick test_packet_strip_executed;
          QCheck_alcotest.to_alcotest prop_packet_decode_never_raises;
          QCheck_alcotest.to_alcotest prop_packet_roundtrip_requests;
          QCheck_alcotest.to_alcotest prop_packet_roundtrip_responses;
        ] );
      ( "table",
        [
          Alcotest.test_case "install/lookup" `Quick test_table_install_lookup;
          Alcotest.test_case "physical offsets" `Quick test_table_physical_offsets;
          Alcotest.test_case "remove" `Quick test_table_remove;
          Alcotest.test_case "quiesce" `Quick test_table_quiesce;
          Alcotest.test_case "update stats" `Quick test_table_update_stats;
          Alcotest.test_case "tcam rollback" `Quick test_table_tcam_rollback;
          QCheck_alcotest.to_alcotest prop_table_reinstall;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "preloading" `Quick test_rt_preloading;
          Alcotest.test_case "loads and copies" `Quick test_rt_loads_and_copies;
          Alcotest.test_case "arithmetic" `Quick test_rt_arithmetic;
          Alcotest.test_case "mar adds" `Quick test_rt_mar_adds;
          Alcotest.test_case "bit ops" `Quick test_rt_bitops;
          Alcotest.test_case "min/max" `Quick test_rt_minmax;
          Alcotest.test_case "swap" `Quick test_rt_swap;
          Alcotest.test_case "revmin" `Quick test_rt_revmin;
          Alcotest.test_case "equals/not" `Quick test_rt_equals_and_not;
          Alcotest.test_case "mbr_store" `Quick test_rt_mbr_store;
          Alcotest.test_case "return" `Quick test_rt_return_forwards;
          Alcotest.test_case "cret" `Quick test_rt_cret;
          Alcotest.test_case "creti" `Quick test_rt_creti;
          Alcotest.test_case "cjump taken" `Quick test_rt_cjump_taken;
          Alcotest.test_case "cjumpi not taken" `Quick test_rt_cjumpi_not_taken;
          Alcotest.test_case "ujump" `Quick test_rt_ujump;
          Alcotest.test_case "skips consume stages" `Quick test_rt_skipped_consume_stages;
          Alcotest.test_case "mem read/write" `Quick test_rt_mem_read_write;
          Alcotest.test_case "mem increment" `Quick test_rt_mem_increment;
          Alcotest.test_case "mem minread" `Quick test_rt_mem_minread;
          Alcotest.test_case "mem minreadinc" `Quick test_rt_mem_minreadinc;
          Alcotest.test_case "virtual confinement" `Quick test_rt_virtual_confinement;
          Alcotest.test_case "physical protection" `Quick test_rt_protection_physical;
          Alcotest.test_case "no allocation" `Quick test_rt_no_allocation_drop;
          Alcotest.test_case "quiesced passthrough" `Quick test_rt_quiesced_passthrough;
          Alcotest.test_case "hash data" `Quick test_rt_hash_uses_hashdata;
          Alcotest.test_case "hash per stage" `Quick test_rt_hash_stage_dependent;
          Alcotest.test_case "5-tuple hashdata" `Quick test_rt_hashdata_5tuple;
          Alcotest.test_case "addr mask/offset" `Quick test_rt_addr_mask_offset;
          Alcotest.test_case "set_dst" `Quick test_rt_set_dst;
          Alcotest.test_case "set_dst unprivileged" `Quick test_rt_set_dst_unprivileged;
          Alcotest.test_case "drop" `Quick test_rt_drop_instruction;
          Alcotest.test_case "rts ingress" `Quick test_rt_rts_ingress;
          Alcotest.test_case "rts egress recirc" `Quick test_rt_rts_egress_costs_recirc;
          Alcotest.test_case "crts" `Quick test_rt_crts;
          Alcotest.test_case "fork" `Quick test_rt_fork;
          Alcotest.test_case "fork unprivileged" `Quick test_rt_fork_unprivileged;
          Alcotest.test_case "per-fid pass allowance" `Quick test_rt_per_fid_pass_allowance;
          Alcotest.test_case "recirculation" `Quick test_rt_recirculation;
          Alcotest.test_case "recirc limit" `Quick test_rt_recirc_limit;
          Alcotest.test_case "pipelines/latency" `Quick test_rt_pipelines_and_latency;
          Alcotest.test_case "consumed prefix" `Quick test_rt_consumed_prefix;
          QCheck_alcotest.to_alcotest prop_runtime_total;
          QCheck_alcotest.to_alcotest prop_assembler_preserves_semantics;
          QCheck_alcotest.to_alcotest prop_wire_preserves_semantics;
        ] );
    ]
