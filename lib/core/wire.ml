open Instr

type decoded = { line : Program.line; executed : bool }

(* Fixed opcode map.  Families with an argument operand occupy four
   consecutive opcodes; branches encode their target in the flag byte. *)
let op_eof = 0x00
let op_nop = 0x01
let op_return = 0x02
let op_cret = 0x03
let op_creti = 0x04
let op_drop = 0x05
let op_fork = 0x06
let op_set_dst = 0x07
let op_rts = 0x08
let op_crts = 0x09
let op_addr_mask = 0x0A
let op_addr_offset = 0x0B
let op_hash = 0x0C
let op_hashdata_5t = 0x0D
let op_mbr_load = 0x10
let op_mbr_store = 0x14
let op_mbr2_load = 0x18
let op_mar_load = 0x1C
let op_copy_mbr_mbr2 = 0x20
let op_copy_mbr2_mbr = 0x21
let op_copy_mbr_mar = 0x22
let op_copy_mar_mbr = 0x23
let op_copy_hd_mbr = 0x24
let op_copy_hd_mbr2 = 0x25
let op_mbr_add_mbr2 = 0x26
let op_mar_add_mbr = 0x27
let op_mar_add_mbr2 = 0x28
let op_mar_mbr_add_mbr2 = 0x29
let op_mbr_sub_mbr2 = 0x2A
let op_bit_and_mar_mbr = 0x2B
let op_bit_or_mbr_mbr2 = 0x2C
let op_mbr_equals_mbr2 = 0x2D
let op_mbr_equals_data = 0x2E (* ..0x31 *)
let op_max = 0x32
let op_min = 0x33
let op_revmin = 0x34
let op_swap = 0x35
let op_mbr_not = 0x36
let op_cjump = 0x40
let op_cjumpi = 0x41
let op_ujump = 0x42
let op_mem_write = 0x50
let op_mem_read = 0x51
let op_mem_increment = 0x52
let op_mem_minread = 0x53
let op_mem_minreadinc = 0x54

let opcode_of_instr = function
  | Eof -> op_eof
  | Nop -> op_nop
  | Return -> op_return
  | Cret -> op_cret
  | Creti -> op_creti
  | Drop -> op_drop
  | Fork -> op_fork
  | Set_dst -> op_set_dst
  | Rts -> op_rts
  | Crts -> op_crts
  | Addr_mask -> op_addr_mask
  | Addr_offset -> op_addr_offset
  | Hash -> op_hash
  | Hashdata_load_5tuple -> op_hashdata_5t
  | Mbr_load a -> op_mbr_load + arg_index a
  | Mbr_store a -> op_mbr_store + arg_index a
  | Mbr2_load a -> op_mbr2_load + arg_index a
  | Mar_load a -> op_mar_load + arg_index a
  | Copy_mbr_mbr2 -> op_copy_mbr_mbr2
  | Copy_mbr2_mbr -> op_copy_mbr2_mbr
  | Copy_mbr_mar -> op_copy_mbr_mar
  | Copy_mar_mbr -> op_copy_mar_mbr
  | Copy_hashdata_mbr -> op_copy_hd_mbr
  | Copy_hashdata_mbr2 -> op_copy_hd_mbr2
  | Mbr_add_mbr2 -> op_mbr_add_mbr2
  | Mar_add_mbr -> op_mar_add_mbr
  | Mar_add_mbr2 -> op_mar_add_mbr2
  | Mar_mbr_add_mbr2 -> op_mar_mbr_add_mbr2
  | Mbr_subtract_mbr2 -> op_mbr_sub_mbr2
  | Bit_and_mar_mbr -> op_bit_and_mar_mbr
  | Bit_or_mbr_mbr2 -> op_bit_or_mbr_mbr2
  | Mbr_equals_mbr2 -> op_mbr_equals_mbr2
  | Mbr_equals_data a -> op_mbr_equals_data + arg_index a
  | Max -> op_max
  | Min -> op_min
  | Revmin -> op_revmin
  | Swap_mbr_mbr2 -> op_swap
  | Mbr_not -> op_mbr_not
  | Cjump _ -> op_cjump
  | Cjumpi _ -> op_cjumpi
  | Ujump _ -> op_ujump
  | Mem_write -> op_mem_write
  | Mem_read -> op_mem_read
  | Mem_increment -> op_mem_increment
  | Mem_minread -> op_mem_minread
  | Mem_minreadinc -> op_mem_minreadinc

let encode ?(executed = false) (l : Program.line) =
  let opcode = opcode_of_instr l.Program.instr in
  let own_label = match l.Program.label with Some lab -> lab + 1 | None -> 0 in
  let target =
    match Instr.branch_target l.Program.instr with Some t -> t | None -> 0
  in
  let flag =
    (if executed then 1 else 0) lor (own_label lsl 1) lor (target lsl 4)
  in
  (opcode, flag)

let arg_exn i =
  match arg_of_index i with
  | Some a -> a
  | None -> assert false

let decode ~opcode ~flag =
  let target = (flag lsr 4) land 0x7 in
  let instr_of_opcode () =
    if opcode >= op_mbr_load && opcode < op_mbr_load + 4 then
      Ok (Mbr_load (arg_exn (opcode - op_mbr_load)))
    else if opcode >= op_mbr_store && opcode < op_mbr_store + 4 then
      Ok (Mbr_store (arg_exn (opcode - op_mbr_store)))
    else if opcode >= op_mbr2_load && opcode < op_mbr2_load + 4 then
      Ok (Mbr2_load (arg_exn (opcode - op_mbr2_load)))
    else if opcode >= op_mar_load && opcode < op_mar_load + 4 then
      Ok (Mar_load (arg_exn (opcode - op_mar_load)))
    else if opcode >= op_mbr_equals_data && opcode < op_mbr_equals_data + 4 then
      Ok (Mbr_equals_data (arg_exn (opcode - op_mbr_equals_data)))
    else if opcode = op_eof then Ok Eof
    else if opcode = op_nop then Ok Nop
    else if opcode = op_return then Ok Return
    else if opcode = op_cret then Ok Cret
    else if opcode = op_creti then Ok Creti
    else if opcode = op_drop then Ok Drop
    else if opcode = op_fork then Ok Fork
    else if opcode = op_set_dst then Ok Set_dst
    else if opcode = op_rts then Ok Rts
    else if opcode = op_crts then Ok Crts
    else if opcode = op_addr_mask then Ok Addr_mask
    else if opcode = op_addr_offset then Ok Addr_offset
    else if opcode = op_hash then Ok Hash
    else if opcode = op_hashdata_5t then Ok Hashdata_load_5tuple
    else if opcode = op_copy_mbr_mbr2 then Ok Copy_mbr_mbr2
    else if opcode = op_copy_mbr2_mbr then Ok Copy_mbr2_mbr
    else if opcode = op_copy_mbr_mar then Ok Copy_mbr_mar
    else if opcode = op_copy_mar_mbr then Ok Copy_mar_mbr
    else if opcode = op_copy_hd_mbr then Ok Copy_hashdata_mbr
    else if opcode = op_copy_hd_mbr2 then Ok Copy_hashdata_mbr2
    else if opcode = op_mbr_add_mbr2 then Ok Mbr_add_mbr2
    else if opcode = op_mar_add_mbr then Ok Mar_add_mbr
    else if opcode = op_mar_add_mbr2 then Ok Mar_add_mbr2
    else if opcode = op_mar_mbr_add_mbr2 then Ok Mar_mbr_add_mbr2
    else if opcode = op_mbr_sub_mbr2 then Ok Mbr_subtract_mbr2
    else if opcode = op_bit_and_mar_mbr then Ok Bit_and_mar_mbr
    else if opcode = op_bit_or_mbr_mbr2 then Ok Bit_or_mbr_mbr2
    else if opcode = op_mbr_equals_mbr2 then Ok Mbr_equals_mbr2
    else if opcode = op_max then Ok Max
    else if opcode = op_min then Ok Min
    else if opcode = op_revmin then Ok Revmin
    else if opcode = op_swap then Ok Swap_mbr_mbr2
    else if opcode = op_mbr_not then Ok Mbr_not
    else if opcode = op_cjump then Ok (Cjump target)
    else if opcode = op_cjumpi then Ok (Cjumpi target)
    else if opcode = op_ujump then Ok (Ujump target)
    else if opcode = op_mem_write then Ok Mem_write
    else if opcode = op_mem_read then Ok Mem_read
    else if opcode = op_mem_increment then Ok Mem_increment
    else if opcode = op_mem_minread then Ok Mem_minread
    else if opcode = op_mem_minreadinc then Ok Mem_minreadinc
    else Error (Printf.sprintf "unknown opcode 0x%02x" opcode)
  in
  match instr_of_opcode () with
  | Error _ as e -> e
  | Ok instr ->
    let own = (flag lsr 1) land 0x7 in
    let label = if own = 0 then None else Some (own - 1) in
    Ok { line = { Program.instr; label }; executed = flag land 1 = 1 }

let encode_program (p : Program.t) =
  let n = Program.length p in
  let b = Bytes.create (2 * (n + 1)) in
  Array.iteri
    (fun i l ->
      let opcode, flag = encode l in
      Bytes.set_uint8 b (2 * i) opcode;
      Bytes.set_uint8 b ((2 * i) + 1) flag)
    p.Program.lines;
  let opcode, flag = encode { Program.instr = Eof; label = None } in
  Bytes.set_uint8 b (2 * n) opcode;
  Bytes.set_uint8 b ((2 * n) + 1) flag;
  b

(* 16-bit one's-complement sum (RFC 1071 style) over the capsule bytes.
   Any single-byte corruption changes the sum: a byte delta d contributes
   d or 256*d to the word sum, both nonzero modulo 0xffff for d in
   [-255, 255] \ {0}, so a flipped byte is always caught. *)
let checksum b =
  let n = Bytes.length b in
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < n do
    sum := !sum + (Bytes.get_uint8 b !i lsl 8) + Bytes.get_uint8 b (!i + 1);
    i := !i + 2
  done;
  if n land 1 = 1 then sum := !sum + (Bytes.get_uint8 b (n - 1) lsl 8);
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  lnot !sum land 0xffff

type trace_ctx = { trace_id : int; span_id : int }

(* Trailer layout, back to front: 2-byte checksum, 1-byte extension flags,
   and (when flags bit 0 is set) an 8-byte trace extension of two u32s.
   The checksum covers payload ++ extension ++ flags, so a corrupted
   extension or flags byte is rejected like any other bit-flip — a damaged
   frame can never yield a bogus trace context. *)
let ext_flag_trace = 0x01
let trace_ext_len = 8

let set_u32 b off v =
  Bytes.set_uint8 b off ((v lsr 24) land 0xff);
  Bytes.set_uint8 b (off + 1) ((v lsr 16) land 0xff);
  Bytes.set_uint8 b (off + 2) ((v lsr 8) land 0xff);
  Bytes.set_uint8 b (off + 3) (v land 0xff)

let get_u32 b off =
  (Bytes.get_uint8 b off lsl 24)
  lor (Bytes.get_uint8 b (off + 1) lsl 16)
  lor (Bytes.get_uint8 b (off + 2) lsl 8)
  lor Bytes.get_uint8 b (off + 3)

let frame ?trace b =
  let n = Bytes.length b in
  let ext = match trace with None -> 0 | Some _ -> trace_ext_len in
  let framed = Bytes.create (n + ext + 3) in
  Bytes.blit b 0 framed 0 n;
  (match trace with
  | None -> Bytes.set_uint8 framed n 0x00
  | Some ctx ->
    set_u32 framed n (ctx.trace_id land 0xffffffff);
    set_u32 framed (n + 4) (ctx.span_id land 0xffffffff);
    Bytes.set_uint8 framed (n + ext) ext_flag_trace);
  let c = checksum (Bytes.sub framed 0 (n + ext + 1)) in
  Bytes.set_uint8 framed (n + ext + 1) (c lsr 8);
  Bytes.set_uint8 framed (n + ext + 2) (c land 0xff);
  framed

let unframe_traced framed =
  let n = Bytes.length framed in
  if n < 3 then Error "short frame: no checksum trailer"
  else begin
    let stored =
      (Bytes.get_uint8 framed (n - 2) lsl 8) lor Bytes.get_uint8 framed (n - 1)
    in
    let computed = checksum (Bytes.sub framed 0 (n - 2)) in
    if stored <> computed then
      Error
        (Printf.sprintf "checksum mismatch: stored 0x%04x, computed 0x%04x"
           stored computed)
    else begin
      let flags = Bytes.get_uint8 framed (n - 3) in
      if flags = 0x00 then Ok (Bytes.sub framed 0 (n - 3), None)
      else if flags = ext_flag_trace then begin
        if n < 3 + trace_ext_len then
          Error "short frame: trace extension truncated"
        else begin
          let off = n - 3 - trace_ext_len in
          let ctx =
            { trace_id = get_u32 framed off; span_id = get_u32 framed (off + 4) }
          in
          Ok (Bytes.sub framed 0 off, Some ctx)
        end
      end
      else Error (Printf.sprintf "unknown frame extension flags 0x%02x" flags)
    end
  end

let decode_program b ~off =
  let len = Bytes.length b in
  let rec go off acc =
    if off > len - 2 then Error "truncated program: missing EOF"
    else begin
      let opcode = Bytes.get_uint8 b off and flag = Bytes.get_uint8 b (off + 1) in
      match decode ~opcode ~flag with
      | Error _ as e -> e
      | Ok { line; executed } ->
        if line.Program.instr = Eof then begin
          let lines = List.rev acc in
          let prog = Program.v ~name:"wire" (List.map fst lines) in
          let marks = Array.of_list (List.map snd lines) in
          Ok (prog, marks, off + 2)
        end
        else go (off + 2) ((line, executed) :: acc)
    end
  in
  if off < 0 then Error (Printf.sprintf "negative program offset %d" off)
  else go off []
