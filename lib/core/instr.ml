type arg = A0 | A1 | A2 | A3

let arg_index = function A0 -> 0 | A1 -> 1 | A2 -> 2 | A3 -> 3

let arg_of_index = function
  | 0 -> Some A0
  | 1 -> Some A1
  | 2 -> Some A2
  | 3 -> Some A3
  | _ -> None

type label = int

type t =
  | Mbr_load of arg
  | Mbr_store of arg
  | Mbr2_load of arg
  | Mar_load of arg
  | Copy_mbr_mbr2
  | Copy_mbr2_mbr
  | Copy_mbr_mar
  | Copy_mar_mbr
  | Copy_hashdata_mbr
  | Copy_hashdata_mbr2
  | Hashdata_load_5tuple
  | Mbr_add_mbr2
  | Mar_add_mbr
  | Mar_add_mbr2
  | Mar_mbr_add_mbr2
  | Mbr_subtract_mbr2
  | Bit_and_mar_mbr
  | Bit_or_mbr_mbr2
  | Mbr_equals_mbr2
  | Mbr_equals_data of arg
  | Max
  | Min
  | Revmin
  | Swap_mbr_mbr2
  | Mbr_not
  | Return
  | Cret
  | Creti
  | Cjump of label
  | Cjumpi of label
  | Ujump of label
  | Mem_write
  | Mem_read
  | Mem_increment
  | Mem_minread
  | Mem_minreadinc
  | Drop
  | Fork
  | Set_dst
  | Rts
  | Crts
  | Eof
  | Nop
  | Addr_mask
  | Addr_offset
  | Hash

let equal (a : t) (b : t) = a = b

let is_memory_access = function
  | Mem_write | Mem_read | Mem_increment | Mem_minread | Mem_minreadinc -> true
  | Mbr_load _ | Mbr_store _ | Mbr2_load _ | Mar_load _ | Copy_mbr_mbr2
  | Copy_mbr2_mbr | Copy_mbr_mar | Copy_mar_mbr | Copy_hashdata_mbr
  | Copy_hashdata_mbr2 | Hashdata_load_5tuple | Mbr_add_mbr2 | Mar_add_mbr
  | Mar_add_mbr2 | Mar_mbr_add_mbr2 | Mbr_subtract_mbr2 | Bit_and_mar_mbr
  | Bit_or_mbr_mbr2 | Mbr_equals_mbr2 | Mbr_equals_data _ | Max | Min | Revmin
  | Swap_mbr_mbr2 | Mbr_not | Return | Cret | Creti | Cjump _ | Cjumpi _
  | Ujump _ | Drop | Fork | Set_dst | Rts | Crts | Eof | Nop | Addr_mask
  | Addr_offset | Hash ->
    false

let needs_ingress = function
  | Rts | Crts -> true
  | _ -> false

let branch_target = function
  | Cjump l | Cjumpi l | Ujump l -> Some l
  | _ -> None

let mnemonic = function
  | Mbr_load a -> Printf.sprintf "MBR_LOAD %d" (arg_index a)
  | Mbr_store a -> Printf.sprintf "MBR_STORE %d" (arg_index a)
  | Mbr2_load a -> Printf.sprintf "MBR2_LOAD %d" (arg_index a)
  | Mar_load a -> Printf.sprintf "MAR_LOAD %d" (arg_index a)
  | Copy_mbr_mbr2 -> "COPY_MBR_MBR2"
  | Copy_mbr2_mbr -> "COPY_MBR2_MBR"
  | Copy_mbr_mar -> "COPY_MBR_MAR"
  | Copy_mar_mbr -> "COPY_MAR_MBR"
  | Copy_hashdata_mbr -> "COPY_HASHDATA_MBR"
  | Copy_hashdata_mbr2 -> "COPY_HASHDATA_MBR2"
  | Hashdata_load_5tuple -> "HASHDATA_LOAD_5TUPLE"
  | Mbr_add_mbr2 -> "MBR_ADD_MBR2"
  | Mar_add_mbr -> "MAR_ADD_MBR"
  | Mar_add_mbr2 -> "MAR_ADD_MBR2"
  | Mar_mbr_add_mbr2 -> "MAR_MBR_ADD_MBR2"
  | Mbr_subtract_mbr2 -> "MBR_SUBTRACT_MBR2"
  | Bit_and_mar_mbr -> "BIT_AND_MAR_MBR"
  | Bit_or_mbr_mbr2 -> "BIT_OR_MBR_MBR2"
  | Mbr_equals_mbr2 -> "MBR_EQUALS_MBR2"
  | Mbr_equals_data a -> Printf.sprintf "MBR_EQUALS_DATA %d" (arg_index a)
  | Max -> "MAX"
  | Min -> "MIN"
  | Revmin -> "REVMIN"
  | Swap_mbr_mbr2 -> "SWAP_MBR_MBR2"
  | Mbr_not -> "MBR_NOT"
  | Return -> "RETURN"
  | Cret -> "CRET"
  | Creti -> "CRETI"
  | Cjump l -> Printf.sprintf "CJUMP L%d" l
  | Cjumpi l -> Printf.sprintf "CJUMPI L%d" l
  | Ujump l -> Printf.sprintf "UJUMP L%d" l
  | Mem_write -> "MEM_WRITE"
  | Mem_read -> "MEM_READ"
  | Mem_increment -> "MEM_INCREMENT"
  | Mem_minread -> "MEM_MINREAD"
  | Mem_minreadinc -> "MEM_MINREADINC"
  | Drop -> "DROP"
  | Fork -> "FORK"
  | Set_dst -> "SET_DST"
  | Rts -> "RTS"
  | Crts -> "CRTS"
  | Eof -> "EOF"
  | Nop -> "NOP"
  | Addr_mask -> "ADDR_MASK"
  | Addr_offset -> "ADDR_OFFSET"
  | Hash -> "HASH"

let parse_arg s =
  match int_of_string_opt s with
  | Some i -> (
    match arg_of_index i with
    | Some a -> Ok a
    | None -> Error (Printf.sprintf "argument index %d out of range 0..3" i))
  | None -> Error (Printf.sprintf "expected argument index, got %S" s)

let parse_label s =
  let body =
    if String.length s > 1 && (s.[0] = 'L' || s.[0] = 'l') then
      String.sub s 1 (String.length s - 1)
    else s
  in
  match int_of_string_opt body with
  | Some l when l >= 0 && l <= 6 -> Ok l
  | Some l -> Error (Printf.sprintf "label %d out of range 0..6" l)
  | None -> Error (Printf.sprintf "expected label, got %S" s)

let of_mnemonic line =
  let tokens =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  let with_arg name rest k =
    match rest with
    | [ operand ] -> Result.map k (parse_arg operand)
    | [] -> Error (name ^ ": missing argument index")
    | _ -> Error (name ^ ": too many operands")
  in
  let with_label name rest k =
    match rest with
    | [ operand ] -> Result.map k (parse_label operand)
    | [] -> Error (name ^ ": missing label")
    | _ -> Error (name ^ ": too many operands")
  in
  match tokens with
  | [] -> Error "empty instruction"
  | op :: rest -> (
    let bare v =
      match rest with
      | [] -> Ok v
      | _ -> Error (op ^ ": unexpected operand")
    in
    match String.uppercase_ascii op with
    | "MBR_LOAD" -> with_arg op rest (fun a -> Mbr_load a)
    | "MBR_STORE" -> (
      (* Listing 1 writes MBR_STORE without an operand (first data field). *)
      match rest with
      | [] -> Ok (Mbr_store A0)
      | _ -> with_arg op rest (fun a -> Mbr_store a))
    | "MBR2_LOAD" -> with_arg op rest (fun a -> Mbr2_load a)
    | "MAR_LOAD" -> with_arg op rest (fun a -> Mar_load a)
    | "COPY_MBR_MBR2" -> bare Copy_mbr_mbr2
    | "COPY_MBR2_MBR" -> bare Copy_mbr2_mbr
    | "COPY_MBR_MAR" -> bare Copy_mbr_mar
    | "COPY_MAR_MBR" -> bare Copy_mar_mbr
    | "COPY_HASHDATA_MBR" -> bare Copy_hashdata_mbr
    | "COPY_HASHDATA_MBR2" -> bare Copy_hashdata_mbr2
    | "HASHDATA_LOAD_5TUPLE" -> bare Hashdata_load_5tuple
    | "MBR_ADD_MBR2" -> bare Mbr_add_mbr2
    | "MAR_ADD_MBR" -> bare Mar_add_mbr
    | "MAR_ADD_MBR2" -> bare Mar_add_mbr2
    | "MAR_MBR_ADD_MBR2" -> bare Mar_mbr_add_mbr2
    | "MBR_SUBTRACT_MBR2" -> bare Mbr_subtract_mbr2
    | "BIT_AND_MAR_MBR" -> bare Bit_and_mar_mbr
    | "BIT_OR_MBR_MBR2" -> bare Bit_or_mbr_mbr2
    | "MBR_EQUALS_MBR2" -> bare Mbr_equals_mbr2
    | "MBR_EQUALS_DATA" -> with_arg op rest (fun a -> Mbr_equals_data a)
    | "MAX" -> bare Max
    | "MIN" -> bare Min
    | "REVMIN" -> bare Revmin
    | "SWAP_MBR_MBR2" -> bare Swap_mbr_mbr2
    | "MBR_NOT" -> bare Mbr_not
    | "RETURN" -> bare Return
    | "CRET" -> bare Cret
    | "CRETI" | "CRET1" -> bare Creti
    | "CJUMP" -> with_label op rest (fun l -> Cjump l)
    | "CJUMPI" -> with_label op rest (fun l -> Cjumpi l)
    | "UJUMP" -> with_label op rest (fun l -> Ujump l)
    | "MEM_WRITE" -> bare Mem_write
    | "MEM_READ" -> bare Mem_read
    | "MEM_INCREMENT" -> bare Mem_increment
    | "MEM_MINREAD" -> bare Mem_minread
    | "MEM_MINREADINC" -> bare Mem_minreadinc
    | "DROP" -> bare Drop
    | "FORK" -> bare Fork
    | "SET_DST" -> bare Set_dst
    | "RTS" -> bare Rts
    | "CRTS" -> bare Crts
    | "EOF" -> bare Eof
    | "NOP" -> bare Nop
    | "ADDR_MASK" -> bare Addr_mask
    | "ADDR_OFFSET" -> bare Addr_offset
    | "HASH" -> bare Hash
    | other -> Error ("unknown mnemonic " ^ other))

let all_opcodes =
  let args = [ A0; A1; A2; A3 ] in
  let labels = [ 0; 1; 2; 3; 4; 5; 6 ] in
  List.concat
    [
      List.map (fun a -> Mbr_load a) args;
      List.map (fun a -> Mbr_store a) args;
      List.map (fun a -> Mbr2_load a) args;
      List.map (fun a -> Mar_load a) args;
      [
        Copy_mbr_mbr2; Copy_mbr2_mbr; Copy_mbr_mar; Copy_mar_mbr;
        Copy_hashdata_mbr; Copy_hashdata_mbr2; Hashdata_load_5tuple;
        Mbr_add_mbr2; Mar_add_mbr; Mar_add_mbr2; Mar_mbr_add_mbr2;
        Mbr_subtract_mbr2; Bit_and_mar_mbr; Bit_or_mbr_mbr2; Mbr_equals_mbr2;
      ];
      List.map (fun a -> Mbr_equals_data a) args;
      [ Max; Min; Revmin; Swap_mbr_mbr2; Mbr_not; Return; Cret; Creti ];
      List.map (fun l -> Cjump l) labels;
      List.map (fun l -> Cjumpi l) labels;
      List.map (fun l -> Ujump l) labels;
      [
        Mem_write; Mem_read; Mem_increment; Mem_minread; Mem_minreadinc; Drop;
        Fork; Set_dst; Rts; Crts; Eof; Nop; Addr_mask; Addr_offset; Hash;
      ];
    ]
