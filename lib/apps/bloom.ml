module Spec = Activermt_compiler.Spec

(* Both programs share the access/hash skeleton: HASH at positions 4, 8,
   12 (three distinct per-stage hash functions), memory at 7, 11, 15. *)
let insert_program =
  App.program_of_assembly ~name:"bloom-insert"
    {|
      MBR_LOAD 0
      MBR2_LOAD 1
      COPY_HASHDATA_MBR
      COPY_HASHDATA_MBR2
      HASH              // probe 1 (stage-4 hash engine)
      ADDR_MASK
      MBR_LOAD 2        // the constant 1
      MEM_WRITE         // set bit 1 (stage 7)
      HASH              // probe 2
      ADDR_MASK
      RTS               // acknowledge the insert
      MEM_WRITE         // set bit 2 (stage 11)
      HASH              // probe 3
      ADDR_MASK
      NOP
      MEM_WRITE         // set bit 3 (stage 15)
      RETURN
    |}

let query_program =
  App.program_of_assembly ~name:"bloom-query"
    {|
      MBR_LOAD 0
      MBR2_LOAD 1
      COPY_HASHDATA_MBR
      COPY_HASHDATA_MBR2
      HASH              // probe 1
      ADDR_MASK
      NOP
      MEM_READ          // bit 1 -> MBR (stage 7)
      HASH              // probe 2
      ADDR_MASK
      COPY_MBR2_MBR     // MBR2 <- bit 1
      MEM_READ          // bit 2 -> MBR (stage 11)
      HASH              // probe 3
      ADDR_MASK
      REVMIN            // MBR2 <- bit1 AND bit2
      MEM_READ          // bit 3 -> MBR (stage 15)
      MIN               // MBR <- AND of all probes
      CRTS              // probable member: reply to sender
      RETURN
    |}

let service =
  let t =
    {
      App.name = "bloom-filter";
      programs = [ Spec.analyze query_program; Spec.analyze insert_program ];
      elastic = true;
      demand_blocks = [| 1; 1; 1 |];
    }
  in
  match App.validate t with Ok t -> t | Error e -> invalid_arg e

let insert_args ~key0 ~key1 = [| key0; key1; 1; 0 |]
let query_args ~key0 ~key1 = [| key0; key1; 0; 0 |]

let false_positive_rate ~bits_per_stage ~inserted =
  if bits_per_stage <= 0 then 1.0
  else begin
    (* Probes hit independent per-stage arrays (a partitioned Bloom
       filter): each stage's bit is set with probability
       1 - (1 - 1/m)^n. *)
    let m = float_of_int bits_per_stage and n = float_of_int inserted in
    let p_set = 1.0 -. (((m -. 1.0) /. m) ** n) in
    p_set ** 3.0
  end
