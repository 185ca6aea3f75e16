module Spec = Activermt_compiler.Spec

let arg_cookie = 3

let syn_program =
  App.program_of_assembly ~name:"cheetah-syn"
    {|
      HASHDATA_LOAD_5TUPLE
      MAR_LOAD 0          // address of VIP pool size
      ADDR_MASK
      ADDR_OFFSET
      MEM_READ            // pool size - 1
      COPY_MBR2_MBR       // save it in MBR2
      MEM_INCREMENT       // round-robin counter (next stage, same index)
      COPY_MAR_MBR        // MAR <- counter
      COPY_MBR_MBR2       // MBR <- pool size - 1
      BIT_AND_MAR_MBR     // MAR <- counter mod pool size
      COPY_MBR_MAR        // MBR <- offset
      COPY_MBR2_MBR       // MBR2 <- offset
      MAR_LOAD 1          // address of the page table
      ADDR_MASK
      ADDR_OFFSET
      MEM_READ            // location of the VIP pool
      MAR_MBR_ADD_MBR2    // MAR <- pool base + offset
      MEM_READ            // server port
      SET_DST             // route to the server
      COPY_MBR2_MBR       // MBR2 <- server port
      MBR_LOAD 2          // salt
      COPY_HASHDATA_MBR
      NOP                 // align HASH onto stage 3 (pass 2)
      HASH                // MAR <- hash(salt, 5-tuple)
      COPY_MBR_MAR        // MBR <- hash
      MBR_EQUALS_MBR2     // MBR <- hash xor port = cookie
      MBR_STORE 3         // cookie into the packet
      RETURN
    |}

(* Position (0-based) of the SYN program's HASH; the flow program's HASH
   must execute on the same logical stage (same hash engine) for cookies
   to decode, so the shim aligns it against the granted mutant. *)
let syn_hash_position = 23

let flow_program =
  App.program_of_assembly ~name:"cheetah-flow"
    {|
      HASHDATA_LOAD_5TUPLE
      MBR_LOAD 0          // salt
      COPY_HASHDATA_MBR
      HASH                // MAR <- hash(salt, 5-tuple)
      MBR_LOAD 1          // cookie
      COPY_MBR2_MBR       // MBR2 <- cookie
      COPY_MBR_MAR        // MBR <- hash
      MBR_EQUALS_MBR2     // MBR <- hash xor cookie = port
      SET_DST
      RETURN
    |}

let flow_program_for ~hash_stage =
  if hash_stage < 0 || hash_stage >= 20 then
    invalid_arg "Cheetah_lb.flow_program_for: stage out of range";
  (* Three setup instructions precede the HASH; if the target stage is
     earlier than that, reach it on the second pass. *)
  let pad = if hash_stage < 3 then hash_stage + 20 - 3 else hash_stage - 3 in
  let lines =
    Activermt.Program.plain
      ([
         Activermt.Instr.Hashdata_load_5tuple;
         Activermt.Instr.Mbr_load Activermt.Instr.A0;
         Activermt.Instr.Copy_hashdata_mbr;
       ]
      @ List.init pad (fun _ -> Activermt.Instr.Nop)
      @ [
          Activermt.Instr.Hash;
          Activermt.Instr.Mbr_load Activermt.Instr.A1;
          Activermt.Instr.Copy_mbr2_mbr;
          Activermt.Instr.Copy_mbr_mar;
          Activermt.Instr.Mbr_equals_mbr2;
          Activermt.Instr.Set_dst;
          Activermt.Instr.Return;
        ])
  in
  Activermt.Program.v ~name:"cheetah-flow-aligned" lines

let service =
  let t =
    {
      App.name = "load-balancer";
      programs = [ Spec.analyze syn_program ];
      elastic = false;
      demand_blocks = [| 1; 1; 1; 1 |];
    }
  in
  match App.validate t with Ok t -> t | Error e -> invalid_arg e

let syn_args ~salt = [| 0; 0; salt; 0 |]
let flow_args ~salt ~cookie = [| salt; cookie; 0; 0 |]

let install_pool ~write ~accesses_stages ~ports =
  let n = Array.length ports in
  if n = 0 || n land (n - 1) <> 0 then
    invalid_arg "Cheetah_lb.install_pool: pool size must be a power of two";
  if Array.length accesses_stages <> 4 then
    invalid_arg "Cheetah_lb.install_pool: expected four access stages";
  let size_stage = accesses_stages.(0) in
  let counter_stage = accesses_stages.(1) in
  let pagetable_stage = accesses_stages.(2) in
  let pool_stage = accesses_stages.(3) in
  (* Slot 0 of the size stage holds pool_size - 1 (the round-robin mask);
     the counter starts at 0; page-table slot 0 points at the pool's base
     index within the pool stage's region. *)
  let pool_base = 1 in
  ignore (write ~stage:size_stage ~index:0 ~value:(n - 1));
  ignore (write ~stage:counter_stage ~index:0 ~value:0);
  ignore (write ~stage:pagetable_stage ~index:0 ~value:pool_base);
  Array.iteri
    (fun i port -> ignore (write ~stage:pool_stage ~index:(pool_base + i) ~value:port))
    ports
