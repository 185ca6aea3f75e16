module Spec = Activermt_compiler.Spec

let listing2_program =
  App.program_of_assembly ~name:"heavy-hitter-listing2"
    {|
      MBR_LOAD 0          // load key 0
      MBR2_LOAD 1         // load key 1
      COPY_HASHDATA_MBR
      COPY_HASHDATA_MBR2
      HASH
      ADDR_MASK
      ADDR_OFFSET
      MEM_MINREADINC      // sketch row 1
      COPY_MBR2_MBR
      HASH
      ADDR_MASK
      ADDR_OFFSET
      MEM_MINREADINC      // sketch row 2
      COPY_MBR_MBR2
      MAR_LOAD 2
      MEM_READ            // read hh threshold
      MIN
      MBR_EQUALS_MBR2
      CRETI
      MBR_LOAD 0          // reload key 0
      MEM_WRITE           // store key word 0
      NOP
      NOP
      COPY_MBR_MBR2
      MBR2_LOAD 1
      MEM_WRITE           // store updated threshold
      COPY_MBR_MBR2
      MEM_WRITE           // store key word 1
      RETURN
    |}

(* The aligned variant: identical sketch/check logic; the conditional tail
   is padded so the threshold write re-accesses the read's stage on the
   second pass and the key words land on their own stages.  The final
   RETURN is implicit (execution completes at end of program), keeping the
   length at exactly two passes. *)
let program =
  App.program_of_assembly ~name:"heavy-hitter"
    {|
      MBR_LOAD 0          // load key 0
      MBR2_LOAD 1         // load key 1
      COPY_HASHDATA_MBR
      COPY_HASHDATA_MBR2
      HASH
      ADDR_MASK
      ADDR_OFFSET
      MEM_MINREADINC      // sketch row 1 (stage 7)
      COPY_MBR2_MBR
      HASH
      ADDR_MASK
      ADDR_OFFSET
      MEM_MINREADINC      // sketch row 2 (stage 12)
      COPY_MBR_MBR2
      MAR_LOAD 2
      MEM_READ            // read hh threshold (stage 15)
      MIN
      MBR_EQUALS_MBR2
      CRETI               // count below threshold: done
      COPY_MBR_MBR2       // MBR <- sketched count
      MBR2_LOAD 0         // MBR2 <- key word 0
      NOP
      NOP
      NOP
      NOP
      NOP
      NOP
      NOP
      NOP
      NOP
      NOP
      NOP
      NOP
      NOP
      NOP
      MEM_WRITE           // threshold <- count (stage 15, pass 2)
      SWAP_MBR_MBR2       // MBR <- key word 0
      MEM_WRITE           // store key word 0 (stage 17, pass 2)
      MBR_LOAD 1
      MEM_WRITE           // store key word 1 (stage 19, pass 2)
    |}

let service =
  let t =
    {
      App.name = "heavy-hitter";
      programs = [ Spec.analyze program ];
      elastic = false;
      demand_blocks = [| 16; 16; 16; 16; 16; 16 |];
    }
  in
  match App.validate t with Ok t -> t | Error e -> invalid_arg e

let args ~key0 ~key1 ~slot = [| key0; key1; slot; 0 |]

let threshold_access = 2
let key0_access = 4
let key1_access = 5
