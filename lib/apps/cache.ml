module Spec = Activermt_compiler.Spec

let arg_bucket = 0
let arg_key0 = 1
let arg_key1 = 2
let arg_value = 3

let query_program =
  App.program_of_assembly ~name:"cache-query"
    {|
      MAR_LOAD 0        // locate bucket
      MEM_READ          // first 4 bytes of key
      MBR_EQUALS_DATA 1 // compare bytes
      CRET              // partial match?
      MEM_READ          // next 4 bytes
      MBR_EQUALS_DATA 2 // compare bytes
      CRET              // full match?
      RTS               // create reply
      MEM_READ          // read the value
      MBR_STORE 3       // write to packet
      RETURN            // fin.
    |}

(* Same access skeleton as the query (positions 2, 5, 9 one-based) so the
   service's mutant shift schedules both programs onto the same stages.
   MBR is preloaded from argument 1 (Appendix C's preloading trick), so
   the first write needs no explicit load. *)
let populate_program =
  App.program_of_assembly ~name:"cache-populate"
    {|
      MAR_LOAD 0        // locate bucket
      MEM_WRITE         // store key word 0 (MBR preloaded from arg 1)
      MBR_LOAD 2
      NOP
      MEM_WRITE         // store key word 1
      MBR_LOAD 3
      NOP
      RTS               // acknowledge the write
      MEM_WRITE         // store the value
      NOP
      RETURN
    |}

let service =
  let t =
    {
      App.name = "cache";
      programs = [ Spec.analyze query_program; Spec.analyze populate_program ];
      elastic = true;
      demand_blocks = [| 1; 1; 1 |];
    }
  in
  match App.validate t with Ok t -> t | Error e -> invalid_arg e

let query_args ~bucket ~key0 ~key1 = [| bucket; key0; key1; 0 |]

let populate_args ~bucket ~key0 ~key1 ~value = [| bucket; key0; key1; value |]

let bucket_of_key ~capacity ~key0 ~key1 =
  if capacity <= 0 then 0
  else Rmt.Crc.crc32_2 key0 key1 mod capacity
