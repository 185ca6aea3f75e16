module Spec = Activermt_compiler.Spec

let arg_count = 1

let program =
  App.program_of_assembly ~name:"flow-counter"
    {|
      MAR_LOAD 0     // flow slot
      MEM_INCREMENT  // bump the flow's packet counter
      MBR_STORE 1    // carry the updated count back
      RETURN
    |}

let service =
  let t =
    {
      App.name = "flow-counter";
      programs = [ Spec.analyze program ];
      elastic = false;
      demand_blocks = [| 4 |];
    }
  in
  match App.validate t with Ok t -> t | Error e -> invalid_arg e

let args ~slot = [| slot; 0; 0; 0 |]

let slot_of_flow ~slots key =
  if slots <= 0 then 0 else Rmt.Crc.crc32 (Array.to_list key) mod slots
