(* Short aliases for the compiler library's modules used throughout the
   allocator. *)
module Spec = Activermt_compiler.Spec
module Mutant = Activermt_compiler.Mutant
module Telemetry = Activermt_telemetry.Telemetry
module Trace = Activermt_telemetry.Trace
