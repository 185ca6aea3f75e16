(* Short aliases for sibling libraries used by the controller. *)
module Spec = Activermt_compiler.Spec
module Mutant = Activermt_compiler.Mutant
module Allocator = Activermt_alloc.Allocator
module Telemetry = Activermt_telemetry.Telemetry
module Timeseries = Activermt_telemetry.Timeseries
module Trace = Activermt_telemetry.Trace
