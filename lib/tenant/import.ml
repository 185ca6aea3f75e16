(* Short aliases for sibling libraries used by the tenant layer. *)
module Telemetry = Activermt_telemetry.Telemetry
module Trace = Activermt_telemetry.Trace
module Allocator = Activermt_alloc.Allocator
module Pool = Activermt_alloc.Pool
module Controller = Activermt_control.Controller
module Cost_model = Activermt_control.Cost_model
module App = Activermt_apps.App
module Negotiate = Activermt_client.Negotiate
module Memsync_driver = Activermt_client.Memsync_driver
module Runtime = Activermt.Runtime
module Jit = Activermt.Jit
