open Import

(** Large-scale client churn through the batched admission pipeline.

    Replays a {!Churn.zipf_churn} trace (Zipf program popularity,
    steady-state residency) at the allocator level: each epoch's arrivals
    go through {!Allocator.admit_batch} and its table work is charged as
    one batched write session ({!Cost_model.breakdown_batched}).

    Two clocks, kept strictly apart:
    - a {e modeled} virtual clock (allocation compute excluded, costs from
      the {!Cost_model}) drives epoch timing and the time-to-service
      distribution — every derived field is bit-identical across machines
      and reruns for a given seed, so CI can [cmp] the artifacts;
    - a {e measured} wall clock accumulates only the [admit_batch] calls
      ([admit_wall_s], [arrivals_per_sec]) — the admission-throughput
      numbers benches gate on, never byte-compared.

    Time-to-service: after [calibration_epochs] epochs fix the mean epoch
    duration, arrivals are spaced openly at ~90% of the pipeline's
    admission rate; a client's service time is the end of the epoch that
    admitted it minus its arrival time. *)

type result = {
  clients : int;
  batch : int;
  epochs : int;
  admitted : int;
  rejected : int;
  rescored : int;  (** conflict fallbacks across all epochs *)
  memo_hits : int;
  stage_refills : int;
  refills_saved : int;
  departures : int;
  final_residents : int;
  final_utilization : float;
  p50_tts_ms : float;  (** modeled time-to-service, admitted clients *)
  p99_tts_ms : float;
  max_tts_ms : float;
  modeled_span_s : float;  (** total virtual control-plane time *)
  modeled_arrivals_per_sec : float;
  admit_wall_s : float;  (** measured: sum of [admit_batch] wall time *)
  arrivals_per_sec : float;  (** measured: clients / [admit_wall_s] *)
}

val run :
  ?telemetry:Telemetry.t ->
  ?tracer:Trace.t ->
  ?clock:(unit -> float) ->
  params:Rmt.Params.t ->
  seed:int ->
  Churn.zipf_config ->
  result
(** The allocator runs its default scheme and policy, and the modeled
    clock prices each epoch with {!Cost_model.default}.  [clock]
    (default [Sys.time]) feeds only the measured fields.
    [telemetry] (default {!Telemetry.default}) receives the allocator's
    metrics and each epoch's [churn.offered/admitted/rejected] on the
    modeled clock; when it keeps windows, its clock is rewired to that
    modeled clock.  Pass a [tracer] to record per-epoch [churn.epoch]
    spans (head-sampled) with the allocator's batch spans beneath them. *)
