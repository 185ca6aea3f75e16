(* Churn-at-scale benchmark (the BENCH_alloc.json "churn" section):
   simulated clients arriving under Zipf program popularity and departing
   at steady state, admitted through the batched epoch pipeline
   (Allocator.admit_batch + one batched table-write session per epoch).

     quick  50k clients (the CI smoke scale)
     full   1M clients (the ROADMAP "millions of users" scale)

   Two numbers matter:
   - measured admission throughput (arrivals / admit_batch wall time),
     against a sequential Allocator.admit replay of a prefix of the same
     trace;
   - modeled p99 time-to-service from the deterministic virtual clock
     (machine-independent).
   Gates: see [section]. *)

module Allocator = Activermt_alloc.Allocator
module Churn = Workload.Churn
module Churn_pipeline = Experiments.Churn_pipeline
module Harness = Experiments.Harness
module Telemetry = Activermt_telemetry.Telemetry
module Json = Activermt_telemetry.Json

let params = Rmt.Params.default
let min_batch_speedup = 10.0
let target_arrivals_per_sec = 100_000.0
let seed = 4242

(* Sequential reference: the pre-batching control plane — one
   Allocator.admit per arrival — over a prefix of the same churn trace.
   A prefix because the whole point is that the sequential path cannot
   keep up; replaying all 1M clients through it would take minutes. *)
let measure_sequential ~prefix_arrivals zcfg =
  let alloc = Allocator.create ~telemetry:(Telemetry.create ()) params in
  let block_bytes = Rmt.Params.bytes_per_block params in
  let rng = Stdx.Prng.create ~seed in
  let trace = Churn.zipf_churn zcfg rng in
  let done_ = ref 0 in
  let admit_wall = ref 0.0 in
  let step (e : Churn.epoch) =
    List.iter
      (function
        | Churn.Arrive { fid; kind; _ } ->
          if !done_ < prefix_arrivals then begin
            incr done_;
            let a = Harness.arrival_of ~fid kind ~block_bytes in
            let t0 = Unix.gettimeofday () in
            ignore (Allocator.admit alloc a);
            admit_wall := !admit_wall +. (Unix.gettimeofday () -. t0)
          end
        | Churn.Depart { fid } -> ignore (Allocator.depart alloc ~fid))
      e.Churn.events;
    !done_ < prefix_arrivals
  in
  let rec loop seq =
    match seq () with
    | Seq.Nil -> ()
    | Seq.Cons (e, rest) -> if step e then loop rest
  in
  loop trace;
  Allocator.shutdown alloc;
  if !admit_wall > 0.0 then float_of_int !done_ /. !admit_wall else 0.0

let json_section ~clients ~(r : Churn_pipeline.result) ~sequential_aps ~speedup =
  let num v = Json.Num (Float.round (10.0 *. v) /. 10.0) in
  Json.Obj
    [
      ("min_batch_speedup", Json.Num min_batch_speedup);
      ("target_arrivals_per_sec", Json.Num target_arrivals_per_sec);
      ("clients", Json.Num (float_of_int clients));
      ("batch", Json.Num (float_of_int r.Churn_pipeline.batch));
      ("seed", Json.Num (float_of_int seed));
      ("epochs", Json.Num (float_of_int r.Churn_pipeline.epochs));
      ("admitted", Json.Num (float_of_int r.Churn_pipeline.admitted));
      ("rejected", Json.Num (float_of_int r.Churn_pipeline.rejected));
      ("rescored", Json.Num (float_of_int r.Churn_pipeline.rescored));
      ("memo_hits", Json.Num (float_of_int r.Churn_pipeline.memo_hits));
      ("refills_saved", Json.Num (float_of_int r.Churn_pipeline.refills_saved));
      ("batched_arrivals_per_sec", num r.Churn_pipeline.arrivals_per_sec);
      ("sequential_arrivals_per_sec", num sequential_aps);
      ("batch_speedup", Json.Num (Float.round (100.0 *. speedup) /. 100.0));
      ( "modeled_arrivals_per_sec",
        num r.Churn_pipeline.modeled_arrivals_per_sec );
      ("p50_tts_ms", Json.Num r.Churn_pipeline.p50_tts_ms);
      ("p99_tts_ms", Json.Num r.Churn_pipeline.p99_tts_ms);
    ]

let run ~quick =
  let clients = if quick then 50_000 else 1_000_000 in
  let prefix_arrivals = if quick then 3_000 else 10_000 in
  let zcfg = { Churn.default_zipf_config with Churn.clients } in
  Printf.printf
    "== Churn at scale: batched epoch admission (clients=%d, batch=%d) ==\n"
    clients zcfg.Churn.batch;
  let r =
    Churn_pipeline.run ~clock:Unix.gettimeofday ~params ~seed zcfg
  in
  let sequential_aps = measure_sequential ~prefix_arrivals zcfg in
  let speedup =
    if sequential_aps > 0.0 then r.Churn_pipeline.arrivals_per_sec /. sequential_aps
    else 0.0
  in
  Printf.printf
    "batched     %9.1f arrivals/s  (%d epochs, %d admitted, %d rejected, %d \
     rescored)\n"
    r.Churn_pipeline.arrivals_per_sec r.Churn_pipeline.epochs
    r.Churn_pipeline.admitted r.Churn_pipeline.rejected r.Churn_pipeline.rescored;
  Printf.printf "sequential  %9.1f arrivals/s  (prefix of %d arrivals)\n"
    sequential_aps prefix_arrivals;
  Printf.printf "speedup     %9.2fx  (gate >= %.0fx; target %.0f arrivals/s)\n"
    speedup min_batch_speedup target_arrivals_per_sec;
  Printf.printf
    "time-to-service (modeled)  p50 %.3f ms  p99 %.3f ms  max %.3f ms\n"
    r.Churn_pipeline.p50_tts_ms r.Churn_pipeline.p99_tts_ms
    r.Churn_pipeline.max_tts_ms;
  Printf.printf "fills: %d coalesced stage refills, %d saved; %d memo hits\n"
    r.Churn_pipeline.stage_refills r.Churn_pipeline.refills_saved
    r.Churn_pipeline.memo_hits;
  if r.Churn_pipeline.arrivals_per_sec < target_arrivals_per_sec then
    Printf.printf "NOTE: below the %.0f arrivals/s target on this machine\n"
      target_arrivals_per_sec;

  [ json_section ~clients ~r ~sequential_aps ~speedup ]

let section =
  {
    Section.name = "churn";
    info = "Zipf churn at scale: batched epoch admission (BENCH_alloc.json)";
    keys = [ "churn" ];
    run;
    metrics =
      (fun file ->
        [
          ( "",
            Section.nums [ "batch_speedup"; "p99_tts_ms"; "batched_arrivals_per_sec" ]
              (Section.member "churn" file) );
        ]);
    gates =
      [
        Section.gate "batch_speedup" (At_least min_batch_speedup);
        Section.gate "batch_speedup" (Max_drop 0.3);
        Section.gate "p99_tts_ms" (Max_growth 2.0);
        Section.gate "batched_arrivals_per_sec" (Max_drop 0.3);
      ];
  }
