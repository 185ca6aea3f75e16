(* Health-plane overhead benchmark (the BENCH_alloc.json "health"
   section): the mixed Zipf churn workload runs twice — once with the
   series registry disabled (Timeseries.noop, the production default)
   and once with the full health plane live (windowed series, watchdog
   monitor, SLO evaluation) — and the section records the wall-clock
   overhead recording imposes.

   Gates (see [section]): enabling the health plane must not change a
   single admission outcome (admitted/rejected/epoch counts equal, and
   the modeled clock agrees bit for bit), its best-of-[trials] wall-time
   overhead stays under [max_overhead], and the standing SLOs over the
   recorded series do not page on the healthy workload. *)

module Churn = Workload.Churn
module Churn_pipeline = Experiments.Churn_pipeline
module Timeseries = Activermt_telemetry.Timeseries
module Json = Activermt_telemetry.Json
module Slo = Activermt_health.Slo
module Monitor = Activermt_health.Monitor

let max_overhead = 0.05
let trials = 5

let zcfg ~quick =
  {
    Churn.default_zipf_config with
    Churn.clients = (if quick then 20_000 else 60_000);
    batch = 64;
    resident_target = 64;
  }

let params = Rmt.Params.default
let seed = 4242

(* The health plane a deployment would run over this workload: one
   (generous) watchdog plus an admission-ratio SLO.  The registry clock
   is rewired by the pipeline to its modeled epoch clock. *)
let make_plane () =
  let series = Timeseries.create ~bucket_s:1.0 ~capacity:256 () in
  let mon = Monitor.create ~series () in
  Monitor.add_watchdog mon
    {
      Monitor.wd_name = "churn.rejection_spike";
      wd_description = "rejections spiking inside 20 modeled buckets";
      wd_window = 20;
      wd_trigger = Monitor.Series_sum { series = "churn.rejected"; max = 1e9 };
      wd_severity = Slo.Warn;
    };
  (series, mon)

let slos =
  [
    Slo.ratio ~name:"churn.admission"
      ~description:"steady-state churn keeps admitting arrivals" ~window:64
      ~good:"churn.admitted" ~total:"churn.offered" ~target:0.01 ();
  ]

(* One timed run of the workload; [series] is noop for the disabled
   side.  Sys.time would under-count the sharded recording path, so the
   bench uses wall time like the fastpath records. *)
let timed ~series zcfg =
  let t0 = Unix.gettimeofday () in
  let r = Churn_pipeline.run ~params ~series ~seed zcfg in
  (Unix.gettimeofday () -. t0, r)

let run ~quick =
  let zcfg = zcfg ~quick in
  Printf.printf
    "== Health-plane overhead: mixed churn, recording on vs off (%d clients, best of %d) ==\n"
    zcfg.Churn.clients trials;
  (* One untimed warmup, then interleaved disabled/enabled pairs.  The
     naive all-disabled-then-all-enabled ordering measured a phantom
     ~6-12% "overhead" at full scale: the disabled trials all ran on a
     small young heap and the enabled trials inherited the major heap
     the earlier runs had grown, a systematic drift best-of-N cannot
     cancel.  Alternating sides puts both on the same heap trajectory.
     A fresh registry per enabled trial keeps each run recording the
     same series (no cross-trial accumulation); the fastest enabled
     trial's plane is the one the SLOs evaluate. *)
  ignore (timed ~series:Timeseries.noop zcfg);
  let off_trial () = timed ~series:Timeseries.noop zcfg in
  let on_trial () =
    let series, mon = make_plane () in
    let t, r = timed ~series zcfg in
    (t, r, series, mon)
  in
  let best_off = ref (off_trial ()) in
  let best_on = ref (on_trial ()) in
  for _ = 2 to trials do
    let off = off_trial () in
    if fst off < fst !best_off then best_off := off;
    let ((t, _, _, _) as on) = on_trial () in
    let bt, _, _, _ = !best_on in
    if t < bt then best_on := on
  done;
  let t_off, r_off = !best_off in
  let t_on, r_on, series, mon = !best_on in
  let evals = Monitor.evaluate mon slos in
  let pages = Monitor.page_count mon in
  let identical =
    r_off.Churn_pipeline.admitted = r_on.Churn_pipeline.admitted
    && r_off.Churn_pipeline.rejected = r_on.Churn_pipeline.rejected
    && r_off.Churn_pipeline.epochs = r_on.Churn_pipeline.epochs
    && r_off.Churn_pipeline.modeled_span_s = r_on.Churn_pipeline.modeled_span_s
  in
  let overhead = Float.max 0.0 ((t_on /. t_off) -. 1.0) in
  Printf.printf
    "disabled %.4f s  enabled %.4f s  overhead %+.2f%%  (%d admitted, %d \
     rejected, %d series, %d SLOs, %d pages)%s\n"
    t_off t_on (100.0 *. overhead) r_on.Churn_pipeline.admitted
    r_on.Churn_pipeline.rejected
    (List.length (Timeseries.names series))
    (List.length evals) pages
    (if identical then "" else "  DECISIONS DIVERGED");
  [
    Json.Obj
      [
        ("max_overhead", Json.Num max_overhead);
        ("clients", Json.Num (float_of_int zcfg.Churn.clients));
        ("trials", Json.Num (float_of_int trials));
        ("disabled_wall_s", Json.Num (Float.round (1e6 *. t_off) /. 1e6));
        ("enabled_wall_s", Json.Num (Float.round (1e6 *. t_on) /. 1e6));
        ("overhead_frac", Json.Num (Float.round (1e4 *. overhead) /. 1e4));
        ("series_count", Json.Num (float_of_int (List.length (Timeseries.names series))));
        ("decisions_identical", Json.Num (if identical then 1.0 else 0.0));
        ("pages", Json.Num (float_of_int pages));
      ];
  ]

(* Wall times move with the machine, but overhead_frac is a ratio of two
   measurements on one box, so it gates absolutely. *)
let section =
  {
    Section.name = "health";
    info = "health-plane overhead: series recording on vs off (BENCH_alloc.json)";
    keys = [ "health" ];
    run;
    metrics =
      (fun file ->
        [
          ( "",
            Section.nums [ "overhead_frac"; "decisions_identical"; "pages" ]
              (Section.member "health" file) );
        ]);
    gates =
      [
        Section.gate "overhead_frac" (At_most max_overhead);
        Section.gate "decisions_identical" (Equal 1.0);
        Section.gate "pages" (Equal 0.0);
      ];
  }
