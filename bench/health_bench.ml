(* Health-plane overhead benchmark (the BENCH_alloc.json "health"
   section): the mixed Zipf churn workload runs into a registry that
   keeps run totals only (the production default) and into one with the
   full health plane live (windows, watchdog monitor, SLO evaluation),
   and the section records the wall-clock overhead the windows impose.

   Gates (see [section]): enabling the health plane must not change a
   single admission outcome (admitted/rejected/epoch counts equal, and
   the modeled clock agrees bit for bit, in every pair), the median
   per-pair overhead stays under [max_overhead], and the standing SLOs
   over the recorded windows do not page on the healthy workload. *)

module Churn = Workload.Churn
module Churn_pipeline = Experiments.Churn_pipeline
module Telemetry = Activermt_telemetry.Telemetry
module Json = Activermt_telemetry.Json
module Slo = Activermt_health.Slo
module Monitor = Activermt_health.Monitor

let max_overhead = 0.05
let pairs = 15

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
  let mon = Monitor.create ~telemetry:(Telemetry.create ~windows:256 ()) () in
  Monitor.add_watchdog mon
    {
      Monitor.wd_name = "churn.rejection_spike";
      wd_description = "rejections spiking inside 20 modeled buckets";
      wd_window = 20;
      wd_trigger = Monitor.Series_sum { series = "churn.rejected"; max = 1e9 };
      wd_severity = Slo.Warn;
    };
  mon

let slos =
  [
    Slo.ratio ~name:"churn.admission"
      ~description:"steady-state churn keeps admitting arrivals" ~window:64
      ~good:"churn.admitted" ~total:"churn.offered" ~target:0.01 ();
  ]

(* One timed run of the workload into [telemetry].  Sys.time would
   under-count the sharded recording path, so the bench uses wall time
   like the fastpath records. *)
let timed ~telemetry zcfg =
  let t0 = Unix.gettimeofday () in
  let r = Churn_pipeline.run ~params ~telemetry ~seed zcfg in
  (Unix.gettimeofday () -. t0, r)

let run ~quick =
  let zcfg = zcfg ~quick in
  Printf.printf
    "== Health-plane overhead: mixed churn, recording on vs off (%d clients, \
     median of %d pairs) ==\n"
    zcfg.Churn.clients pairs;
  (* One untimed warmup, then [pairs] interleaved off/on pairs, the side
     that runs first alternating between pairs so neither side always
     inherits the heap the other grew.  Each pair yields one on/off
     ratio; the section reports the median ratio and its quartiles,
     which one noisy run cannot move the way it moves a best-of-N.
     Every run records into a fresh registry (no cross-trial
     accumulation); the last pair's plane is the one the SLOs
     evaluate. *)
  ignore (timed ~telemetry:(Telemetry.create ()) zcfg);
  let off () = timed ~telemetry:(Telemetry.create ()) zcfg in
  let on () =
    let mon = make_plane () in
    let t, r = timed ~telemetry:(Monitor.telemetry mon) zcfg in
    (t, r, mon)
  in
  let runs =
    List.init pairs (fun i ->
        if i mod 2 = 0 then
          let o = off () in
          (o, on ())
        else
          let n = on () in
          (off (), n))
  in
  let identical =
    List.for_all
      (fun ((_, (r_off : Churn_pipeline.result)), (_, r_on, _)) ->
        r_off.Churn_pipeline.admitted = r_on.Churn_pipeline.admitted
        && r_off.Churn_pipeline.rejected = r_on.Churn_pipeline.rejected
        && r_off.Churn_pipeline.epochs = r_on.Churn_pipeline.epochs
        && r_off.Churn_pipeline.modeled_span_s = r_on.Churn_pipeline.modeled_span_s)
      runs
  in
  let percentile p xs = Stdx.Stats.percentile xs p in
  let excess =
    List.map (fun ((t_off, _), (t_on, _, _)) -> (t_on /. t_off) -. 1.0) runs
  in
  let overhead = Float.max 0.0 (percentile 50.0 excess) in
  let t_off = percentile 50.0 (List.map (fun ((t, _), _) -> t) runs) in
  let t_on = percentile 50.0 (List.map (fun (_, (t, _, _)) -> t) runs) in
  let _, (_, r_on, mon) = List.nth runs (pairs - 1) in
  let evals = Monitor.evaluate mon slos in
  let pages = Monitor.page_count mon in
  let series_count = List.length (Telemetry.windowed (Monitor.telemetry mon)) in
  Printf.printf
    "disabled %.4f s  enabled %.4f s  overhead %+.2f%% (q1 %+.2f%%, q3 \
     %+.2f%%)  (%d admitted, %d rejected, %d series, %d SLOs, %d pages)%s\n"
    t_off t_on (100.0 *. overhead)
    (100.0 *. percentile 25.0 excess)
    (100.0 *. percentile 75.0 excess)
    r_on.Churn_pipeline.admitted r_on.Churn_pipeline.rejected series_count
    (List.length evals) pages
    (if identical then "" else "  DECISIONS DIVERGED");
  let round4 x = Json.Num (Float.round (1e4 *. x) /. 1e4) in
  [
    Json.Obj
      [
        ("max_overhead", Json.Num max_overhead);
        ("clients", Json.Num (float_of_int zcfg.Churn.clients));
        ("pairs", Json.Num (float_of_int pairs));
        ("disabled_wall_s", Json.Num (Float.round (1e6 *. t_off) /. 1e6));
        ("enabled_wall_s", Json.Num (Float.round (1e6 *. t_on) /. 1e6));
        ("overhead_frac", round4 overhead);
        ("overhead_q1", round4 (percentile 25.0 excess));
        ("overhead_q3", round4 (percentile 75.0 excess));
        ("series_count", Json.Num (float_of_int series_count));
        ("decisions_identical", Json.Num (if identical then 1.0 else 0.0));
        ("pages", Json.Num (float_of_int pages));
      ];
  ]

(* Wall times move with the machine, but overhead_frac is a ratio of two
   measurements on one box, so it gates absolutely. *)
let section =
  {
    Section.name = "health";
    info = "health-plane overhead: windows on vs off (BENCH_alloc.json)";
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
