(* Health-plane tests: Timeseries windowing, ring eviction and dump
   round-trips; Slo multi-window burn-rate evaluation; Monitor watchdog
   transitions, trace-id linking and deterministic reports.

   Everything here drives an explicit virtual clock — no wall time — so
   every assertion is exact, including the byte-identity checks that back
   the healthcheck goldens. *)

module Timeseries = Activermt_telemetry.Timeseries
module Json = Activermt_telemetry.Json
module Slo = Activermt_health.Slo
module Monitor = Activermt_health.Monitor

let check_float = Alcotest.(check (float 1e-9))

(* -- Timeseries ------------------------------------------------------------ *)

let test_ts_bucketing () =
  let ts = Timeseries.create ~bucket_s:1.0 ~capacity:8 () in
  Timeseries.add ts ~t:0.25 "c";
  Timeseries.add ts ~t:0.75 ~by:2.0 "c";
  Timeseries.add ts ~t:1.5 ~by:5.0 "c";
  let ws = Timeseries.windows ts "c" in
  Alcotest.(check (list int)) "bucket indices" [ 0; 1 ]
    (List.map (fun w -> w.Timeseries.w_index) ws);
  Alcotest.(check (list int)) "bucket counts" [ 2; 1 ]
    (List.map (fun w -> w.Timeseries.w_count) ws);
  Alcotest.(check (list (float 1e-9))) "bucket sums" [ 3.0; 5.0 ]
    (List.map (fun w -> w.Timeseries.w_sum) ws);
  Alcotest.(check (option string)) "counter kind" (Some "counter")
    (Option.map
       (function `Counter -> "counter" | `Dist -> "dist")
       (Timeseries.kind_of ts "c"))

let test_ts_ring_eviction () =
  let ts = Timeseries.create ~bucket_s:1.0 ~capacity:4 () in
  for i = 0 to 9 do
    Timeseries.add ts ~t:(float_of_int i +. 0.5) ~by:(float_of_int i) "c"
  done;
  let ws = Timeseries.windows ts "c" in
  Alcotest.(check (list int)) "only the newest capacity windows survive"
    [ 6; 7; 8; 9 ]
    (List.map (fun w -> w.Timeseries.w_index) ws);
  let agg = Timeseries.aggregate ts "c" in
  check_float "aggregate over retained windows" (6.0 +. 7.0 +. 8.0 +. 9.0)
    agg.Timeseries.a_sum;
  Alcotest.(check int) "windows covered" 4 agg.Timeseries.a_windows;
  (* [~last] narrows further than retention. *)
  let agg2 = Timeseries.aggregate ~last:2 ts "c" in
  check_float "last-2 sum" 17.0 agg2.Timeseries.a_sum

let test_ts_dist_stats () =
  let ts = Timeseries.create ~bucket_s:1.0 ~capacity:8 () in
  List.iteri
    (fun i v -> Timeseries.observe ts ~t:(0.1 *. float_of_int i) "d" v)
    [ 0.5; 1.0; 2.0; 4.0 ];
  let agg = Timeseries.aggregate ts "d" in
  Alcotest.(check int) "count" 4 agg.Timeseries.a_count;
  check_float "min" 0.5 agg.Timeseries.a_min;
  check_float "max" 4.0 agg.Timeseries.a_max;
  (* Quantile endpoints clamp to the exact observed min/max. *)
  check_float "q0" 0.5 (Timeseries.quantile ts "d" 0.0);
  check_float "q1" 4.0 (Timeseries.quantile ts "d" 1.0);
  Alcotest.check_raises "q outside [0,1]"
    (Invalid_argument "Timeseries.quantile: q outside [0, 1]") (fun () ->
      ignore (Timeseries.quantile ts "d" 1.5))

let test_ts_kind_mismatch () =
  let ts = Timeseries.create () in
  Timeseries.add ts "c";
  Alcotest.check_raises "counter observed as dist"
    (Invalid_argument "Timeseries: c is a counter series, not a dist")
    (fun () -> Timeseries.observe ts "c" 1.0)

let test_ts_noop () =
  let ts = Timeseries.noop in
  Alcotest.(check bool) "disabled" false (Timeseries.enabled ts);
  Timeseries.add ts "c";
  Timeseries.observe ts "d" 1.0;
  Alcotest.(check (list string)) "records nothing" [] (Timeseries.names ts);
  check_float "clock pinned" 0.0 (Timeseries.now ts)

(* Feed one registry through the script, twice; the dumps must agree to
   the byte and survive a print/parse round-trip. *)
let feed_script ts =
  for i = 0 to 19 do
    let t = 0.5 *. float_of_int i in
    Timeseries.add ts ~t ~by:(float_of_int (i mod 3)) "a.count";
    Timeseries.observe ts ~t "a.lat" (0.001 *. float_of_int ((i * 7) mod 13))
  done

let test_ts_json_roundtrip_and_determinism () =
  let mk () =
    let ts = Timeseries.create ~bucket_s:1.0 ~capacity:16 () in
    feed_script ts;
    ts
  in
  let ts = mk () in
  let s1 = Json.to_string (Timeseries.json_of ts) in
  let s2 = Json.to_string (Timeseries.json_of (mk ())) in
  Alcotest.(check string) "same feed, byte-identical dump" s1 s2;
  match Timeseries.dump_of_string s1 with
  | Error e -> Alcotest.failf "dump_of_string: %s" e
  | Ok d ->
    check_float "bucket_s survives" 1.0 d.Timeseries.d_bucket_s;
    Alcotest.(check int) "capacity survives" 16 d.Timeseries.d_capacity;
    Alcotest.(check (list string)) "series names survive"
      [ "a.count"; "a.lat" ]
      (List.map (fun (n, _, _) -> n) d.Timeseries.d_series);
    let _, _, ws =
      List.find (fun (n, _, _) -> n = "a.count") d.Timeseries.d_series
    in
    Alcotest.(check (list int)) "windows survive"
      (List.map (fun w -> w.Timeseries.w_index) (Timeseries.windows ts "a.count"))
      (List.map (fun w -> w.Timeseries.w_index) ws)

let test_ts_dump_rejects_garbage () =
  Alcotest.(check bool) "not an object" true
    (Result.is_error (Timeseries.dump_of_string "[1,2]"));
  Alcotest.(check bool) "unparsable" true
    (Result.is_error (Timeseries.dump_of_string "{"));
  Alcotest.(check bool) "series entry not an object" true
    (Result.is_error (Timeseries.dump_of_string "{\"series\": {\"x\": 3}}"));
  Alcotest.(check bool) "series without windows" true
    (Result.is_error (Timeseries.dump_of_string "{\"series\": {\"x\": {}}}"));
  (* Missing top-level fields default (bucket_s 1.0, capacity 128, no
     series) so fleettop accepts dumps from older writers. *)
  match Timeseries.dump_of_string "{\"bucket_s\": 2.0}" with
  | Error e -> Alcotest.failf "lenient parse failed: %s" e
  | Ok d ->
    check_float "explicit bucket_s" 2.0 d.Timeseries.d_bucket_s;
    Alcotest.(check int) "defaulted capacity" 128 d.Timeseries.d_capacity;
    Alcotest.(check int) "no series" 0 (List.length d.Timeseries.d_series)

(* -- SLO burn rates -------------------------------------------------------- *)

(* A ratio SLO over 10 one-second buckets with a single-bucket fast
   window: pages only when both windows burn, warns when only the slow
   window does. *)
let burn_slo =
  Slo.ratio ~name:"adm" ~window:10 ~fast_fraction:0.1 ~page_burn:5.0
    ~warn_burn:2.0 ~good:"good" ~total:"total" ~target:0.9 ()

let fill_ratio ts ~bucket ~good ~total =
  let t = float_of_int bucket +. 0.5 in
  if good > 0.0 then Timeseries.add ts ~t ~by:good "good";
  Timeseries.add ts ~t ~by:total "total"

let test_slo_ratio_empty_is_healthy () =
  let ts = Timeseries.create ~capacity:16 () in
  let ev = Slo.evaluate ts burn_slo in
  Alcotest.(check string) "no traffic burns no budget" "ok"
    (Slo.status_name ev.Slo.ev_status)

let test_slo_ratio_warn_when_fast_window_clean () =
  let ts = Timeseries.create ~capacity:16 () in
  (* Nine bad buckets, then a clean newest bucket: slow burn 9, fast
     burn 0 — warn (slow >= 2) but no page (fast < 5). *)
  for b = 0 to 8 do
    fill_ratio ts ~bucket:b ~good:0.0 ~total:10.0
  done;
  fill_ratio ts ~bucket:9 ~good:10.0 ~total:10.0;
  let ev = Slo.evaluate ts burn_slo in
  Alcotest.(check string) "warn only" "warn" (Slo.status_name ev.Slo.ev_status);
  check_float "slow burn" 9.0 ev.Slo.ev_burn_slow;
  check_float "fast burn" 0.0 ev.Slo.ev_burn_fast

let test_slo_ratio_page_when_both_burn () =
  let ts = Timeseries.create ~capacity:16 () in
  for b = 0 to 9 do
    fill_ratio ts ~bucket:b ~good:1.0 ~total:10.0
  done;
  let ev = Slo.evaluate ts burn_slo in
  Alcotest.(check string) "page" "page" (Slo.status_name ev.Slo.ev_status);
  check_float "both windows burn 9x budget" 9.0 ev.Slo.ev_burn_slow;
  check_float "fast matches" 9.0 ev.Slo.ev_burn_fast

let test_slo_quantile_bound () =
  let ts = Timeseries.create ~capacity:16 () in
  for i = 0 to 99 do
    Timeseries.observe ts ~t:(0.1 *. float_of_int i) "lat"
      (if i mod 10 = 0 then 2.0 else 0.01)
  done;
  let ok_slo =
    Slo.quantile ~name:"lat" ~window:16 ~series:"lat" ~q:0.5 ~bound:1.0 ()
  in
  let bad_slo =
    Slo.quantile ~name:"lat" ~window:16 ~series:"lat" ~q:0.99 ~bound:1.0 ()
  in
  Alcotest.(check string) "median under bound" "ok"
    (Slo.status_name (Slo.evaluate ts ok_slo).Slo.ev_status);
  Alcotest.(check string) "tail over bound pages" "page"
    (Slo.status_name (Slo.evaluate ts bad_slo).Slo.ev_status)

let test_slo_stat_min_ge () =
  let ts = Timeseries.create ~capacity:16 () in
  let slo =
    Slo.stat ~name:"jain" ~window:16 ~series:"jain" ~stat:Slo.Min ~cmp:`Ge
      ~bound:0.9 ()
  in
  List.iteri
    (fun i v -> Timeseries.observe ts ~t:(float_of_int i) "jain" v)
    [ 0.99; 0.97; 0.95 ];
  Alcotest.(check string) "all above the floor" "ok"
    (Slo.status_name (Slo.evaluate ts slo).Slo.ev_status);
  Timeseries.observe ts ~t:3.0 "jain" 0.5;
  Alcotest.(check string) "one dip below the floor pages" "page"
    (Slo.status_name (Slo.evaluate ts slo).Slo.ev_status)

(* -- Monitor --------------------------------------------------------------- *)

let flap_watchdog =
  {
    Monitor.wd_name = "flap_storm";
    wd_description = "too many link flaps in the window";
    wd_window = 4;
    wd_trigger = Monitor.Event_count { event = "flap"; max = 3 };
    wd_severity = Slo.Page;
  }

let test_monitor_watchdog_transitions () =
  let clock = ref 0.0 in
  let ts = Timeseries.create ~bucket_s:1.0 ~capacity:32 ~now:(fun () -> !clock) () in
  let mon = Monitor.create ~series:ts () in
  Monitor.add_watchdog mon flap_watchdog;
  (* Below threshold: no incident. *)
  for i = 1 to 3 do
    Monitor.event mon ~trace_id:(100 + i) "flap"
  done;
  Monitor.check mon;
  Alcotest.(check int) "under max stays quiet" 0
    (List.length (Monitor.incidents mon));
  (* A fourth flap trips it; the incident carries every contributing
     trace id in event order. *)
  Monitor.event mon ~trace_id:104 "flap";
  Monitor.check mon;
  Monitor.check mon;
  (* still tripped: no duplicate *)
  (match Monitor.incidents mon with
  | [ i ] ->
    Alcotest.(check string) "source" "flap_storm" i.Monitor.i_source;
    Alcotest.(check string) "severity" "page"
      (Slo.status_name i.Monitor.i_severity);
    Alcotest.(check (list int)) "linked traces" [ 101; 102; 103; 104 ]
      i.Monitor.i_trace_ids
  | l -> Alcotest.failf "expected exactly one incident, got %d" (List.length l));
  Alcotest.(check bool) "page recorded" false (Monitor.healthy mon);
  Alcotest.(check int) "page count" 1 (Monitor.page_count mon);
  (* Advance past the window so the rule clears, then trip again: a new
     incident is appended (transitions only, not level-triggered spam). *)
  clock := 10.0;
  Monitor.check mon;
  for i = 1 to 4 do
    Monitor.event mon ~trace_id:(200 + i) "flap"
  done;
  Monitor.check mon;
  Alcotest.(check int) "re-trip appends a second incident" 2
    (List.length (Monitor.incidents mon))

let test_monitor_series_sum_watchdog () =
  let ts = Timeseries.create ~bucket_s:1.0 ~capacity:32 () in
  let mon = Monitor.create ~series:ts () in
  Monitor.add_watchdog mon
    {
      Monitor.wd_name = "rejection_spike";
      wd_description = "rejections over budget";
      wd_window = 8;
      wd_trigger = Monitor.Series_sum { series = "rejected"; max = 10.0 };
      wd_severity = Slo.Warn;
    };
  Timeseries.add ts ~t:0.5 ~by:10.0 "rejected";
  Monitor.check ~at:1.0 mon;
  Alcotest.(check int) "at max stays quiet" 0 (List.length (Monitor.incidents mon));
  Timeseries.add ts ~t:1.5 ~by:1.0 "rejected";
  Monitor.check ~at:2.0 mon;
  Alcotest.(check int) "over max warns" 1 (Monitor.warn_count mon);
  Alcotest.(check bool) "warns keep the monitor healthy" true
    (Monitor.healthy mon)

let test_monitor_report_determinism () =
  let build () =
    let ts = Timeseries.create ~bucket_s:1.0 ~capacity:16 () in
    let mon = Monitor.create ~series:ts () in
    Monitor.add_watchdog mon flap_watchdog;
    feed_script ts;
    for i = 1 to 5 do
      Monitor.event mon ~t:2.0 ~trace_id:i "flap"
    done;
    Monitor.check ~at:2.0 mon;
    let evs = Monitor.evaluate ~at:2.0 mon [ burn_slo ] in
    Json.to_string ~pretty:true (Monitor.json_report ~slos:evs mon)
  in
  let r1 = build () in
  let r2 = build () in
  Alcotest.(check string) "same script, byte-identical report" r1 r2;
  (match Json.of_string r1 with
  | Error e -> Alcotest.failf "report not valid json: %s" e
  | Ok j ->
    Alcotest.(check (option bool)) "paged report is unhealthy" (Some false)
      (Option.bind (Json.member "healthy" j) Json.to_bool))

let () =
  Alcotest.run "health"
    [
      ( "timeseries",
        [
          Alcotest.test_case "bucketing" `Quick test_ts_bucketing;
          Alcotest.test_case "ring eviction" `Quick test_ts_ring_eviction;
          Alcotest.test_case "dist stats" `Quick test_ts_dist_stats;
          Alcotest.test_case "kind mismatch" `Quick test_ts_kind_mismatch;
          Alcotest.test_case "noop registry" `Quick test_ts_noop;
          Alcotest.test_case "json roundtrip + determinism" `Quick
            test_ts_json_roundtrip_and_determinism;
          Alcotest.test_case "dump rejects garbage" `Quick
            test_ts_dump_rejects_garbage;
        ] );
      ( "slo",
        [
          Alcotest.test_case "empty ratio healthy" `Quick
            test_slo_ratio_empty_is_healthy;
          Alcotest.test_case "warn when fast window clean" `Quick
            test_slo_ratio_warn_when_fast_window_clean;
          Alcotest.test_case "page when both windows burn" `Quick
            test_slo_ratio_page_when_both_burn;
          Alcotest.test_case "quantile bound" `Quick test_slo_quantile_bound;
          Alcotest.test_case "stat min floor" `Quick test_slo_stat_min_ge;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "watchdog transitions" `Quick
            test_monitor_watchdog_transitions;
          Alcotest.test_case "series-sum watchdog" `Quick
            test_monitor_series_sum_watchdog;
          Alcotest.test_case "report determinism" `Quick
            test_monitor_report_determinism;
        ] );
    ]
