(* Health-plane tests: Telemetry windowing, ring eviction and series
   dump round-trips; Slo multi-window burn-rate evaluation; Monitor
   watchdog transitions, trace-id linking and deterministic reports.

   Everything here drives an explicit virtual clock — no wall time — so
   every assertion is exact, including the byte-identity checks that back
   the healthcheck goldens. *)

module Telemetry = Activermt_telemetry.Telemetry
module Json = Activermt_telemetry.Json
module Slo = Activermt_health.Slo
module Monitor = Activermt_health.Monitor

let check_float = Alcotest.(check (float 1e-9))

(* -- Windows ----------------------------------------------------------------- *)

let test_ts_bucketing () =
  let ts = Telemetry.create ~windows:8 () in
  Telemetry.add ts ~at:0.25 "c";
  Telemetry.add ts ~at:0.75 ~by:2 "c";
  Telemetry.add ts ~at:1.5 ~by:5 "c";
  let ws = Telemetry.windows ts "c" in
  Alcotest.(check (list int)) "bucket indices" [ 0; 1 ] (List.map fst ws);
  Alcotest.(check (list int)) "bucket counts" [ 2; 1 ]
    (List.map (fun (_, w) -> w.Telemetry.count) ws);
  Alcotest.(check (list (float 1e-9))) "bucket sums" [ 3.0; 5.0 ]
    (List.map (fun (_, w) -> w.Telemetry.sum) ws);
  Alcotest.(check (list (pair string string))) "counter kind" [ ("c", "counter") ]
    (List.map
       (fun (n, k) -> (n, match k with `Counter -> "counter" | `Dist -> "dist"))
       (Telemetry.windowed ts));
  Alcotest.(check int) "run total" 8 (Telemetry.counter_value ts "c")

let test_ts_ring_eviction () =
  let ts = Telemetry.create ~windows:4 () in
  for i = 0 to 9 do
    Telemetry.add ts ~at:(float_of_int i +. 0.5) ~by:i "c"
  done;
  let ws = Telemetry.windows ts "c" in
  Alcotest.(check (list int)) "only the newest capacity windows survive"
    [ 6; 7; 8; 9 ] (List.map fst ws);
  let agg = Telemetry.aggregate ts "c" in
  check_float "aggregate over retained windows" (6.0 +. 7.0 +. 8.0 +. 9.0)
    agg.Telemetry.sum;
  Alcotest.(check int) "windows covered" 4 agg.Telemetry.count;
  (* [~last] narrows further than retention. *)
  let agg2 = Telemetry.aggregate ~last:2 ts "c" in
  check_float "last-2 sum" 17.0 agg2.Telemetry.sum;
  Alcotest.(check (list int)) "last-2 windows" [ 8; 9 ]
    (List.map fst (Telemetry.windows ~last:2 ts "c"));
  Alcotest.(check int) "the run total outlives the ring" 45
    (Telemetry.counter_value ts "c")

let test_ts_dist_stats () =
  let ts = Telemetry.create ~windows:8 () in
  List.iteri
    (fun i v -> Telemetry.sample ts ~at:(0.1 *. float_of_int i) "d" v)
    [ 0.5; 1.0; 2.0; 4.0 ];
  let agg = Telemetry.aggregate ts "d" in
  Alcotest.(check int) "count" 4 agg.Telemetry.count;
  check_float "min" 0.5 agg.Telemetry.min;
  check_float "max" 4.0 agg.Telemetry.max;
  (* Quantile endpoints clamp to the exact observed min/max. *)
  check_float "q0" 0.5 (Telemetry.quantile ts "d" 0.0);
  check_float "q1" 4.0 (Telemetry.quantile ts "d" 1.0);
  Alcotest.check_raises "q outside [0,1]"
    (Invalid_argument "Telemetry.quantile: q outside [0, 1]") (fun () ->
      ignore (Telemetry.quantile ts "d" 1.5))

let test_ts_kind_mismatch () =
  let ts = Telemetry.create ~windows:8 () in
  Telemetry.add ts "c";
  Alcotest.check_raises "counter sampled"
    (Invalid_argument "Telemetry: metric \"c\" already registered as a counter")
    (fun () -> Telemetry.sample ts "c" 1.0)

(* A registry without windows keeps the run totals of [add]/[sample] but
   no windows, and ignores a new clock. *)
let test_ts_noop () =
  let ts = Telemetry.create () in
  Telemetry.set_clock ts (fun () -> 5.0);
  Telemetry.add ts ~by:3 "c";
  Telemetry.sample ts "d" 1.0;
  Alcotest.(check (list string)) "records no windows" []
    (List.map fst (Telemetry.windowed ts));
  Alcotest.(check int) "keeps the counter total" 3 (Telemetry.counter_value ts "c");
  Alcotest.(check (option int)) "keeps the histogram total" (Some 1)
    (Option.map (fun s -> s.Telemetry.count) (Telemetry.hist_summary ts "d"));
  check_float "clock pinned" 0.0 (Telemetry.clock ts)

(* Feed one registry through the script, twice; the dumps must agree to
   the byte and survive a print/parse round-trip. *)
let feed_script ts =
  for i = 0 to 19 do
    let at = 0.5 *. float_of_int i in
    Telemetry.add ts ~at ~by:(i mod 3) "a.count";
    Telemetry.sample ts ~at "a.lat" (0.001 *. float_of_int ((i * 7) mod 13))
  done

let test_ts_json_roundtrip_and_determinism () =
  let mk () =
    let ts = Telemetry.create ~windows:16 () in
    feed_script ts;
    ts
  in
  let ts = mk () in
  let s1 = Json.to_string (Telemetry.series_json ts) in
  let s2 = Json.to_string (Telemetry.series_json (mk ())) in
  Alcotest.(check string) "same feed, byte-identical dump" s1 s2;
  match Telemetry.dump_of_string s1 with
  | Error e -> Alcotest.failf "dump_of_string: %s" e
  | Ok d ->
    check_float "bucket_s survives" 1.0 d.Telemetry.d_bucket_s;
    Alcotest.(check int) "capacity survives" 16 d.Telemetry.d_capacity;
    Alcotest.(check (list string)) "series names survive"
      [ "a.count"; "a.lat" ]
      (List.map (fun (n, _, _) -> n) d.Telemetry.d_series);
    let _, _, ws =
      List.find (fun (n, _, _) -> n = "a.count") d.Telemetry.d_series
    in
    Alcotest.(check (list int)) "windows survive"
      (List.map fst (Telemetry.windows ts "a.count"))
      (List.map fst ws)

let test_ts_dump_rejects_garbage () =
  let rejects what text =
    Alcotest.(check bool) what true (Result.is_error (Telemetry.dump_of_string text))
  in
  rejects "not an object" "[1,2]";
  rejects "unparsable" "{";
  rejects "series entry not an object" "{\"series\": {\"x\": 3}}";
  rejects "series without windows" "{\"series\": {\"x\": {}}}";
  (* Out-of-range numbers are errors that name the series and field,
     not values wrapped into some other int. *)
  let window w = Printf.sprintf "{\"series\": {\"x\": {\"windows\": [%s]}}}" w in
  List.iter
    (fun (what, text, field) ->
      match Telemetry.dump_of_string text with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error e ->
        let mentions s =
          let n = String.length s in
          let rec at i = i + n <= String.length e && (String.sub e i n = s || at (i + 1)) in
          at 0
        in
        Alcotest.(check bool) (what ^ " names the field") true (mentions field))
    [
      ("huge capacity", "{\"capacity\": 1e300}", "capacity");
      ("negative capacity", "{\"capacity\": -5}", "capacity");
      ("zero capacity", "{\"capacity\": 0}", "capacity");
      ("fractional capacity", "{\"capacity\": 2.5}", "capacity");
      ("zero bucket_s", "{\"bucket_s\": 0}", "bucket_s");
      ("negative index", window "{\"index\": -3, \"count\": 1, \"sum\": 1}", "index");
      ("huge index", window "{\"index\": 1e300, \"count\": 1, \"sum\": 1}", "index");
      ("negative count", window "{\"index\": 0, \"count\": -1, \"sum\": 1}", "count");
      ("fractional count", window "{\"index\": 0, \"count\": 0.5, \"sum\": 1}", "count");
      ("index names its series", window "{\"index\": -3, \"count\": 1, \"sum\": 1}", "\"x\"");
    ];
  (* Missing top-level fields default (bucket_s 1.0, capacity 128, no
     series) so fleettop accepts dumps from older writers. *)
  match Telemetry.dump_of_string "{\"bucket_s\": 2.0}" with
  | Error e -> Alcotest.failf "lenient parse failed: %s" e
  | Ok d ->
    check_float "explicit bucket_s" 2.0 d.Telemetry.d_bucket_s;
    Alcotest.(check int) "defaulted capacity" 128 d.Telemetry.d_capacity;
    Alcotest.(check int) "no series" 0 (List.length d.Telemetry.d_series)

(* The dump parser classifies any input as Ok or Error without raising:
   fleettop feeds it files from disk.  Mutating one byte of a valid dump
   reaches deep parser states (numbers, kinds, window objects) that raw
   bytes rarely do. *)
let prop_dump_never_raises =
  let valid =
    let ts = Telemetry.create ~windows:4 () in
    feed_script ts;
    Json.to_string (Telemetry.series_json ts)
  in
  let gen =
    QCheck.Gen.(
      pair (int_bound (String.length valid - 1)) (char_range '\000' '\255')
      >|= fun (pos, c) ->
      let b = Bytes.of_string valid in
      Bytes.set b pos c;
      Bytes.to_string b)
  in
  QCheck.Test.make ~name:"series dump parser never raises" ~count:500
    (QCheck.make ~print:Fun.id gen) (fun s ->
      match Telemetry.dump_of_string s with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "dump_of_string raised %s" (Printexc.to_string e))

(* -- SLO burn rates -------------------------------------------------------- *)

(* A ratio SLO over 10 one-second buckets with a single-bucket fast
   window: pages only when both windows burn, warns when only the slow
   window does. *)
let burn_slo =
  Slo.ratio ~name:"adm" ~window:10 ~fast_fraction:0.1 ~page_burn:5.0
    ~warn_burn:2.0 ~good:"good" ~total:"total" ~target:0.9 ()

let fill_ratio ts ~bucket ~good ~total =
  let at = float_of_int bucket +. 0.5 in
  if good > 0 then Telemetry.add ts ~at ~by:good "good";
  Telemetry.add ts ~at ~by:total "total"

let test_slo_ratio_empty_is_healthy () =
  let ts = Telemetry.create ~windows:16 () in
  let ev = Slo.evaluate ts burn_slo in
  Alcotest.(check string) "no traffic burns no budget" "ok"
    (Slo.status_name ev.Slo.ev_status)

let test_slo_ratio_warn_when_fast_window_clean () =
  let ts = Telemetry.create ~windows:16 () in
  (* Nine bad buckets, then a clean newest bucket: slow burn 9, fast
     burn 0 — warn (slow >= 2) but no page (fast < 5). *)
  for b = 0 to 8 do
    fill_ratio ts ~bucket:b ~good:0 ~total:10
  done;
  fill_ratio ts ~bucket:9 ~good:10 ~total:10;
  let ev = Slo.evaluate ts burn_slo in
  Alcotest.(check string) "warn only" "warn" (Slo.status_name ev.Slo.ev_status);
  check_float "slow burn" 9.0 ev.Slo.ev_burn_slow;
  check_float "fast burn" 0.0 ev.Slo.ev_burn_fast

let test_slo_ratio_page_when_both_burn () =
  let ts = Telemetry.create ~windows:16 () in
  for b = 0 to 9 do
    fill_ratio ts ~bucket:b ~good:1 ~total:10
  done;
  let ev = Slo.evaluate ts burn_slo in
  Alcotest.(check string) "page" "page" (Slo.status_name ev.Slo.ev_status);
  check_float "both windows burn 9x budget" 9.0 ev.Slo.ev_burn_slow;
  check_float "fast matches" 9.0 ev.Slo.ev_burn_fast

let test_slo_quantile_bound () =
  let ts = Telemetry.create ~windows:16 () in
  for i = 0 to 99 do
    Telemetry.sample ts ~at:(0.1 *. float_of_int i) "lat"
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
  let ts = Telemetry.create ~windows:16 () in
  let slo =
    Slo.stat ~name:"jain" ~window:16 ~series:"jain" ~stat:Slo.Min ~cmp:`Ge
      ~bound:0.9 ()
  in
  List.iteri
    (fun i v -> Telemetry.sample ts ~at:(float_of_int i) "jain" v)
    [ 0.99; 0.97; 0.95 ];
  Alcotest.(check string) "all above the floor" "ok"
    (Slo.status_name (Slo.evaluate ts slo).Slo.ev_status);
  Telemetry.sample ts ~at:3.0 "jain" 0.5;
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
  let ts = Telemetry.create ~windows:32 ~clock:(fun () -> !clock) () in
  let mon = Monitor.create ~telemetry:ts () in
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
  let ts = Telemetry.create ~windows:32 () in
  let mon = Monitor.create ~telemetry:ts () in
  Monitor.add_watchdog mon
    {
      Monitor.wd_name = "rejection_spike";
      wd_description = "rejections over budget";
      wd_window = 8;
      wd_trigger = Monitor.Series_sum { series = "rejected"; max = 10.0 };
      wd_severity = Slo.Warn;
    };
  Telemetry.add ts ~at:0.5 ~by:10 "rejected";
  Monitor.check ~at:1.0 mon;
  Alcotest.(check int) "at max stays quiet" 0 (List.length (Monitor.incidents mon));
  Telemetry.add ts ~at:1.5 ~by:1 "rejected";
  Monitor.check ~at:2.0 mon;
  Alcotest.(check int) "over max warns" 1 (Monitor.warn_count mon);
  Alcotest.(check bool) "warns keep the monitor healthy" true
    (Monitor.healthy mon)

let test_monitor_report_determinism () =
  let build () =
    let ts = Telemetry.create ~windows:16 () in
    let mon = Monitor.create ~telemetry:ts () in
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
          QCheck_alcotest.to_alcotest prop_dump_never_raises;
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
