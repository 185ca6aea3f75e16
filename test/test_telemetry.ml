(* Unit and property tests for the telemetry subsystem: counters, gauges
   and their handles, log-bucketed histograms (accuracy vs a
   sorted-sample oracle), span timers, JSON round-trips, and the qcheck
   property that sharded recording under N domains merges to the same
   totals as sequential recording. *)

module Telemetry = Activermt_telemetry.Telemetry
module Json = Activermt_telemetry.Json

let check_float = Alcotest.(check (float 1e-9))

(* -- Counters and gauges -------------------------------------------------- *)

let test_counter_basic () =
  let t = Telemetry.create () in
  Alcotest.(check int) "absent" 0 (Telemetry.counter_value t "c");
  Telemetry.incr t "c";
  Telemetry.incr t "c" ~by:4;
  Alcotest.(check int) "accumulates" 5 (Telemetry.counter_value t "c");
  Telemetry.incr t "other";
  Alcotest.(check (list (pair string int)))
    "sorted listing"
    [ ("c", 5); ("other", 1) ]
    (Telemetry.counters t)

let test_gauge_last_write_wins () =
  let t = Telemetry.create () in
  Alcotest.(check (option (float 0.0))) "absent" None (Telemetry.gauge_value t "g");
  Telemetry.set_gauge t "g" 1.5;
  Telemetry.set_gauge t "g" 7.25;
  Alcotest.(check (option (float 1e-9))) "last value" (Some 7.25)
    (Telemetry.gauge_value t "g")

let test_kind_mismatch () =
  let t = Telemetry.create () in
  Telemetry.incr t "m";
  Alcotest.check_raises "counter as histogram"
    (Invalid_argument "Telemetry: metric \"m\" already registered as a counter")
    (fun () -> Telemetry.observe t "m" 1.0)

let test_reset () =
  let t = Telemetry.create () in
  Telemetry.incr t "c" ~by:3;
  Telemetry.observe t "h" 0.5;
  Telemetry.reset t;
  Alcotest.(check int) "counter cleared" 0 (Telemetry.counter_value t "c");
  Alcotest.(check bool) "histogram cleared" true
    (Telemetry.hist_summary t "h" = None)

(* -- Handles --------------------------------------------------------------- *)

let test_handle_records () =
  let t = Telemetry.create () in
  let c = Telemetry.counter t "c" and g = Telemetry.gauge t "g" in
  Telemetry.bump c;
  Telemetry.bump c ~by:4;
  Telemetry.incr t "c";
  Telemetry.set g 2.5;
  Alcotest.(check int) "counter_value" 6 (Telemetry.counter_value t "c");
  Alcotest.(check (option (float 0.0))) "gauge_value" (Some 2.5)
    (Telemetry.gauge_value t "g");
  let by_name = Telemetry.create () in
  Telemetry.incr by_name "c" ~by:6;
  Telemetry.set_gauge by_name "g" 2.5;
  Alcotest.(check string) "same dump as by name" (Telemetry.dump_json by_name)
    (Telemetry.dump_json t)

let test_handle_registers_on_record () =
  let t = Telemetry.create () in
  let c = Telemetry.counter t "c" and _g = Telemetry.gauge t "g" in
  Alcotest.(check (list (pair string int))) "no counter yet" [] (Telemetry.counters t);
  Alcotest.(check (list (pair string (float 0.0)))) "no gauge yet" []
    (Telemetry.gauges t);
  Telemetry.bump c ~by:0;
  Alcotest.(check (list (pair string int))) "registered at zero" [ ("c", 0) ]
    (Telemetry.counters t)

let test_handle_after_reset () =
  let t = Telemetry.create () in
  let c = Telemetry.counter t "c" and g = Telemetry.gauge t "g" in
  Telemetry.bump c ~by:5;
  Telemetry.set g 1.0;
  Telemetry.reset t;
  Alcotest.(check (list (pair string int))) "reset drops the key" []
    (Telemetry.counters t);
  Telemetry.bump c;
  Alcotest.(check int) "counts from zero" 1 (Telemetry.counter_value t "c");
  Alcotest.(check (option (float 0.0))) "gauge gone" None (Telemetry.gauge_value t "g");
  Telemetry.set g 3.0;
  Alcotest.(check (option (float 0.0))) "gauge set again" (Some 3.0)
    (Telemetry.gauge_value t "g")

let test_handle_kind_mismatch () =
  let t = Telemetry.create () in
  Telemetry.set_gauge t "m" 1.0;
  let err = Invalid_argument "Telemetry: metric \"m\" already registered as a gauge" in
  Alcotest.check_raises "incr" err (fun () -> Telemetry.incr t "m");
  Alcotest.check_raises "bump" err (fun () -> Telemetry.bump (Telemetry.counter t "m"));
  Telemetry.incr t "n";
  Alcotest.check_raises "set"
    (Invalid_argument "Telemetry: metric \"n\" already registered as a counter")
    (fun () -> Telemetry.set (Telemetry.gauge t "n") 1.0)

(* One handle shared by every worker: each domain re-resolves its own
   shard's cell, so the merged total is exact. *)
let test_handle_fanout_exact () =
  let n = 4096 in
  let t = Telemetry.create () in
  let c = Telemetry.counter t "c" in
  let pool = Stdx.Domain_pool.create ~size:4 () in
  Stdx.Domain_pool.parallel_for pool ~n ~f:(fun i ->
      Telemetry.bump c ~by:(1 + (i mod 5)));
  Stdx.Domain_pool.shutdown pool;
  Alcotest.(check int) "counter total"
    (List.init n Fun.id |> List.fold_left (fun acc i -> acc + 1 + (i mod 5)) 0)
    (Telemetry.counter_value t "c")

(* Each op is (metric, by, through a handle?); a reset may fall between
   ops.  Handles and names must land on the same cells. *)
let prop_handles_match_names =
  QCheck.Test.make ~name:"handle bumps and incr by name give the same totals"
    ~count:200
    QCheck.(list (triple (int_range 0 2) (int_range 0 9) (int_range 0 20)))
    (fun ops ->
      let names = [| "a"; "b"; "c" |] in
      let mixed = Telemetry.create () and by_name = Telemetry.create () in
      let handles = Array.map (Telemetry.counter mixed) names in
      List.iter
        (fun (k, by, how) ->
          if how = 0 then begin
            Telemetry.reset mixed;
            Telemetry.reset by_name
          end
          else begin
            if how land 1 = 0 then Telemetry.bump handles.(k) ~by
            else Telemetry.incr mixed names.(k) ~by;
            Telemetry.incr by_name names.(k) ~by
          end)
        ops;
      Telemetry.counters mixed = Telemetry.counters by_name)

(* -- Histogram accuracy vs a sorted-sample oracle ------------------------- *)

(* Log buckets at 8 per octave give a worst-case relative error of
   2^(1/8) - 1 ~= 9.05% when the true quantile sits at a bucket edge; the
   geometric midpoint halves that in expectation.  10% absorbs both the
   bucket width and the oracle's rank interpolation. *)
let tolerance = 0.10

let hist_accuracy_check ~name samples =
  let t = Telemetry.create () in
  List.iter (Telemetry.observe t "h") samples;
  let s = Option.get (Telemetry.hist_summary t "h") in
  Alcotest.(check int) (name ^ " count") (List.length samples) s.Telemetry.count;
  check_float (name ^ " sum")
    (List.fold_left ( +. ) 0.0 samples)
    s.Telemetry.sum;
  check_float (name ^ " min") (List.fold_left min (List.hd samples) samples)
    s.Telemetry.min;
  check_float (name ^ " max") (List.fold_left max (List.hd samples) samples)
    s.Telemetry.max;
  List.iter
    (fun (p, got) ->
      let oracle = Stdx.Stats.percentile samples p in
      let rel = Float.abs (got -. oracle) /. oracle in
      if rel > tolerance then
        Alcotest.failf "%s p%.0f: histogram %.6g vs oracle %.6g (%.1f%% off)"
          name p got oracle (100.0 *. rel))
    [ (50.0, s.Telemetry.p50); (90.0, s.Telemetry.p90); (99.0, s.Telemetry.p99) ]

let test_hist_exponential () =
  let rng = Stdx.Prng.create ~seed:42 in
  let samples =
    List.init 5000 (fun _ -> Stdx.Prng.exponential rng ~mean:0.001)
  in
  hist_accuracy_check ~name:"exponential latencies" samples

let test_hist_uniform () =
  let rng = Stdx.Prng.create ~seed:7 in
  let samples = List.init 5000 (fun _ -> 1e-5 +. Stdx.Prng.float rng 0.01) in
  hist_accuracy_check ~name:"uniform latencies" samples

let test_hist_extremes () =
  let t = Telemetry.create () in
  List.iter (Telemetry.observe t "h") [ 0.25; 0.5; 1.0; 2.0 ];
  check_float "p0 is exact min" 0.25 (Telemetry.hist_percentile t "h" 0.0);
  check_float "p100 is exact max" 2.0 (Telemetry.hist_percentile t "h" 100.0);
  check_float "absent histogram" 0.0 (Telemetry.hist_percentile t "nope" 50.0)

let test_hist_out_of_range () =
  (* Values outside the bucketed range still clamp to the exact min/max. *)
  let t = Telemetry.create () in
  Telemetry.observe t "h" 0.0;
  Telemetry.observe t "h" 1e12;
  let s = Option.get (Telemetry.hist_summary t "h") in
  check_float "min" 0.0 s.Telemetry.min;
  check_float "max" 1e12 s.Telemetry.max;
  Alcotest.(check int) "count" 2 s.Telemetry.count

let test_hist_empty_and_unknown () =
  let t = Telemetry.create () in
  Alcotest.(check bool) "unknown name" true (Telemetry.hist_summary t "h" = None);
  check_float "unknown percentile" 0.0 (Telemetry.hist_percentile t "h" 50.0);
  (* Empty-after-reset histograms report zeros throughout, not NaN/inf
     left over from the infinity-seeded min/max cells. *)
  Telemetry.observe t "h" 1.0;
  Telemetry.reset t;
  Alcotest.(check bool) "cleared name" true (Telemetry.hist_summary t "h" = None)

let test_hist_single_observation () =
  (* One observation pins every statistic to that value: the sketch
     midpoint clamps to the exact observed [min, max] = [v, v]. *)
  let t = Telemetry.create () in
  let v = 0.00731 in
  Telemetry.observe t "h" v;
  let s = Option.get (Telemetry.hist_summary t "h") in
  Alcotest.(check int) "count" 1 s.Telemetry.count;
  check_float "sum" v s.Telemetry.sum;
  check_float "mean" v s.Telemetry.mean;
  check_float "min" v s.Telemetry.min;
  check_float "max" v s.Telemetry.max;
  check_float "p50" v s.Telemetry.p50;
  check_float "p90" v s.Telemetry.p90;
  check_float "p99" v s.Telemetry.p99;
  check_float "p0" v (Telemetry.hist_percentile t "h" 0.0);
  check_float "p100" v (Telemetry.hist_percentile t "h" 100.0)

let test_hist_quantile_boundaries () =
  let t = Telemetry.create () in
  List.iter (Telemetry.observe t "h") [ 0.125; 0.25; 0.5; 1.0 ];
  (* p <= 0 and p >= 100 are exact, including values outside [0, 100]. *)
  check_float "p=-5 is exact min" 0.125 (Telemetry.hist_percentile t "h" (-5.0));
  check_float "p=0 is exact min" 0.125 (Telemetry.hist_percentile t "h" 0.0);
  check_float "p=100 is exact max" 1.0 (Telemetry.hist_percentile t "h" 100.0);
  check_float "p=250 is exact max" 1.0 (Telemetry.hist_percentile t "h" 250.0);
  Alcotest.check_raises "NaN percentile rejected"
    (Invalid_argument "Telemetry.hist_percentile: NaN percentile") (fun () ->
      ignore (Telemetry.hist_percentile t "h" Float.nan))

(* -- Spans ---------------------------------------------------------------- *)

let test_span_nesting () =
  let clock = ref 0.0 in
  let t = Telemetry.create ~now:(fun () -> !clock) () in
  Telemetry.span_begin t "outer";
  clock := 1.0;
  Telemetry.span_begin t "inner";
  clock := 3.0;
  Telemetry.span_end t;
  clock := 6.0;
  Telemetry.span_end t;
  let inner = Option.get (Telemetry.hist_summary t "inner") in
  let outer = Option.get (Telemetry.hist_summary t "outer") in
  check_float "inner elapsed" 2.0 inner.Telemetry.sum;
  check_float "outer elapsed" 6.0 outer.Telemetry.sum;
  Alcotest.(check int) "one inner" 1 inner.Telemetry.count

let test_span_unbalanced () =
  let t = Telemetry.create () in
  Alcotest.check_raises "no open span"
    (Invalid_argument "Telemetry.span_end: no open span") (fun () ->
      Telemetry.span_end t)

let test_with_span_exception () =
  let clock = ref 0.0 in
  let t = Telemetry.create ~now:(fun () -> !clock) () in
  (try
     Telemetry.with_span t "failing" (fun () ->
         clock := 0.5;
         raise Exit)
   with Exit -> ());
  let s = Option.get (Telemetry.hist_summary t "failing") in
  Alcotest.(check int) "recorded despite raise" 1 s.Telemetry.count;
  check_float "elapsed" 0.5 s.Telemetry.sum

(* -- Dumps ---------------------------------------------------------------- *)

let test_dump_json_roundtrip () =
  let t = Telemetry.create () in
  Telemetry.incr t "alloc.admitted" ~by:12;
  Telemetry.set_gauge t "sim.queue_depth" 3.0;
  Telemetry.observe t "alloc.score" 0.002;
  match Json.of_string (Telemetry.dump_json t) with
  | Error e -> Alcotest.failf "dump does not parse: %s" e
  | Ok json ->
    let counter =
      Json.(member "counters" json |> Option.get |> member "alloc.admitted")
    in
    Alcotest.(check (option (float 1e-9))) "counter survives" (Some 12.0)
      (Option.bind counter Json.to_num);
    let hist =
      Json.(member "histograms" json |> Option.get |> member "alloc.score")
    in
    Alcotest.(check bool) "histogram present" true (hist <> None)

let test_dump_prometheus () =
  let t = Telemetry.create () in
  Telemetry.incr t "alloc.admitted" ~by:2;
  Telemetry.observe t "alloc.score" 0.001;
  let out = Telemetry.dump_prometheus t in
  let contains needle =
    let nl = String.length needle and l = String.length out in
    let rec go i = i + nl <= l && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter line" true (contains "alloc_admitted 2");
  Alcotest.(check bool) "quantile line" true
    (contains "alloc_score{quantile=\"0.5\"}");
  Alcotest.(check bool) "count line" true (contains "alloc_score_count 1")

(* Well-formedness per the promtext exposition format: a non-comment line
   is NAME{labels}? VALUE, where NAME matches [a-zA-Z_:][a-zA-Z0-9_:]*,
   every label value is quoted with '\\', '"' and newline escaped, and
   VALUE parses as a float.  Free-form registry keys must never leak
   through unsanitized. *)
let prom_line_ok line =
  let n = String.length line in
  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  if n = 0 || line.[0] = '#' then true
  else begin
    let ok = ref (is_name_char line.[0] && not (line.[0] >= '0' && line.[0] <= '9')) in
    let i = ref 0 in
    while !i < n && is_name_char line.[!i] do
      incr i
    done;
    if !ok && !i < n && line.[!i] = '{' then begin
      incr i;
      let in_value = ref false and closed = ref false in
      while !i < n && not !closed do
        let c = line.[!i] in
        if !in_value then
          if c = '\\' then begin
            (if !i + 1 >= n then ok := false
             else
               match line.[!i + 1] with
               | '\\' | '"' | 'n' -> ()
               | _ -> ok := false);
            i := !i + 2
          end
          else begin
            if c = '"' then in_value := false;
            incr i
          end
        else begin
          (match c with
          | '"' -> in_value := true
          | '}' -> closed := true
          | _ -> ());
          incr i
        end
      done;
      if not !closed then ok := false
    end;
    (if !ok then
       if !i >= n || line.[!i] <> ' ' then ok := false
       else
         ok :=
           float_of_string_opt (String.sub line (!i + 1) (n - !i - 1)) <> None);
    !ok
  end

let test_prometheus_wellformed () =
  (* Exercise sanitization through the shared default registry — and
     [Telemetry.reset] to leave it clean for whoever runs next. *)
  Telemetry.reset Telemetry.default;
  Telemetry.incr Telemetry.default {|weird "metric"\name|} ~by:3;
  Telemetry.incr Telemetry.default "0starts.with.digit";
  Telemetry.set_gauge Telemetry.default "spaced gauge name" 2.5;
  Telemetry.observe Telemetry.default {|hist"quoted\|} 0.25;
  let out = Telemetry.dump_prometheus Telemetry.default in
  Telemetry.reset Telemetry.default;
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "well-formed: %S" line)
        true (prom_line_ok line))
    (String.split_on_char '\n' out);
  let contains needle =
    let nl = String.length needle and l = String.length out in
    let rec go i = i + nl <= l && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "punctuation collapses to _" true
    (contains "weird__metric__name 3");
  Alcotest.(check bool) "leading digit prefixed" true
    (contains "_0starts_with_digit 1");
  Alcotest.(check bool) "raw name never leaks" false (contains {|"metric"|})

let test_prometheus_label_escaping () =
  Alcotest.(check string) "backslash, quote, newline" {|a\\b\"c\nd|}
    (Telemetry.prom_escape_label "a\\b\"c\nd");
  Alcotest.(check string) "clean value untouched" "0.99"
    (Telemetry.prom_escape_label "0.99")

(* -- Json ----------------------------------------------------------------- *)

let test_json_parse () =
  let text = {| {"a": [1, 2.5, -3e2], "b": {"s": "x\ny"}, "t": true, "n": null} |} in
  match Json.of_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v ->
    let a = Json.(member "a" v |> Option.get |> to_arr |> Option.get) in
    Alcotest.(check (list (float 1e-9))) "numbers" [ 1.0; 2.5; -300.0 ]
      (List.filter_map Json.to_num a);
    Alcotest.(check (option string)) "nested string" (Some "x\ny")
      Json.(member "b" v |> Option.get |> member "s" |> Fun.flip Option.bind to_str);
    Alcotest.(check (option bool)) "bool" (Some true)
      (Option.bind (Json.member "t" v) Json.to_bool)

let test_json_errors () =
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Json.of_string "{"));
  Alcotest.(check bool) "trailing rejected" true
    (Result.is_error (Json.of_string "1 2"))

let prop_json_roundtrip =
  let gen_json =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let scalar =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun v -> Json.Num (float_of_int v)) (int_range (-1000) 1000);
                map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 8));
              ]
          in
          if n <= 0 then scalar
          else
            oneof
              [
                scalar;
                map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n / 2)));
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (int_range 0 4)
                     (pair (string_size ~gen:printable (int_range 1 6)) (self (n / 2))));
              ]))
  in
  QCheck.Test.make ~name:"json print/parse roundtrip" ~count:200
    (QCheck.make gen_json)
    (fun v -> Json.of_string (Json.to_string v) = Ok v)

(* The parser must classify arbitrary input as Ok or Error without ever
   raising — series dumps cross process boundaries (healthcheck reports,
   fleettop input files), so a truncated or corrupt file is an expected
   input, not an exception path.  Half the cases are raw bytes; the other
   half mutate a valid print so the fuzz also reaches deep parser states
   (inside strings, numbers, nesting) instead of failing on byte one. *)
let prop_json_fuzz_no_crash =
  let gen =
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:(char_range '\000' '\255') (int_range 0 64);
          ( int_range 0 1000 >|= fun salt ->
            let valid =
              Json.to_string
                (Json.Obj
                   [
                     ("k", Json.Arr [ Json.Num 1.5; Json.Str "x\"y"; Json.Null ]);
                     ("b", Json.Bool (salt mod 2 = 0));
                   ])
            in
            let b = Bytes.of_string valid in
            let pos = salt mod Bytes.length b in
            Bytes.set b pos (Char.chr (salt * 7 mod 256));
            Bytes.to_string b );
        ])
  in
  QCheck.Test.make ~name:"json parser never raises" ~count:500 (QCheck.make gen)
    (fun s ->
      match Json.of_string s with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "of_string %S raised %s" s
          (Printexc.to_string e))

(* -- Sharded recording under domains -------------------------------------- *)

(* Integer-valued floats keep every partial sum exact, so the merged
   totals must equal the sequential ones bit-for-bit no matter how the
   work was split across shards. *)
let record reg i =
  Telemetry.incr reg "c" ~by:(1 + (i mod 5));
  Telemetry.observe reg "h" (float_of_int ((i * 7919 mod 997) + 1))

let prop_sharded_merge =
  QCheck.Test.make ~name:"sharded recording merges to sequential totals"
    ~count:20
    QCheck.(pair (int_range 1 6) (int_range 0 3000))
    (fun (size, n) ->
      let seq = Telemetry.create () in
      for i = 0 to n - 1 do
        record seq i
      done;
      let par = Telemetry.create () in
      let pool = Stdx.Domain_pool.create ~size () in
      Stdx.Domain_pool.parallel_for pool ~n ~f:(record par);
      Telemetry.counter_value par "c" = Telemetry.counter_value seq "c"
      && Telemetry.hist_summary par "h" = Telemetry.hist_summary seq "h")

let test_sharded_fanout_exact () =
  let n = 4096 in
  let par = Telemetry.create () in
  let pool = Stdx.Domain_pool.create ~size:4 () in
  Stdx.Domain_pool.parallel_for pool ~n ~f:(record par);
  Alcotest.(check int) "counter total"
    (List.init n Fun.id |> List.fold_left (fun acc i -> acc + 1 + (i mod 5)) 0)
    (Telemetry.counter_value par "c");
  Alcotest.(check int) "histogram count" n
    (Option.get (Telemetry.hist_summary par "h")).Telemetry.count

let () =
  Alcotest.run "telemetry"
    [
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "gauge last write" `Quick test_gauge_last_write_wins;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "handles",
        [
          Alcotest.test_case "records like incr" `Quick test_handle_records;
          Alcotest.test_case "registers on first record" `Quick
            test_handle_registers_on_record;
          Alcotest.test_case "after reset" `Quick test_handle_after_reset;
          Alcotest.test_case "kind mismatch" `Quick test_handle_kind_mismatch;
          Alcotest.test_case "fan-out totals exact" `Quick test_handle_fanout_exact;
          QCheck_alcotest.to_alcotest prop_handles_match_names;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "exponential vs oracle" `Quick test_hist_exponential;
          Alcotest.test_case "uniform vs oracle" `Quick test_hist_uniform;
          Alcotest.test_case "extreme percentiles" `Quick test_hist_extremes;
          Alcotest.test_case "out-of-range values" `Quick test_hist_out_of_range;
          Alcotest.test_case "empty and unknown" `Quick
            test_hist_empty_and_unknown;
          Alcotest.test_case "single observation" `Quick
            test_hist_single_observation;
          Alcotest.test_case "quantile boundaries" `Quick
            test_hist_quantile_boundaries;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "unbalanced end" `Quick test_span_unbalanced;
          Alcotest.test_case "records on exception" `Quick test_with_span_exception;
        ] );
      ( "dumps",
        [
          Alcotest.test_case "json roundtrip" `Quick test_dump_json_roundtrip;
          Alcotest.test_case "prometheus" `Quick test_dump_prometheus;
          Alcotest.test_case "prometheus well-formed" `Quick
            test_prometheus_wellformed;
          Alcotest.test_case "label escaping" `Quick
            test_prometheus_label_escaping;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "errors" `Quick test_json_errors;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_fuzz_no_crash;
        ] );
      ( "sharding",
        [
          QCheck_alcotest.to_alcotest prop_sharded_merge;
          Alcotest.test_case "fan-out totals exact" `Quick test_sharded_fanout_exact;
        ] );
    ]
