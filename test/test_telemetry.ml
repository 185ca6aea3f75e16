(* Unit and property tests for the telemetry subsystem: counters, gauges
   and the sources that read them out of components, log-bucketed
   histograms (accuracy vs a sorted-sample oracle), span timers, JSON
   round-trips, and the qcheck property that run totals equal the sum of
   their windows. *)

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

(* -- Sources ---------------------------------------------------------------- *)

(* A component's counts as a source registers them: counters "a", "b" and
   "c" appear once nonzero, gauges "g" and "h" once set. *)
type counts = { c : int array; g : float option array }

let counter_names = [| "a"; "b"; "c" |]
let gauge_names = [| "g"; "h" |]

let counts_source reg =
  let k = { c = Array.make 3 0; g = Array.make 2 None } in
  Telemetry.source reg
    ~read:(fun ~counter ~gauge ->
      Array.iteri (fun i n -> if n > 0 then counter counter_names.(i) n) k.c;
      Array.iteri (fun i v -> Option.iter (gauge gauge_names.(i)) v) k.g)
    ~zero:(fun () ->
      Array.fill k.c 0 3 0;
      Array.fill k.g 0 2 None);
  k

(* Each op is a reset (0), an increment of counter [i] by [n] + 6, at
   least 1 (1), or a set of gauge [i mod 2] to [n / 4] (2); the source
   and the names must read alike. *)
let prop_sources_match_names =
  QCheck.Test.make ~name:"source readings match records by name" ~count:200
    QCheck.(list (triple (int_range 0 2) (int_range 0 2) (int_range (-5) 20)))
    (fun ops ->
      let sourced = Telemetry.create () and by_name = Telemetry.create () in
      let k = counts_source sourced in
      List.iter
        (fun (op, i, n) ->
          match op with
          | 0 ->
            Telemetry.reset sourced;
            Telemetry.reset by_name
          | 1 ->
            k.c.(i) <- k.c.(i) + n + 6;
            Telemetry.incr by_name counter_names.(i) ~by:(n + 6)
          | _ ->
            let i = i mod 2 and v = float_of_int n /. 4.0 in
            k.g.(i) <- Some v;
            Telemetry.set_gauge by_name gauge_names.(i) v)
        ops;
      Telemetry.counters sourced = Telemetry.counters by_name
      && Telemetry.gauges sourced = Telemetry.gauges by_name
      && Telemetry.dump_json sourced = Telemetry.dump_json by_name)

let test_reset_zeroes_sources () =
  let t = Telemetry.create () in
  let k = counts_source t in
  k.c.(0) <- 5;
  k.g.(0) <- Some 1.5;
  Telemetry.reset t;
  Alcotest.(check (array int)) "counts zeroed" [| 0; 0; 0 |] k.c;
  Alcotest.(check (list (pair string int))) "no counter" [] (Telemetry.counters t);
  Alcotest.(check (option (float 0.0))) "no gauge" None (Telemetry.gauge_value t "g");
  k.c.(0) <- k.c.(0) + 1;
  Alcotest.(check int) "counts from zero" 1 (Telemetry.counter_value t "a")

let test_sources_and_cell_sum () =
  let t = Telemetry.create () in
  let k1 = counts_source t and k2 = counts_source t in
  k1.c.(2) <- 2;
  k2.c.(2) <- 3;
  Telemetry.incr t "c" ~by:4;
  Alcotest.(check int) "counter_value" 9 (Telemetry.counter_value t "c");
  Alcotest.(check (list (pair string int))) "counters" [ ("c", 9) ]
    (Telemetry.counters t);
  let by_name = Telemetry.create () in
  Telemetry.incr by_name "c" ~by:9;
  Alcotest.(check string) "json dump" (Telemetry.dump_json by_name)
    (Telemetry.dump_json t);
  (* A gauge reads as the newest source that holds it, over any cell. *)
  Telemetry.set_gauge t "g" 7.0;
  k1.g.(0) <- Some 1.0;
  k2.g.(0) <- Some 2.0;
  Alcotest.(check (option (float 0.0))) "newest source wins" (Some 2.0)
    (Telemetry.gauge_value t "g")

(* A source name that a cell or another source holds as another kind
   raises when the registry is read. *)
let test_source_kind_clash () =
  let err name kind =
    Invalid_argument
      (Printf.sprintf "Telemetry: metric %S already registered as a %s" name kind)
  in
  let clash ~cells ~name ~counter =
    let t = Telemetry.create () in
    cells t;
    Telemetry.source t
      ~read:(fun ~counter:c ~gauge:g -> if counter then c name 1 else g name 1.0)
      ~zero:ignore;
    t
  in
  let t = clash ~cells:(fun t -> Telemetry.set_gauge t "m" 1.0) ~name:"m" ~counter:true in
  Alcotest.check_raises "counter over gauge cell" (err "m" "gauge") (fun () ->
      ignore (Telemetry.counter_value t "m"));
  let t = clash ~cells:(fun t -> Telemetry.incr t "n") ~name:"n" ~counter:false in
  Alcotest.check_raises "gauge over counter cell" (err "n" "counter") (fun () ->
      ignore (Telemetry.gauges t));
  let t = clash ~cells:(fun t -> Telemetry.observe t "h" 0.5) ~name:"h" ~counter:true in
  Alcotest.check_raises "counter over histogram" (err "h" "histogram") (fun () ->
      ignore (Telemetry.dump_json t));
  let t = clash ~cells:ignore ~name:"x" ~counter:true in
  Telemetry.source t ~read:(fun ~counter:_ ~gauge -> gauge "x" 2.0) ~zero:ignore;
  Alcotest.check_raises "two sources" (err "x" "gauge") (fun () ->
      ignore (Telemetry.dump_json t))

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

(* -- Run totals ------------------------------------------------------------ *)

(* Integer-valued floats keep every partial sum exact.  The windowed
   records land in 64 virtual windows, so a registry keeping 64 never
   wraps its rings.  Every 211th record also registers a source that adds
   to counter "c". *)
let record reg i =
  if i mod 211 = 0 then
    Telemetry.source reg
      ~read:(fun ~counter ~gauge:_ -> counter "c" (i + 1))
      ~zero:ignore;
  Telemetry.incr reg "c" ~by:(1 + (i mod 5));
  Telemetry.observe reg "h" (float_of_int ((i * 7919 mod 997) + 1));
  let at = float_of_int (i mod 64) +. 0.5 in
  Telemetry.add reg ~at ~by:(i mod 3) "wc";
  Telemetry.sample reg ~at "wh" (float_of_int ((i * 31 mod 101) + 1))

(* Each run total equals the sum of its windows. *)
let totals_match_windows reg =
  let windows name = List.map snd (Telemetry.windows reg name) in
  let count name = List.fold_left (fun acc w -> acc + w.Telemetry.count) 0 (windows name) in
  let sum name = List.fold_left (fun acc w -> acc +. w.Telemetry.sum) 0.0 (windows name) in
  float_of_int (Telemetry.counter_value reg "wc") = sum "wc"
  &&
  match Telemetry.hist_summary reg "wh" with
  | None -> windows "wh" = []
  | Some h -> h.Telemetry.count = count "wh" && h.Telemetry.sum = sum "wh"

let prop_totals_match_windows =
  QCheck.Test.make ~name:"run totals equal the sum of their windows" ~count:20
    QCheck.(int_range 0 3000)
    (fun n ->
      let reg = Telemetry.create ~windows:64 () in
      for i = 0 to n - 1 do
        record reg i
      done;
      totals_match_windows reg)

let test_sources_add_to_counters () =
  let n = 4096 in
  let reg = Telemetry.create () in
  for i = 0 to n - 1 do
    record reg i
  done;
  let sourced i = if i mod 211 = 0 then i + 1 else 0 in
  Alcotest.(check int) "counter total"
    (List.init n Fun.id
    |> List.fold_left (fun acc i -> acc + 1 + (i mod 5) + sourced i) 0)
    (Telemetry.counter_value reg "c");
  Alcotest.(check int) "histogram count" n
    (Option.get (Telemetry.hist_summary reg "h")).Telemetry.count

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
      ( "sources",
        [
          QCheck_alcotest.to_alcotest prop_sources_match_names;
          Alcotest.test_case "reset zeroes sources" `Quick test_reset_zeroes_sources;
          Alcotest.test_case "sources and a cell sum" `Quick test_sources_and_cell_sum;
          Alcotest.test_case "kind clash raises at read" `Quick test_source_kind_clash;
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
        ] );
      ( "json",
        [
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "errors" `Quick test_json_errors;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_fuzz_no_crash;
        ] );
      ( "totals",
        [
          QCheck_alcotest.to_alcotest prop_totals_match_windows;
          Alcotest.test_case "sources add to counters" `Quick test_sources_add_to_counters;
        ] );
    ]
