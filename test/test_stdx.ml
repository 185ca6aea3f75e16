(* Unit and property tests for the stdx substrate. *)

let check_float = Alcotest.(check (float 1e-9))

(* -- Prng ---------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Stdx.Prng.create ~seed:42 and b = Stdx.Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Stdx.Prng.bits64 a) (Stdx.Prng.bits64 b)
  done

let test_prng_seed_matters () =
  let a = Stdx.Prng.create ~seed:1 and b = Stdx.Prng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false
    (Stdx.Prng.bits64 a = Stdx.Prng.bits64 b)

let test_prng_split_independent () =
  let a = Stdx.Prng.create ~seed:7 in
  let b = Stdx.Prng.split a in
  Alcotest.(check bool) "split diverges" false
    (Stdx.Prng.bits64 a = Stdx.Prng.bits64 b)

let test_prng_int_bounds () =
  let rng = Stdx.Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Stdx.Prng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_prng_float_bounds () =
  let rng = Stdx.Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Stdx.Prng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_prng_shuffle_permutation () =
  let rng = Stdx.Prng.create ~seed:6 in
  let a = Array.init 50 (fun i -> i) in
  Stdx.Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_poisson_mean () =
  let rng = Stdx.Prng.create ~seed:8 in
  let n = 20_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Stdx.Prng.poisson rng ~mean:2.0
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "mean close to 2" true (mean > 1.9 && mean < 2.1)

let test_prng_exponential_mean () =
  let rng = Stdx.Prng.create ~seed:9 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Stdx.Prng.exponential rng ~mean:3.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean close to 3" true (mean > 2.8 && mean < 3.2)

(* -- Ewma ---------------------------------------------------------------- *)

let test_ewma_first_sample () =
  let e = Stdx.Ewma.create ~alpha:0.3 in
  check_float "first sample passes through" 5.0 (Stdx.Ewma.update e 5.0)

let test_ewma_alpha_one () =
  let e = Stdx.Ewma.create ~alpha:1.0 in
  ignore (Stdx.Ewma.update e 1.0);
  check_float "alpha=1 tracks input" 9.0 (Stdx.Ewma.update e 9.0)

let test_ewma_constant_series () =
  let e = Stdx.Ewma.create ~alpha:0.2 in
  for _ = 1 to 9 do
    ignore (Stdx.Ewma.update e 4.0)
  done;
  check_float "constant stays" 4.0 (Stdx.Ewma.update e 4.0)

let test_ewma_formula () =
  let e = Stdx.Ewma.create ~alpha:0.5 in
  ignore (Stdx.Ewma.update e 0.0);
  check_float "0.5 blend" 5.0 (Stdx.Ewma.update e 10.0)

let test_ewma_invalid_alpha () =
  Alcotest.check_raises "alpha 0"
    (Invalid_argument "Ewma.create: alpha must be in (0, 1]") (fun () ->
      ignore (Stdx.Ewma.create ~alpha:0.0))

(* -- Stats --------------------------------------------------------------- *)

let test_stats_mean () =
  check_float "mean" 2.0 (Stdx.Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty mean" 0.0 (Stdx.Stats.mean [])

let test_stats_summarize () =
  let s = Stdx.Stats.summarize [ 1.0; 3.0 ] in
  Alcotest.(check int) "n" 2 s.Stdx.Stats.n;
  check_float "mean" 2.0 s.Stdx.Stats.mean;
  check_float "min" 1.0 s.Stdx.Stats.min;
  check_float "max" 3.0 s.Stdx.Stats.max;
  check_float "stddev" 1.0 s.Stdx.Stats.stddev

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "p0" 1.0 (Stdx.Stats.percentile xs 0.0);
  check_float "p50" 3.0 (Stdx.Stats.percentile xs 50.0);
  check_float "p100" 5.0 (Stdx.Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stdx.Stats.percentile xs 25.0)

let test_stats_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (Stdx.Stats.percentile [] 50.0));
  Alcotest.check_raises "range" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Stdx.Stats.percentile [ 1.0 ] 101.0))

let test_jain_equal_shares () =
  check_float "equal shares" 1.0 (Stdx.Stats.jain_fairness [ 5.0; 5.0; 5.0 ])

let test_jain_single_winner () =
  check_float "single winner of 4" 0.25
    (Stdx.Stats.jain_fairness [ 8.0; 0.0; 0.0; 0.0 ])

let test_jain_edge_cases () =
  check_float "empty" 1.0 (Stdx.Stats.jain_fairness []);
  check_float "all zero" 1.0 (Stdx.Stats.jain_fairness [ 0.0; 0.0 ])

let prop_jain_bounds =
  QCheck.Test.make ~name:"jain in [1/n, 1]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.0 100.0))
    (fun xs ->
      let j = Stdx.Stats.jain_fairness xs in
      let n = float_of_int (List.length xs) in
      j >= (1.0 /. n) -. 1e-9 && j <= 1.0 +. 1e-9)

let test_percentile_interpolation () =
  Alcotest.(check (float 1e-9)) "p50 of pair" 1.5 (Stdx.Stats.percentile [ 1.0; 2.0 ] 50.0);
  Alcotest.(check (float 1e-9)) "p10 interpolates" 1.1
    (Stdx.Stats.percentile [ 1.0; 2.0 ] 10.0);
  Alcotest.(check (float 1e-9)) "singleton" 7.0 (Stdx.Stats.percentile [ 7.0 ] 99.0)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 30) (float_range 0.0 100.0))
              (pair (int_range 0 100) (int_range 0 100)))
    (fun (xs, (a, b)) ->
      let lo = min a b and hi = max a b in
      Stdx.Stats.percentile xs (float_of_int lo)
      <= Stdx.Stats.percentile xs (float_of_int hi) +. 1e-9)

let test_boxplot () =
  let b = Stdx.Stats.boxplot [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. ] in
  Alcotest.(check bool) "ordered" true
    (b.Stdx.Stats.whisker_lo <= b.Stdx.Stats.q1
    && b.Stdx.Stats.q1 <= b.Stdx.Stats.q2
    && b.Stdx.Stats.q2 <= b.Stdx.Stats.q3
    && b.Stdx.Stats.q3 <= b.Stdx.Stats.whisker_hi)

let () =
  Alcotest.run "stdx"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed matters" `Quick test_prng_seed_matters;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "poisson mean" `Quick test_prng_poisson_mean;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
        ] );
      ( "ewma",
        [
          Alcotest.test_case "first sample" `Quick test_ewma_first_sample;
          Alcotest.test_case "alpha one" `Quick test_ewma_alpha_one;
          Alcotest.test_case "constant" `Quick test_ewma_constant_series;
          Alcotest.test_case "formula" `Quick test_ewma_formula;
          Alcotest.test_case "invalid alpha" `Quick test_ewma_invalid_alpha;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "summarize" `Quick test_stats_summarize;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile errors" `Quick test_stats_percentile_errors;
          Alcotest.test_case "jain equal" `Quick test_jain_equal_shares;
          Alcotest.test_case "jain winner" `Quick test_jain_single_winner;
          Alcotest.test_case "jain edges" `Quick test_jain_edge_cases;
          QCheck_alcotest.to_alcotest prop_jain_bounds;
          Alcotest.test_case "percentile interpolation" `Quick
            test_percentile_interpolation;
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
          Alcotest.test_case "boxplot" `Quick test_boxplot;
        ] );
    ]
