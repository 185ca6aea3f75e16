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

let test_prng_copy_independent () =
  let a = Stdx.Prng.create ~seed:7 in
  let b = Stdx.Prng.copy a in
  let xa = Stdx.Prng.bits64 a in
  let xb = Stdx.Prng.bits64 b in
  Alcotest.(check int64) "copy replays" xa xb

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

let test_prng_int_in () =
  let rng = Stdx.Prng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Stdx.Prng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
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
  Alcotest.(check (option (float 0.0))) "empty" None (Stdx.Ewma.value e);
  check_float "first sample passes through" 5.0 (Stdx.Ewma.update e 5.0)

let test_ewma_alpha_one () =
  let e = Stdx.Ewma.create ~alpha:1.0 in
  ignore (Stdx.Ewma.update e 1.0);
  check_float "alpha=1 tracks input" 9.0 (Stdx.Ewma.update e 9.0)

let test_ewma_constant_series () =
  let e = Stdx.Ewma.create ~alpha:0.2 in
  for _ = 1 to 10 do
    ignore (Stdx.Ewma.update e 4.0)
  done;
  check_float "constant stays" 4.0 (Stdx.Ewma.value_or e ~default:nan)

let test_ewma_formula () =
  let e = Stdx.Ewma.create ~alpha:0.5 in
  ignore (Stdx.Ewma.update e 0.0);
  check_float "0.5 blend" 5.0 (Stdx.Ewma.update e 10.0)

let test_ewma_invalid_alpha () =
  Alcotest.check_raises "alpha 0"
    (Invalid_argument "Ewma.create: alpha must be in (0, 1]") (fun () ->
      ignore (Stdx.Ewma.create ~alpha:0.0))

let test_ewma_smooth_length () =
  Alcotest.(check int) "same length" 5
    (List.length (Stdx.Ewma.smooth ~alpha:0.4 [ 1.; 2.; 3.; 4.; 5. ]))

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

let test_histogram () =
  let h = Stdx.Stats.histogram ~bins:4 ~lo:0.0 ~hi:4.0 [ 0.5; 1.5; 2.5; 3.5; 9.0; -1.0 ] in
  Alcotest.(check (array int)) "bins with clamping" [| 2; 1; 1; 2 |] h

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

(* -- Domain_pool --------------------------------------------------------- *)

let test_dpool_sequential () =
  let p = Stdx.Domain_pool.create ~size:1 () in
  let arr = Array.init 100 Fun.id in
  Alcotest.(check (array int)) "map doubles" (Array.map (fun x -> 2 * x) arr)
    (Stdx.Domain_pool.map p ~f:(fun x -> 2 * x) arr)

let test_dpool_map_large () =
  (* Big enough to clear the spawn threshold, so domains really fan out. *)
  let p = Stdx.Domain_pool.create ~size:2 () in
  let arr = Array.init 3000 Fun.id in
  Alcotest.(check (array int)) "map squares" (Array.map (fun x -> x * x) arr)
    (Stdx.Domain_pool.map p ~f:(fun x -> x * x) arr)

let test_dpool_coverage () =
  let p = Stdx.Domain_pool.create ~size:3 () in
  let n = 2000 in
  let hits = Array.make n 0 in
  (* Each index is written by exactly one domain, so no synchronization
     is needed for the increments. *)
  Stdx.Domain_pool.parallel_for p ~n ~f:(fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "every index exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_dpool_size_clamp () =
  Alcotest.(check int) "clamped to 1" 1
    (Stdx.Domain_pool.size (Stdx.Domain_pool.create ~size:0 ()));
  Alcotest.(check bool) "default >= 1" true
    (Stdx.Domain_pool.size (Stdx.Domain_pool.create ()) >= 1)

let test_dpool_empty () =
  let p = Stdx.Domain_pool.create ~size:4 () in
  Alcotest.(check (array int)) "empty map" [||]
    (Stdx.Domain_pool.map p ~f:(fun x -> x) [||]);
  Stdx.Domain_pool.parallel_for p ~n:0 ~f:(fun _ -> Alcotest.fail "no indices")

let prop_dpool_map_any_size =
  QCheck.Test.make ~name:"map = Array.map at any pool size and length" ~count:50
    QCheck.(pair (int_range 1 6) (int_range 0 700))
    (fun (size, n) ->
      let p = Stdx.Domain_pool.create ~size () in
      let arr = Array.init n (fun i -> i * 3) in
      let ok =
        Stdx.Domain_pool.map p ~f:(fun x -> x + 1) arr = Array.map (fun x -> x + 1) arr
      in
      (* Workers are persistent; reap them so 50 trials do not pile up
         parked domains against the runtime limit. *)
      Stdx.Domain_pool.shutdown p;
      ok)

let test_dpool_shutdown () =
  let p = Stdx.Domain_pool.create ~size:3 () in
  let arr = Array.init 2000 Fun.id in
  Alcotest.(check (array int)) "fan-out works" (Array.map succ arr)
    (Stdx.Domain_pool.map p ~f:succ arr);
  Stdx.Domain_pool.shutdown p;
  Stdx.Domain_pool.shutdown p;
  (* After shutdown the pool degrades to the sequential path. *)
  Alcotest.(check (array int)) "sequential after shutdown" (Array.map succ arr)
    (Stdx.Domain_pool.map p ~f:succ arr)

let test_dpool_reuse_across_calls () =
  (* The same parked workers serve many generations. *)
  let p = Stdx.Domain_pool.create ~size:3 () in
  let n = 1500 in
  let acc = Array.make n 0 in
  for _ = 1 to 5 do
    Stdx.Domain_pool.parallel_for p ~n ~f:(fun i -> acc.(i) <- acc.(i) + 1)
  done;
  Stdx.Domain_pool.shutdown p;
  Alcotest.(check bool) "every index five times" true
    (Array.for_all (fun h -> h = 5) acc)

(* -- Sharded ------------------------------------------------------------- *)

let test_sharded_same_shard_within_domain () =
  let s = Stdx.Sharded.create ~init:(fun () -> ref 0) () in
  let a = Stdx.Sharded.get s in
  incr a;
  let b = Stdx.Sharded.get s in
  Alcotest.(check bool) "same shard" true (a == b);
  Alcotest.(check int) "one shard registered" 1 (Stdx.Sharded.n_shards s)

let test_sharded_fold_after_join () =
  let s = Stdx.Sharded.create ~init:(fun () -> ref 0) () in
  let pool = Stdx.Domain_pool.create ~size:3 () in
  let n = 3000 in
  (* Each worker bumps its own shard; the pool joins its domains before
     returning, so the fold below sees every increment. *)
  Stdx.Domain_pool.parallel_for pool ~n ~f:(fun _ ->
      let r = Stdx.Sharded.get s in
      incr r);
  Alcotest.(check int) "all increments merged" n
    (Stdx.Sharded.fold s ~init:0 ~f:(fun acc r -> acc + !r))

let () =
  Alcotest.run "stdx"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed matters" `Quick test_prng_seed_matters;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in;
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
          Alcotest.test_case "smooth length" `Quick test_ewma_smooth_length;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "sequential fallback" `Quick test_dpool_sequential;
          Alcotest.test_case "map = Array.map (spawning)" `Quick test_dpool_map_large;
          Alcotest.test_case "covers every index once" `Quick test_dpool_coverage;
          Alcotest.test_case "size clamped" `Quick test_dpool_size_clamp;
          Alcotest.test_case "empty input" `Quick test_dpool_empty;
          Alcotest.test_case "shutdown" `Quick test_dpool_shutdown;
          Alcotest.test_case "reuse across calls" `Quick test_dpool_reuse_across_calls;
          QCheck_alcotest.to_alcotest prop_dpool_map_any_size;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "stable shard per domain" `Quick
            test_sharded_same_shard_within_domain;
          Alcotest.test_case "fold after join" `Quick test_sharded_fold_after_join;
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
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "percentile interpolation" `Quick
            test_percentile_interpolation;
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
          Alcotest.test_case "boxplot" `Quick test_boxplot;
        ] );
    ]
