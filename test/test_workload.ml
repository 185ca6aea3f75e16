(* Tests for workload generation: Zipf sampling, KV objects and the
   arrival/departure (churn) traces. *)

module Zipf = Workload.Zipf
module Kv = Workload.Kv
module Churn = Workload.Churn
module Prng = Stdx.Prng

(* -- Zipf ---------------------------------------------------------------- *)

let test_zipf_range () =
  let z = Zipf.create ~n:100 (Prng.create ~seed:1) in
  for _ = 1 to 1000 do
    let r = Zipf.sample z in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < 100)
  done

let test_zipf_pmf_sums_to_one () =
  let z = Zipf.create ~n:500 (Prng.create ~seed:1) in
  let total = ref 0.0 in
  for i = 0 to 499 do
    total := !total +. Zipf.pmf z i
  done;
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 !total

let test_zipf_pmf_monotone () =
  let z = Zipf.create ~n:100 (Prng.create ~seed:1) in
  for i = 1 to 99 do
    Alcotest.(check bool) "non-increasing" true (Zipf.pmf z i <= Zipf.pmf z (i - 1) +. 1e-12)
  done

let test_zipf_head_mass () =
  let z = Zipf.create ~exponent:1.0 ~n:1000 (Prng.create ~seed:1) in
  Alcotest.(check (float 1e-9)) "zero head" 0.0 (Zipf.head_mass z 0);
  Alcotest.(check (float 1e-9)) "full head" 1.0 (Zipf.head_mass z 1000);
  Alcotest.(check bool) "monotone" true (Zipf.head_mass z 10 < Zipf.head_mass z 100);
  Alcotest.(check bool) "skewed" true (Zipf.head_mass z 100 > 0.5)

let test_zipf_empirical_skew () =
  let z = Zipf.create ~exponent:1.0 ~n:1000 (Prng.create ~seed:7) in
  let n = 50_000 in
  let top10 = ref 0 in
  for _ = 1 to n do
    if Zipf.sample z < 10 then incr top10
  done;
  let frac = float_of_int !top10 /. float_of_int n in
  let expect = Zipf.head_mass z 10 in
  Alcotest.(check bool) "empirical matches head mass" true
    (abs_float (frac -. expect) < 0.02)

let test_zipf_deterministic () =
  let mk () = Zipf.create ~n:50 (Prng.create ~seed:3) in
  let a = mk () and b = mk () in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Zipf.sample a) (Zipf.sample b)
  done

let test_zipf_invalid () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Zipf.create ~n:0 (Prng.create ~seed:1));
       false
     with Invalid_argument _ -> true)

(* [Zipf.sample]'s guide table against a binary search for the first
   rank whose cdf is >= u, built on [head_mass] (the cdf entries exactly)
   and fed the same u from a second generator of the same seed: the ranks
   must be identical, draw for draw. *)
let test_zipf_guide_matches_binary_search () =
  List.iter
    (fun (n, exponent) ->
      let seed = 11 in
      let z = Zipf.create ~exponent ~n (Prng.create ~seed) in
      let cdf = Array.init n (fun i -> Zipf.head_mass z (i + 1)) in
      let oracle = Prng.create ~seed in
      let rec bs u lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cdf.(mid) >= u then bs u lo mid else bs u (mid + 1) hi
      in
      for k = 1 to 1_000_000 do
        let want = bs (Prng.float oracle 1.0) 0 (n - 1) in
        let got = Zipf.sample z in
        if got <> want then
          Alcotest.failf "n %d exponent %g draw %d: rank %d, binary search %d" n exponent k
            got want
      done)
    (List.concat_map
       (fun n -> List.map (fun e -> (n, e)) [ 0.0; 0.99; 2.5 ])
       [ 1; 2; 5; 4096; 100_000 ])

(* -- Kv ------------------------------------------------------------------ *)

let test_kv_key_roundtrip () =
  for rank = 0 to 1000 do
    match Kv.rank_of_key (Kv.key_of_rank rank) with
    | Some r -> Alcotest.(check int) "roundtrip" rank r
    | None -> Alcotest.fail "lost rank"
  done

let test_kv_garbage_key () =
  Alcotest.(check bool) "garbage rejected" true
    (Kv.rank_of_key { Kv.k0 = 123; k1 = 456 } = None)

let test_kv_values_nonzero () =
  for rank = 0 to 1000 do
    Alcotest.(check bool) "non-zero value" true (Kv.value_of_rank rank <> 0)
  done

let test_kv_keys_distinct () =
  let keys = List.init 1000 Kv.key_of_rank in
  Alcotest.(check int) "distinct" 1000 (List.length (List.sort_uniq compare keys))

(* -- Churn --------------------------------------------------------------- *)

let test_churn_pure () =
  let trace = Churn.arrivals_sequence Churn.Cache ~n:10 in
  Alcotest.(check int) "10 epochs" 10 (List.length trace);
  List.iteri
    (fun i e ->
      Alcotest.(check int) "indexed" i e.Churn.index;
      match e.Churn.events with
      | [ Churn.Arrive { kind = Churn.Cache; _ } ] -> ()
      | _ -> Alcotest.fail "one cache arrival per epoch")
    trace

let test_churn_fids_unique () =
  let rng = Prng.create ~seed:5 in
  let trace = Churn.generate Churn.default_config ~epochs:200 rng in
  let fids =
    List.concat_map
      (fun e ->
        List.filter_map
          (function Churn.Arrive { fid; _ } -> Some fid | Churn.Depart _ -> None)
          e.Churn.events)
      trace
  in
  Alcotest.(check int) "unique fids" (List.length fids)
    (List.length (List.sort_uniq compare fids))

let test_churn_departures_only_alive () =
  let rng = Prng.create ~seed:6 in
  let trace = Churn.generate Churn.default_config ~epochs:300 rng in
  let alive = Hashtbl.create 64 in
  List.iter
    (fun e ->
      List.iter
        (function
          | Churn.Arrive { fid; _ } -> Hashtbl.replace alive fid ()
          | Churn.Depart { fid } ->
            Alcotest.(check bool) "departing fid is alive" true (Hashtbl.mem alive fid);
            Hashtbl.remove alive fid)
        e.Churn.events)
    trace

let test_churn_rates () =
  let rng = Prng.create ~seed:7 in
  let epochs = 2000 in
  let trace = Churn.generate Churn.default_config ~epochs rng in
  let arr = ref 0 and dep = ref 0 in
  List.iter
    (fun e ->
      List.iter
        (function Churn.Arrive _ -> incr arr | Churn.Depart _ -> incr dep)
        e.Churn.events)
    trace;
  let arr_rate = float_of_int !arr /. float_of_int epochs in
  let dep_rate = float_of_int !dep /. float_of_int epochs in
  Alcotest.(check bool) "arrival mean ~2" true (arr_rate > 1.85 && arr_rate < 2.15);
  Alcotest.(check bool) "departure mean ~1" true (dep_rate > 0.85 && dep_rate < 1.15)

let test_churn_mixed_kinds () =
  let rng = Prng.create ~seed:8 in
  let trace = Churn.mixed_arrivals ~n:300 rng in
  let kinds =
    List.filter_map
      (fun e ->
        match e.Churn.events with
        | [ Churn.Arrive { kind; _ } ] -> Some kind
        | _ -> None)
      trace
  in
  Alcotest.(check int) "all three kinds appear" 3
    (List.length (List.sort_uniq compare kinds))

let test_churn_extended_kinds () =
  Alcotest.(check int) "five extended kinds" 5 (Array.length Churn.extended_kinds);
  Alcotest.(check int) "three paper kinds" 3 (Array.length Churn.all_kinds);
  let rng = Prng.create ~seed:12 in
  let trace = Churn.generate Churn.extended_config ~epochs:400 rng in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun e ->
      List.iter
        (function
          | Churn.Arrive { kind; _ } -> Hashtbl.replace seen kind ()
          | Churn.Depart _ -> ())
        e.Churn.events)
    trace;
  Alcotest.(check int) "all five kinds arrive" 5 (Hashtbl.length seen)

let test_churn_deterministic () =
  let t1 = Churn.generate Churn.default_config ~epochs:50 (Prng.create ~seed:9) in
  let t2 = Churn.generate Churn.default_config ~epochs:50 (Prng.create ~seed:9) in
  Alcotest.(check bool) "same trace" true (t1 = t2)

(* -- Zipf churn (batched epoch admission workload) ----------------------- *)

let zcfg = { Churn.default_zipf_config with Churn.clients = 2000; batch = 32; resident_target = 48 }

let force cfg seed = List.of_seq (Churn.zipf_churn cfg (Prng.create ~seed))

let zipf_arrivals epochs =
  List.concat_map
    (fun e ->
      List.filter_map
        (function
          | Churn.Arrive { fid; kind; _ } -> Some (fid, kind)
          | Churn.Depart _ -> None)
        e.Churn.events)
    epochs

let test_zipf_churn_deterministic () =
  (* Equal-seed generators replay identically — the property the churnsim
     golden leans on end to end. *)
  Alcotest.(check bool) "same sequence" true (force zcfg 11 = force zcfg 11)

let test_zipf_churn_every_client_arrives_once () =
  let epochs = force zcfg 13 in
  let fids = List.map fst (zipf_arrivals epochs) in
  Alcotest.(check int) "every client arrives" zcfg.Churn.clients (List.length fids);
  Alcotest.(check int) "fids unique" (List.length fids)
    (List.length (List.sort_uniq compare fids));
  Alcotest.(check (list int)) "fids increasing" (List.sort compare fids) fids;
  List.iteri
    (fun i e ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d carries at most batch arrivals" i)
        true
        (List.length
           (List.filter (function Churn.Arrive _ -> true | _ -> false) e.Churn.events)
        <= zcfg.Churn.batch))
    epochs

let test_zipf_churn_resident_bound () =
  (* Departures trim the alive set back to resident_target after each
     epoch's arrivals, and only ever remove alive instances. *)
  let epochs = force zcfg 17 in
  let alive = Hashtbl.create 64 in
  List.iter
    (fun e ->
      List.iter
        (function
          | Churn.Arrive { fid; _ } -> Hashtbl.replace alive fid ()
          | Churn.Depart { fid } ->
            Alcotest.(check bool) "departing fid is alive" true (Hashtbl.mem alive fid);
            Hashtbl.remove alive fid)
        e.Churn.events;
      Alcotest.(check bool) "alive trimmed to resident target" true
        (Hashtbl.length alive <= zcfg.Churn.resident_target))
    epochs

let test_zipf_churn_popularity_skew () =
  (* The head of the popularity order must dominate the arrival mix. *)
  let kinds = List.map snd (zipf_arrivals (force zcfg 19)) in
  let count k = List.length (List.filter (( = ) k) kinds) in
  let head = count zcfg.Churn.zipf_kinds.(0) in
  let tail = count zcfg.Churn.zipf_kinds.(Array.length zcfg.Churn.zipf_kinds - 1) in
  Alcotest.(check bool) "head kind dominates tail kind" true (head > 2 * tail);
  Alcotest.(check bool) "head takes a plurality" true
    (Array.for_all (fun k -> count k <= head) zcfg.Churn.zipf_kinds)

let test_zipf_churn_invalid_configs () =
  let raises cfg =
    try
      let (_ : Churn.epoch Seq.t) = Churn.zipf_churn cfg (Prng.create ~seed:1) in
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero batch" true
    (raises { zcfg with Churn.batch = 0 });
  Alcotest.(check bool) "negative clients" true
    (raises { zcfg with Churn.clients = -1 });
  Alcotest.(check bool) "empty kinds" true
    (raises { zcfg with Churn.zipf_kinds = [||] });
  Alcotest.(check bool) "non-positive tenant weight" true
    (raises { zcfg with Churn.tenant_weights = [| 2; 0 |] })

let wzcfg = { zcfg with Churn.tenant_weights = [| 1; 3 |] }

let test_zipf_churn_tenant_labels () =
  let epochs = force wzcfg 11 in
  let tenants =
    List.concat_map
      (fun e ->
        List.filter_map
          (function
            | Churn.Arrive { tenant; _ } -> Some tenant
            | Churn.Depart _ -> None)
          e.Churn.events)
      epochs
  in
  Alcotest.(check bool) "every arrival labelled in range" true
    (List.for_all (function Some (0 | 1) -> true | _ -> false) tenants);
  let count t = List.length (List.filter (( = ) (Some t)) tenants) in
  (* Weight 3 vs 1: the heavy tenant should dominate well beyond noise
     over 2000 arrivals. *)
  Alcotest.(check bool) "weights skew the draw" true (count 1 > 2 * count 0);
  Alcotest.(check bool) "deterministic" true (force wzcfg 11 = force wzcfg 11)

let test_zipf_churn_tenants_perturb_nothing () =
  (* Tenant labels come from their own split stream seeded at setup, so
     enabling weights changes neither the arrival (fid, kind) sequence
     (kinds draw from the zipf stream, split off first) nor the event
     shape: epoch count and per-epoch arrival/departure counts are
     alive-set arithmetic, independent of which fids the labels ride on.
     With weights empty no extra draw happens at all — the no-tenant
     sequence is byte-identical to the pre-tenant generator's. *)
  let plain = force zcfg 13 and weighted = force wzcfg 13 in
  Alcotest.(check bool) "same (fid, kind) arrivals" true
    (zipf_arrivals plain = zipf_arrivals weighted);
  let shape epochs =
    List.map
      (fun e ->
        let arr, dep =
          List.partition
            (function Churn.Arrive _ -> true | Churn.Depart _ -> false)
            e.Churn.events
        in
        (e.Churn.index, List.length arr, List.length dep))
      epochs
  in
  Alcotest.(check bool) "same epoch shape" true (shape plain = shape weighted)

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "range" `Quick test_zipf_range;
          Alcotest.test_case "pmf sums" `Quick test_zipf_pmf_sums_to_one;
          Alcotest.test_case "pmf monotone" `Quick test_zipf_pmf_monotone;
          Alcotest.test_case "head mass" `Quick test_zipf_head_mass;
          Alcotest.test_case "empirical skew" `Quick test_zipf_empirical_skew;
          Alcotest.test_case "deterministic" `Quick test_zipf_deterministic;
          Alcotest.test_case "invalid" `Quick test_zipf_invalid;
          Alcotest.test_case "guide = binary search" `Quick
            test_zipf_guide_matches_binary_search;
        ] );
      ( "kv",
        [
          Alcotest.test_case "key roundtrip" `Quick test_kv_key_roundtrip;
          Alcotest.test_case "garbage key" `Quick test_kv_garbage_key;
          Alcotest.test_case "values non-zero" `Quick test_kv_values_nonzero;
          Alcotest.test_case "keys distinct" `Quick test_kv_keys_distinct;
        ] );
      ( "churn",
        [
          Alcotest.test_case "pure sequence" `Quick test_churn_pure;
          Alcotest.test_case "unique fids" `Quick test_churn_fids_unique;
          Alcotest.test_case "departures alive" `Quick test_churn_departures_only_alive;
          Alcotest.test_case "rates" `Quick test_churn_rates;
          Alcotest.test_case "mixed kinds" `Quick test_churn_mixed_kinds;
          Alcotest.test_case "extended kinds" `Quick test_churn_extended_kinds;
          Alcotest.test_case "deterministic" `Quick test_churn_deterministic;
        ] );
      ( "zipf churn",
        [
          Alcotest.test_case "deterministic" `Quick test_zipf_churn_deterministic;
          Alcotest.test_case "every client arrives once" `Quick
            test_zipf_churn_every_client_arrives_once;
          Alcotest.test_case "resident bound" `Quick test_zipf_churn_resident_bound;
          Alcotest.test_case "popularity skew" `Quick test_zipf_churn_popularity_skew;
          Alcotest.test_case "invalid configs" `Quick test_zipf_churn_invalid_configs;
          Alcotest.test_case "tenant labels" `Quick test_zipf_churn_tenant_labels;
          Alcotest.test_case "tenants perturb nothing" `Quick
            test_zipf_churn_tenants_perturb_nothing;
        ] );
    ]
