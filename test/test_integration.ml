(* End-to-end integration tests: full service lifecycles across the
   allocator, controller, runtime, clients and the simulated testbed,
   plus sanity checks of the experiment harness itself. *)

module Controller = Activermt_control.Controller
module Negotiate = Activermt_client.Negotiate
module Cache_client = Activermt_client.Cache_client
module Mutant = Activermt_compiler.Mutant
module Kv = Workload.Kv
module Churn = Workload.Churn
module RT = Activermt.Runtime
module CS = Experiments.Case_study

let params = Rmt.Params.default

(* -- Full cache lifecycle against one switch ------------------------------ *)

let test_many_tenants_coexist () =
  (* Nine caches fill all nine mc-reachable stages three deep; every
     tenant can store and retrieve its own objects without interference. *)
  let ctl =
    Controller.create ~scheme:Activermt_alloc.Allocator.Worst_fit
      (Rmt.Device.create params)
  in
  let tables = Controller.tables ctl in
  let meta = RT.meta ~src:1 ~dst:2 () in
  let clients =
    List.init 9 (fun i ->
        let fid = i + 1 in
        match
          Controller.handle_request ctl (Negotiate.request_packet ~fid ~seq:0 Activermt_apps.Cache.service)
        with
        | Error _ -> Alcotest.fail "admission failed"
        | Ok p -> (
          let regions = Option.get (Negotiate.granted_regions p.Controller.response) in
          match
            Cache_client.create params ~policy:Mutant.Most_constrained ~fid ~regions
          with
          | Ok cc -> cc
          | Error e -> Alcotest.fail e))
  in
  (* Each tenant stores a distinct value under the same application key. *)
  let key = Kv.key_of_rank 42 in
  List.iteri
    (fun i cc ->
      let r = RT.run tables ~meta (Cache_client.populate_packet cc ~seq:i key ~value:(1000 + i)) in
      Alcotest.(check bool) "populate acked" true (r.RT.decision = RT.Return_to_sender))
    clients;
  List.iteri
    (fun i cc ->
      let r = RT.run tables ~meta (Cache_client.query_packet cc ~seq:(100 + i) key) in
      Alcotest.(check bool) "hit" true (r.RT.decision = RT.Return_to_sender);
      Alcotest.(check int) "isolated value" (1000 + i) r.RT.args_out.(3))
    clients

let test_protection_isolates_tenants () =
  (* Tenant 2's region never aliases tenant 1's: writing through tenant 2
     cannot change what tenant 1 reads, even co-located on the same
     stages. *)
  let ctl =
    Controller.create ~scheme:Activermt_alloc.Allocator.Best_fit
      (Rmt.Device.create params)
  in
  let tables = Controller.tables ctl in
  let meta = RT.meta ~src:1 ~dst:2 () in
  let mk fid =
    match
      Controller.handle_request ctl
        (Negotiate.request_packet ~fid ~seq:0 Activermt_apps.Cache.service)
    with
    | Error _ -> Alcotest.fail "admission"
    | Ok p -> (
      let regions = Option.get (Negotiate.granted_regions p.Controller.response) in
      match Cache_client.create params ~policy:Mutant.Most_constrained ~fid ~regions with
      | Ok cc -> cc
      | Error e -> Alcotest.fail e)
  in
  let cc1 = mk 1 in
  (* tenant 1 stores before tenant 2 arrives; arrival reallocates tenant 1
     (auto mode migrates its data). *)
  let key = Kv.key_of_rank 7 in
  ignore (RT.run tables ~meta (Cache_client.populate_packet cc1 ~seq:0 key ~value:111));
  let cc2 = mk 2 in
  (* tenant 1 must re-synthesize against its shrunken region. *)
  let regions1 = Option.get (Negotiate.granted_regions (Option.get (Controller.regions_packet ctl ~fid:1))) in
  let cc1 =
    match Cache_client.create params ~policy:Mutant.Most_constrained ~fid:1 ~regions:regions1 with
    | Ok cc -> cc
    | Error e -> Alcotest.fail e
  in
  ignore (RT.run tables ~meta (Cache_client.populate_packet cc1 ~seq:1 key ~value:111));
  ignore (RT.run tables ~meta (Cache_client.populate_packet cc2 ~seq:2 key ~value:222));
  let r1 = RT.run tables ~meta (Cache_client.query_packet cc1 ~seq:3 key) in
  Alcotest.(check bool) "tenant 1 still hits" true (r1.RT.decision = RT.Return_to_sender);
  Alcotest.(check int) "tenant 1 unclobbered" 111 r1.RT.args_out.(3)

(* -- Harness sanity ------------------------------------------------------- *)

let test_harness_accounting () =
  let rng = Stdx.Prng.create ~seed:101 in
  let trace = Churn.generate Churn.default_config ~epochs:50 rng in
  let result = Experiments.Harness.run ~params trace in
  Alcotest.(check int) "one stat per epoch" 50 (List.length result.Experiments.Harness.epochs);
  List.iter
    (fun e ->
      Alcotest.(check int) "arrivals = admitted + failed" e.Experiments.Harness.arrivals
        (e.Experiments.Harness.admitted + e.Experiments.Harness.failed);
      Alcotest.(check bool) "utilization bounded" true
        (e.Experiments.Harness.utilization >= 0.0 && e.Experiments.Harness.utilization <= 1.0);
      Alcotest.(check bool) "fairness bounded" true
        (e.Experiments.Harness.fairness >= 0.0 && e.Experiments.Harness.fairness <= 1.0 +. 1e-9);
      (* A reallocated cache may depart later in the same epoch, so the
         count is bounded by residents plus that epoch's churn. *)
      Alcotest.(check bool) "cache realloc non-negative" true
        (e.Experiments.Harness.cache_reallocated >= 0))
    result.Experiments.Harness.epochs

let test_harness_policies_differ () =
  (* lc admits at least as many heavy hitters as mc (Fig 5a's shape). *)
  let run policy =
    let trace = Churn.arrivals_sequence Churn.Heavy_hitter ~n:80 in
    let r = Experiments.Harness.run ~policy ~params trace in
    List.fold_left (fun acc e -> acc + e.Experiments.Harness.admitted) 0 r.Experiments.Harness.epochs
  in
  let mc = run Mutant.Most_constrained in
  let lc = run Mutant.Least_constrained in
  Alcotest.(check int) "mc admits 16" 16 mc;
  Alcotest.(check bool) "lc admits more" true (lc > mc)

(* -- Case study (short) --------------------------------------------------- *)

let test_case_study_single () =
  let config =
    { CS.default_config with CS.request_rate_pps = 4000.0; hh_window_s = 1.0 }
  in
  let r = CS.run_single ~config params in
  let t = List.hd r.CS.tenants in
  (* Monitoring phase: no hits in the first second. *)
  Alcotest.(check (float 0.0)) "no hits while monitoring" 0.0
    (CS.hit_rate_window t ~lo_ms:0 ~hi_ms:900);
  (* Cache phase: healthy hit rate at the end. *)
  let final =
    CS.hit_rate_window t
      ~lo_ms:(int_of_float ((r.CS.duration_s -. 2.0) *. 1000.0))
      ~hi_ms:(int_of_float (r.CS.duration_s *. 1000.0))
  in
  Alcotest.(check bool) "stable hit rate > 0.3" true (final > 0.3);
  Alcotest.(check bool) "first hit after context switch" true
    (match t.CS.first_hit_s with Some s -> s > 1.0 | None -> false)

let test_case_study_multi () =
  let config = { CS.default_config with CS.request_rate_pps = 4000.0 } in
  let r = CS.run_multi ~config ~n_tenants:4 ~stagger_s:3.0 params in
  Alcotest.(check int) "four tenants" 4 (List.length r.CS.tenants);
  let buckets = List.map (fun t -> t.CS.n_buckets) r.CS.tenants in
  (match buckets with
  | [ b1; b2; b3; b4 ] ->
    (* First three exclusive, fourth shares with the first. *)
    Alcotest.(check int) "tenant 2 exclusive" 65536 b2;
    Alcotest.(check int) "tenant 3 exclusive" 65536 b3;
    Alcotest.(check int) "tenant 1 halved" 32768 b1;
    Alcotest.(check int) "tenant 4 halved" 32768 b4
  | _ -> Alcotest.fail "bucket list");
  (* Only the first tenant is disrupted, around the fourth arrival. *)
  let t1 = List.nth r.CS.tenants 0 in
  (match t1.CS.disruptions with
  | [ (a, b) ] ->
    Alcotest.(check bool) "disruption at 4th arrival" true (a >= 9.0 && a <= 9.5);
    Alcotest.(check bool) "lasts 50-500 ms" true (b -. a > 0.05 && b -. a < 0.5)
  | _ -> Alcotest.fail "expected exactly one disruption");
  List.iteri
    (fun i t ->
      if i > 0 && i < 3 then
        Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "undisrupted" []
          t.CS.disruptions)
    r.CS.tenants

let test_case_study_deterministic () =
  let config = { CS.default_config with CS.request_rate_pps = 2000.0 } in
  let r1 = CS.run_single ~config params in
  let r2 = CS.run_single ~config params in
  let t1 = List.hd r1.CS.tenants and t2 = List.hd r2.CS.tenants in
  Alcotest.(check bool) "identical hit series" true (t1.CS.bins_hits = t2.CS.bins_hits)

let () =
  Alcotest.run "integration"
    [
      ( "multi-tenant switch",
        [
          Alcotest.test_case "nine tenants coexist" `Quick test_many_tenants_coexist;
          Alcotest.test_case "protection isolates" `Quick test_protection_isolates_tenants;
        ] );
      ( "harness",
        [
          Alcotest.test_case "accounting" `Quick test_harness_accounting;
          Alcotest.test_case "policies differ" `Quick test_harness_policies_differ;
        ] );
      ( "case study",
        [
          Alcotest.test_case "single tenant" `Slow test_case_study_single;
          Alcotest.test_case "multi tenant" `Slow test_case_study_multi;
          Alcotest.test_case "deterministic" `Slow test_case_study_deterministic;
        ] );
    ]
