(* Fleet layer: topology routing, placement-policy determinism,
   spill-over admission, cross-switch migration (state equality through
   the memsync drain/repopulate path) and switch-failure re-placement
   (no FID lost or double-placed). *)

module Topology = Activermt_fleet.Topology
module Placement = Activermt_fleet.Placement
module Fleet = Activermt_fleet.Fleet
module Telemetry = Activermt_telemetry.Telemetry
module Harness = Experiments.Harness
module Churn = Workload.Churn

let hh = Harness.app_of_kind Churn.Heavy_hitter
let counter = Harness.app_of_kind Churn.Flow_counter

(* Small stages so a handful of heavy-hitter services fills a switch. *)
let small_params = Rmt.Params.with_blocks_per_stage Rmt.Params.default 32

(* ---------- topology ---------- *)

let test_topology_routes () =
  let line = Topology.line ~switches:3 ~latency_s:1.0 in
  Alcotest.(check (option int)) "line 0->2 via 1" (Some 1)
    (Topology.next_hop line ~src:0 ~dst:2);
  Alcotest.(check (float 1e-9)) "line 0->2 latency" 2.0
    (Topology.latency line ~src:0 ~dst:2);
  let star = Topology.star ~switches:4 ~latency_s:0.5 in
  Alcotest.(check (option int)) "star spoke->spoke via hub" (Some 0)
    (Topology.next_hop star ~src:1 ~dst:3);
  let mesh = Topology.full_mesh ~switches:4 ~latency_s:2.0 in
  Alcotest.(check (option int)) "mesh direct" (Some 3)
    (Topology.next_hop mesh ~src:1 ~dst:3);
  Alcotest.(check (float 1e-9)) "mesh latency is one hop" 2.0
    (Topology.latency mesh ~src:1 ~dst:3);
  Alcotest.(check (option int)) "no hop to self" None
    (Topology.next_hop mesh ~src:2 ~dst:2)

let test_topology_validation () =
  Alcotest.check_raises "zero switches" (Invalid_argument
    "Topology.create: need at least one switch") (fun () ->
      ignore (Topology.create ~switches:0 ~links:[]));
  Alcotest.check_raises "self loop" (Invalid_argument "Topology.create: self-loop")
    (fun () -> ignore (Topology.create ~switches:2 ~links:[ (1, 1, 1.0) ]));
  let disconnected = Topology.create ~switches:2 ~links:[] in
  Alcotest.(check bool) "disconnected pair" false
    (Topology.connected disconnected ~src:0 ~dst:1)

(* ---------- placement ---------- *)

let prop_order_permutation_invariant =
  QCheck.Test.make ~count:100
    ~name:"placement order depends on loads, not their ordering"
    QCheck.(triple (int_range 2 8) small_int small_int)
    (fun (n, seed, shuffle_seed) ->
      let prng = Stdx.Prng.create ~seed in
      let loads =
        List.init n (fun i ->
            {
              Placement.switch = i;
              utilization = Stdx.Prng.float prng 1.0;
              residents = Stdx.Prng.int prng 20;
              up = Stdx.Prng.int prng 4 > 0;
            })
      in
      let shuffled =
        let a = Array.of_list loads in
        Stdx.Prng.shuffle (Stdx.Prng.create ~seed:shuffle_seed) a;
        Array.to_list a
      in
      List.for_all
        (fun policy ->
          List.for_all
            (fun home ->
              Placement.order policy ~home loads
              = Placement.order policy ~home shuffled)
            [ None; Some 0; Some (n - 1) ])
        Placement.all_policies)

let test_order_policies () =
  let load switch utilization residents up =
    { Placement.switch; utilization; residents; up }
  in
  let loads = [ load 0 0.5 3 true; load 1 0.1 1 true; load 2 0.3 2 false ] in
  Alcotest.(check (list int)) "first-fit skips down switches" [ 0; 1 ]
    (Placement.order Placement.First_fit_switch ~home:None loads);
  Alcotest.(check (list int)) "least-loaded ascends utilization" [ 1; 0 ]
    (Placement.order Placement.Least_loaded ~home:None loads);
  Alcotest.(check (list int)) "locality puts home first" [ 0; 1 ]
    (Placement.order Placement.Locality ~home:(Some 0) loads);
  Alcotest.(check (list int)) "locality with down home degrades" [ 1; 0 ]
    (Placement.order Placement.Locality ~home:(Some 2) loads)

let test_hierarchical_policy () =
  (match Placement.policy_of_string "hierarchical" with
  | Ok Placement.Hierarchical -> ()
  | _ -> Alcotest.fail "policy_of_string does not accept \"hierarchical\"");
  Alcotest.(check string) "string round-trip" "hierarchical"
    (Placement.policy_to_string Placement.Hierarchical);
  Alcotest.(check bool) "listed in all_policies" true
    (List.mem Placement.Hierarchical Placement.all_policies);
  (* Pod-aware ordering: home pod's switches lead, then other pods by
     mean utilization; first-fit (ascending id) within each pod. *)
  let load switch utilization residents up =
    { Placement.switch; utilization; residents; up }
  in
  let loads =
    [
      load 0 0.9 9 true; load 1 0.8 8 true;  (* pod 0: busy *)
      load 2 0.1 1 true; load 3 0.2 2 true;  (* pod 1: idle *)
    ]
  in
  let pods = ((fun sw -> sw / 2), 2) in
  Alcotest.(check (list int)) "home pod first, then idler pod" [ 0; 1; 2; 3 ]
    (Placement.order ~pods Placement.Hierarchical ~home:(Some 1) loads);
  Alcotest.(check (list int)) "no home: pods ranked by mean load" [ 2; 3; 0; 1 ]
    (Placement.order ~pods Placement.Hierarchical ~home:None loads);
  Alcotest.(check (list int)) "flat fleet degrades to first-fit" [ 0; 1; 2; 3 ]
    (Placement.order Placement.Hierarchical ~home:None loads)

let prop_hierarchical_skips_down =
  QCheck.Test.make ~count:200
    ~name:"hierarchical never ranks a down switch, never drops an up one"
    QCheck.(triple (int_range 2 16) (int_range 2 5) small_int)
    (fun (n, pod_size, seed) ->
      let prng = Stdx.Prng.create ~seed in
      let loads =
        List.init n (fun i ->
            {
              Placement.switch = i;
              utilization = Stdx.Prng.float prng 1.0;
              residents = Stdx.Prng.int prng 20;
              up = Stdx.Prng.int prng 3 > 0;
            })
      in
      let n_pods = ((n - 1) / pod_size) + 1 in
      let pods = ((fun sw -> sw / pod_size), n_pods) in
      let home = if Stdx.Prng.int prng 2 = 0 then None else Some (Stdx.Prng.int prng n) in
      let ranked = Placement.order ~pods Placement.Hierarchical ~home loads in
      let up_ids =
        List.filter_map (fun l -> if l.Placement.up then Some l.Placement.switch else None) loads
      in
      (* The ranking is exactly a permutation of the up switches: no down
         switch placed on, no live switch silently dropped. *)
      List.sort_uniq compare ranked = List.sort compare up_ids
      && List.length ranked = List.length up_ids)

(* ---------- fleet admission ---------- *)

let mixed_kinds ~n ~seed =
  List.concat_map
    (fun (e : Churn.epoch) ->
      List.filter_map
        (function
          | Churn.Arrive { fid; kind; _ } -> Some (fid, kind)
          | Churn.Depart _ -> None)
        e.Churn.events)
    (Churn.mixed_arrivals ~n (Stdx.Prng.create ~seed))

let test_placement_deterministic () =
  let run () =
    let tel = Telemetry.create () in
    let topo = Topology.full_mesh ~switches:4 ~latency_s:1e-5 in
    let fleet =
      Fleet.create ~policy:Placement.Least_loaded ~params:small_params
        ~telemetry:tel topo
    in
    List.iter
      (fun (fid, kind) ->
        ignore (Fleet.admit fleet ~fid (Harness.app_of_kind kind)))
      (mixed_kinds ~n:30 ~seed:42);
    Fleet.residents fleet
  in
  Alcotest.(check (list (pair int int)))
    "same seed, same residency" (run ()) (run ())

let test_spillover () =
  let tel = Telemetry.create () in
  let topo = Topology.full_mesh ~switches:2 ~latency_s:1e-5 in
  let fleet =
    Fleet.create ~policy:Placement.First_fit_switch ~params:small_params
      ~telemetry:tel topo
  in
  (* First-fit packs switch 0 until its allocator refuses, then the
     fleet must spill the next arrivals onto switch 1. *)
  let rec fill fid =
    if fid > 40 then Alcotest.fail "fleet never filled"
    else
      match Fleet.admit fleet ~fid hh with
      | Ok _ -> fill (fid + 1)
      | Error `No_capacity -> ()
  in
  fill 1;
  Alcotest.(check bool) "switch 1 hosts spill-over" true
    (Fleet.residents_of fleet ~sw:1 <> []);
  Alcotest.(check bool) "spillover counted" true
    (Telemetry.counter_value tel "fleet.spillover" > 0);
  Alcotest.(check bool) "fleet-wide rejection counted" true
    (Telemetry.counter_value tel "fleet.rejected" > 0)

let test_global_admission_queue () =
  let module Tenant = Activermt_tenant.Tenant in
  let tel = Telemetry.create () in
  let topo = Topology.full_mesh ~switches:2 ~latency_s:1e-5 in
  let registry = Tenant.create () in
  (* One heavy-hitter (96 blocks) fits tenant 1's 100-block global
     ration; a second can never. *)
  ignore (Tenant.register registry ~quota:(Tenant.quota_blocks 100) 1);
  ignore (Tenant.register registry 2);
  let fleet =
    Fleet.create ~policy:Placement.First_fit_switch ~params:small_params
      ~tenants:registry ~telemetry:tel topo
  in
  Fleet.enqueue_admission fleet ~tenant:1 ~fid:1 hh;
  Fleet.enqueue_admission fleet ~tenant:1 ~fid:2 hh;
  for fid = 3 to 14 do
    Fleet.enqueue_admission fleet ~tenant:2 ~fid hh
  done;
  (* The registry-less path still works alongside tenant submissions. *)
  Fleet.enqueue_admission fleet ~fid:15 counter;
  Alcotest.(check int) "queued" 15 (Fleet.admission_queue_depth fleet);
  let results = Fleet.drain_admissions fleet in
  Alcotest.(check int) "queue drained" 0 (Fleet.admission_queue_depth fleet);
  Alcotest.(check (list int)) "one outcome per fid, ascending"
    (List.init 15 (fun i -> i + 1))
    (List.map fst results);
  (match List.assoc 1 results with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "tenant 1's first service fits its quota");
  (match List.assoc 2 results with
  | Error `Over_quota -> ()
  | _ -> Alcotest.fail "tenant 1's second service is over quota");
  (match List.assoc 15 results with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "untenanted counter fits");
  (* 12 heavy hitters overflow one switch: placement must spill across
     both, and the registry's fleet-global charge tracks what landed. *)
  Alcotest.(check bool) "both switches host residents" true
    (Fleet.residents_of fleet ~sw:0 <> [] && Fleet.residents_of fleet ~sw:1 <> []);
  let ok_t2 =
    List.length
      (List.filter
         (fun (fid, r) -> fid >= 3 && fid <= 14 && Result.is_ok r)
         results)
  in
  Alcotest.(check bool) "tenant 2 placed services" true (ok_t2 > 0);
  Alcotest.(check int) "tenant 2 charged per placement" (96 * ok_t2)
    (Tenant.usage registry 2).Tenant.blocks;
  Alcotest.(check int) "tenant 1 charged once" 96
    (Tenant.usage registry 1).Tenant.blocks;
  Alcotest.(check int) "enqueues counted" 15
    (Telemetry.counter_value tel "fleet.adm.enqueued")

let test_fleet_beats_single_switch () =
  let admitted ~switches =
    let tel = Telemetry.create () in
    let topo = Topology.full_mesh ~switches ~latency_s:1e-5 in
    let fleet =
      Fleet.create ~policy:Placement.Least_loaded ~params:small_params
        ~telemetry:tel topo
    in
    List.fold_left
      (fun n (fid, kind) ->
        match Fleet.admit fleet ~fid (Harness.app_of_kind kind) with
        | Ok _ -> n + 1
        | Error `No_capacity -> n)
      0
      (mixed_kinds ~n:60 ~seed:7)
  in
  let one = admitted ~switches:1 and four = admitted ~switches:4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 switches (%d) admit more than 1 (%d)" four one)
    true (four > one)

(* The serial path (Fleet.admit) and the queued path, drained one
   service at a time, place alike: same residency, same outcome counts,
   across placement policies and a podded topology. *)
let test_admit_matches_drain_of_one () =
  let run ~policy ~topo ~queued =
    let tel = Telemetry.create () in
    let fleet = Fleet.create ~policy ~params:small_params ~telemetry:tel (topo ()) in
    List.iter
      (fun (fid, kind) ->
        let app = Harness.app_of_kind kind in
        if queued then begin
          Fleet.enqueue_admission fleet ~fid app;
          ignore (Fleet.drain_admissions ~max_batch:1 fleet)
        end
        else ignore (Fleet.admit fleet ~fid app))
      (mixed_kinds ~n:80 ~seed:42);
    ( Fleet.residents fleet,
      List.map (Telemetry.counter_value tel)
        [ "fleet.admitted"; "fleet.spillover"; "fleet.rejected" ] )
  in
  let mesh () = Topology.full_mesh ~switches:4 ~latency_s:1e-5 in
  let outcomes =
    List.map
      (fun (name, policy, topo) ->
        let residents, counts = run ~policy ~topo ~queued:false in
        let residents', counts' = run ~policy ~topo ~queued:true in
        Alcotest.(check (list (pair int int))) (name ^ ": residents") residents residents';
        Alcotest.(check (list int)) (name ^ ": admitted, spillover, rejected") counts
          counts';
        counts)
      [
        ("least-loaded mesh", Placement.Least_loaded, mesh);
        ("first-fit mesh", Placement.First_fit_switch, mesh);
        ("hierarchical fat-tree", Placement.Hierarchical, fun () -> Topology.fat_tree ~pods:2 ~k:4 ());
      ]
  in
  Alcotest.(check bool) "every fleet spills and rejects" true
    (List.for_all (fun c -> List.nth c 1 > 0 && List.nth c 2 > 0) outcomes)

(* Hierarchical placement on a fat-tree: services land in the client's
   home pod while it has room, and never on a failed switch — even when
   the stream is pushed through the batched admission queue. *)
let test_hierarchical_fleet_placement () =
  let tel = Telemetry.create () in
  let topo = Topology.fat_tree ~pods:3 ~k:4 () in
  let fleet =
    Fleet.create ~policy:Placement.Hierarchical ~params:small_params
      ~telemetry:tel topo
  in
  (* A client homed on switch 5 (pod 1) pulls its service into pod 1.
     fid 8's no-home fallback pod would be 8 mod 4 = 0, so a pod-1
     placement can only come from the client's home. *)
  Fleet.attach_client fleet ~client:900 ~home:5 (fun _ -> ());
  (match Fleet.admit fleet ~client:900 ~fid:8 counter with
  | Ok sw ->
    Alcotest.(check int) "home-pod placement" 1 (Topology.pod_of topo ~sw)
  | Error `No_capacity -> Alcotest.fail "first admission refused");
  ignore (Fleet.fail_switch fleet ~sw:0);
  for fid = 10 to 48 do
    Fleet.enqueue_admission fleet ~fid (if fid mod 3 = 0 then hh else counter)
  done;
  ignore (Fleet.drain_admissions fleet);
  List.iter
    (fun (fid, sw) ->
      Alcotest.(check bool)
        (Printf.sprintf "fid %d avoids the failed switch" fid)
        true (sw <> 0);
      Alcotest.(check bool)
        (Printf.sprintf "fid %d sits on a live switch" fid)
        true
        (Fleet.is_up fleet ~sw))
    (Fleet.residents fleet)

let test_hierarchical_spills_across_pods () =
  let tel = Telemetry.create () in
  let topo = Topology.fat_tree ~pods:2 ~k:4 () in
  let fleet =
    Fleet.create ~policy:Placement.Hierarchical ~params:small_params
      ~telemetry:tel topo
  in
  (* Heavy hitters overflow pod 0's four switches; the spill must reach
     pod 1 rather than reject, and nothing may double-place. *)
  let admitted = ref [] in
  for fid = 1 to 24 do
    match Fleet.admit fleet ~fid hh with
    | Ok sw -> admitted := (fid, sw) :: !admitted
    | Error `No_capacity -> ()
  done;
  let pods_used =
    List.sort_uniq compare
      (List.map (fun (_, sw) -> Topology.pod_of topo ~sw) !admitted)
  in
  Alcotest.(check bool) "spill crossed into a second pod" true
    (List.length pods_used > 1);
  Alcotest.(check int) "every admitted fid resident exactly once"
    (List.length !admitted)
    (List.length (Fleet.residents fleet))

(* ---------- migration ---------- *)

let patterned state =
  List.mapi
    (fun k (stage, words) ->
      (stage, Array.mapi (fun i _ -> 10_000 + (1000 * k) + i) words))
    state

let words_of state = List.map snd state

let test_migration_preserves_state () =
  let tel = Telemetry.create () in
  let topo = Topology.full_mesh ~switches:2 ~latency_s:1e-5 in
  let fleet =
    Fleet.create ~policy:Placement.First_fit_switch ~telemetry:tel topo
  in
  let fid = 7 in
  (match Fleet.admit fleet ~fid counter with
  | Ok 0 -> ()
  | Ok sw -> Alcotest.failf "expected switch 0, got %d" sw
  | Error `No_capacity -> Alcotest.fail "admission refused");
  let pattern = patterned (Fleet.read_state fleet ~fid) in
  Fleet.write_state fleet ~fid pattern;
  Alcotest.(check (list (array int))) "write then read round-trips"
    (words_of pattern)
    (words_of (Fleet.read_state fleet ~fid));
  (match Fleet.migrate fleet ~fid ~dst:1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "migration failed");
  Alcotest.(check (option int)) "resident on destination" (Some 1)
    (Fleet.switch_of fleet ~fid);
  Alcotest.(check (list (array int))) "state equal across switches"
    (words_of pattern)
    (words_of (Fleet.read_state fleet ~fid));
  Alcotest.(check bool) "drain used data-plane memsync" true
    (Telemetry.counter_value tel "fleet.memsync.words_read" > 0);
  Alcotest.(check bool) "repopulate used data-plane memsync" true
    (Telemetry.counter_value tel "fleet.memsync.words_written" > 0)

let test_migrate_unknown_and_down () =
  let tel = Telemetry.create () in
  let topo = Topology.full_mesh ~switches:2 ~latency_s:1e-5 in
  let fleet = Fleet.create ~telemetry:tel topo in
  (match Fleet.migrate fleet ~fid:99 ~dst:1 with
  | Error `Unknown_fid -> ()
  | _ -> Alcotest.fail "expected Unknown_fid");
  (match Fleet.admit fleet ~fid:1 counter with
  | Ok _ -> ()
  | Error `No_capacity -> Alcotest.fail "admission refused");
  ignore (Fleet.fail_switch fleet ~sw:1);
  match Fleet.migrate fleet ~fid:1 ~dst:1 with
  | Error `Switch_down -> ()
  | _ -> Alcotest.fail "expected Switch_down"

(* A client homed on switch 1 reads a service resident on switch 0
   through the data plane: the request bridges 1 -> 0, executes where
   the FID's tables live, and the RTS reply bridges back. *)
let test_cross_switch_data_plane () =
  let module Packet = Activermt.Packet in
  let module Driver = Activermt_client.Memsync_driver in
  let tel = Telemetry.create () in
  let topo = Topology.line ~switches:2 ~latency_s:1e-5 in
  let fleet =
    Fleet.create ~policy:Placement.First_fit_switch ~telemetry:tel topo
  in
  let fid = 5 and client = 10 in
  (match Fleet.admit fleet ~client ~fid counter with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "expected admission on switch 0");
  let pattern = patterned (Fleet.read_state fleet ~fid) in
  Fleet.write_state fleet ~fid pattern;
  let stage, words =
    match pattern with s :: _ -> s | [] -> Alcotest.fail "no regions"
  in
  let count = 4 in
  let driver =
    Driver.create ~fid ~stages:[ stage ] ~count ~timeout_s:1.0 Driver.Read
  in
  Fleet.attach_client fleet ~client ~home:1 (fun msg ->
      match msg.Netsim.Fabric.payload with
      | Netsim.Fabric.Active
          { Packet.seq; payload = Packet.Exec { args; _ }; _ } ->
        ignore (Driver.on_reply driver ~seq ~args)
      | _ -> ());
  let send ~seq:_ pkt =
    Fleet.inject fleet ~client
      { Netsim.Fabric.src = client; dst = 0; payload = Netsim.Fabric.Active pkt; trace = None }
  in
  Driver.start driver ~now:0.0 ~send;
  Netsim.Engine.run (Fleet.engine fleet);
  Alcotest.(check bool) "every read answered" true (Driver.is_done driver);
  Alcotest.(check (array int)) "remote reads see the written state"
    (Array.sub words 0 count)
    (Array.sub (Driver.values driver).(0) 0 count);
  Alcotest.(check bool) "traffic crossed the inter-switch link" true
    (Telemetry.counter_value tel "fleet.bridged" > 0)

(* ---------- switch failure ---------- *)

let test_failure_replaces_all () =
  let tel = Telemetry.create () in
  let topo = Topology.full_mesh ~switches:3 ~latency_s:1e-5 in
  let fleet =
    Fleet.create ~policy:Placement.Least_loaded ~params:small_params
      ~telemetry:tel topo
  in
  let fids = [ 1; 2; 3; 4 ] in
  List.iter
    (fun fid ->
      match Fleet.admit fleet ~fid hh with
      | Ok _ -> ()
      | Error `No_capacity -> Alcotest.failf "fid %d refused" fid)
    fids;
  let before = Fleet.residents fleet in
  let victim =
    match Fleet.residents fleet with
    | (_, sw) :: _ -> sw
    | [] -> Alcotest.fail "nothing resident"
  in
  let evacuees = Fleet.residents_of fleet ~sw:victim in
  let marked = List.hd evacuees in
  let pattern = patterned (Fleet.read_state fleet ~fid:marked) in
  Fleet.write_state fleet ~fid:marked pattern;
  let { Fleet.relocated; lost } = Fleet.fail_switch fleet ~sw:victim in
  Alcotest.(check (list int)) "zero lost FIDs" [] lost;
  Alcotest.(check (list int)) "every evacuee relocated" evacuees
    (List.sort compare (List.map fst relocated));
  Alcotest.(check (list int)) "no FID lost or double-placed fleet-wide"
    (List.map fst before)
    (List.map fst (Fleet.residents fleet));
  List.iter
    (fun (fid, dst) ->
      Alcotest.(check bool)
        (Printf.sprintf "fid %d left the failed switch" fid)
        true (dst <> victim);
      Alcotest.(check (option int))
        (Printf.sprintf "fid %d residency updated" fid)
        (Some dst) (Fleet.switch_of fleet ~fid))
    relocated;
  Alcotest.(check (list (array int))) "state survived the failure"
    (words_of pattern)
    (words_of (Fleet.read_state fleet ~fid:marked));
  Alcotest.(check bool) "failed switch reports down" false
    (Fleet.is_up fleet ~sw:victim);
  let again = Fleet.fail_switch fleet ~sw:victim in
  Alcotest.(check (list int)) "re-failing relocates nothing" []
    (List.map fst again.Fleet.relocated)

let test_scheduled_failure_fires () =
  let tel = Telemetry.create () in
  let topo = Topology.full_mesh ~switches:2 ~latency_s:1e-5 in
  let fleet =
    Fleet.create ~policy:Placement.First_fit_switch ~params:small_params
      ~telemetry:tel topo
  in
  (match Fleet.admit fleet ~fid:1 hh with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "expected admission on switch 0");
  Fleet.schedule_failure fleet ~at:0.5 ~sw:0;
  Netsim.Engine.run (Fleet.engine fleet);
  Alcotest.(check bool) "failure event fired" false (Fleet.is_up fleet ~sw:0);
  Alcotest.(check (option int)) "service re-placed by the event" (Some 1)
    (Fleet.switch_of fleet ~fid:1)

let () =
  Alcotest.run "fleet"
    [
      ( "topology",
        [
          Alcotest.test_case "routes" `Quick test_topology_routes;
          Alcotest.test_case "validation" `Quick test_topology_validation;
        ] );
      ( "placement",
        [
          QCheck_alcotest.to_alcotest prop_order_permutation_invariant;
          QCheck_alcotest.to_alcotest prop_hierarchical_skips_down;
          Alcotest.test_case "policy orderings" `Quick test_order_policies;
          Alcotest.test_case "hierarchical policy" `Quick
            test_hierarchical_policy;
        ] );
      ( "admission",
        [
          Alcotest.test_case "deterministic given seed" `Quick
            test_placement_deterministic;
          Alcotest.test_case "spill-over" `Quick test_spillover;
          Alcotest.test_case "global admission queue" `Quick
            test_global_admission_queue;
          Alcotest.test_case "4 switches beat 1" `Quick
            test_fleet_beats_single_switch;
          Alcotest.test_case "hierarchical fat-tree placement" `Quick
            test_hierarchical_fleet_placement;
          Alcotest.test_case "hierarchical pod spill" `Quick
            test_hierarchical_spills_across_pods;
          Alcotest.test_case "admit = drain of one" `Quick
            test_admit_matches_drain_of_one;
        ] );
      ( "migration",
        [
          Alcotest.test_case "state equality" `Quick
            test_migration_preserves_state;
          Alcotest.test_case "unknown fid / down switch" `Quick
            test_migrate_unknown_and_down;
        ] );
      ( "data plane",
        [
          Alcotest.test_case "cross-switch read" `Quick
            test_cross_switch_data_plane;
        ] );
      ( "failure",
        [
          Alcotest.test_case "re-places all residents" `Quick
            test_failure_replaces_all;
          Alcotest.test_case "scheduled event" `Quick
            test_scheduled_failure_fires;
        ] );
    ]
