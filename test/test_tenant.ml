(* Tests for the tenant layer: registry accounting, DRR scheduling, the
   virtual switch's quota/entitlement/preemption mechanics, and the
   noisy-neighbor scenario's fairness gates. *)

module Tenant = Activermt_tenant.Tenant
module Wrr = Activermt_tenant.Wrr
module Vswitch = Activermt_tenant.Vswitch
module Controller = Activermt_control.Controller
module Allocator = Activermt_alloc.Allocator
module Pool = Activermt_alloc.Pool
module App = Activermt_apps.App
module Telemetry = Activermt_telemetry.Telemetry
module Negotiate = Activermt_client.Negotiate
module Tenants = Experiments.Tenants

(* 16-word blocks: evictions drain a few dozen memsync words. *)
let params = Tenants.scenario_params
let counter = Activermt_apps.Counter.service (* inelastic, 4 blocks *)
let hh = Activermt_apps.Heavy_hitter.service (* inelastic, 16x6 blocks *)
let lb = Activermt_apps.Cheetah_lb.service (* inelastic, 1x4 blocks *)

let mk_controller () =
  Controller.create ~telemetry:(Telemetry.create ()) (Rmt.Device.create params)

let mk_vswitch ?config ?telemetry tenants =
  let telemetry =
    match telemetry with Some t -> t | None -> Telemetry.create ()
  in
  let ctrl = mk_controller () in
  let registry = Tenant.create ~telemetry () in
  List.iter
    (fun (id, weight, quota) ->
      ignore (Tenant.register registry ~weight ~quota id))
    tenants;
  (Vswitch.create ?config ~telemetry ~registry ctrl, registry, ctrl)

(* ---------- registry ---------- *)

let test_registry_register () =
  let r = Tenant.create () in
  let i = Tenant.register r ~name:"alpha" ~weight:3 1 in
  Alcotest.(check string) "name" "alpha" i.Tenant.name;
  Alcotest.(check int) "weight" 3 i.Tenant.weight;
  Alcotest.(check bool) "registered" true (Tenant.info r 1 = Some i);
  Alcotest.(check int) "total weight" 3 (Tenant.total_weight r);
  Alcotest.(check bool) "duplicate id raises" true
    (try
       ignore (Tenant.register r 1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad weight raises" true
    (try
       ignore (Tenant.register r ~weight:0 2);
       false
     with Invalid_argument _ -> true)

let test_registry_bind_charge () =
  let r = Tenant.create () in
  ignore (Tenant.register r 1);
  ignore (Tenant.register r 2);
  Tenant.bind r ~fid:10 ~tenant:1;
  Tenant.bind r ~fid:10 ~tenant:1;
  (* same-tenant rebind is a no-op *)
  Alcotest.(check bool) "cross rebind raises" true
    (try
       Tenant.bind r ~fid:10 ~tenant:2;
       false
     with Invalid_argument _ -> true);
  Tenant.charge r ~fid:10 ~blocks:6 ~stages:[ 0; 3 ];
  Tenant.bind r ~fid:11 ~tenant:1;
  Tenant.charge r ~fid:11 ~blocks:4 ~stages:[ 3 ];
  let u = Tenant.usage r 1 in
  Alcotest.(check int) "blocks" 10 u.Tenant.blocks;
  Alcotest.(check int) "fids" 2 u.Tenant.fids;
  Alcotest.(check int) "stages distinct" 2 u.Tenant.stages;
  Alcotest.(check (list int)) "charged oldest first" [ 10; 11 ]
    (Tenant.charged_fids r ~tenant:1);
  (* Re-charging (elastic resize, re-admission) keeps the original
     admission stamp, so recency-based victim scans stay stable. *)
  Tenant.charge r ~fid:10 ~blocks:8 ~stages:[ 0; 3 ];
  Alcotest.(check (list int)) "recharge keeps order" [ 10; 11 ]
    (Tenant.charged_fids r ~tenant:1);
  Alcotest.(check int) "recharge replaces" 12 (Tenant.usage r 1).Tenant.blocks;
  Tenant.discharge r ~fid:10;
  Alcotest.(check int) "discharge" 4 (Tenant.usage r 1).Tenant.blocks;
  Alcotest.(check (option int)) "binding survives discharge" (Some 1)
    (Tenant.tenant_of r ~fid:10);
  Tenant.unbind r ~fid:11;
  Alcotest.(check int) "unbind discharges" 0 (Tenant.usage r 1).Tenant.blocks

let test_registry_quota_math () =
  let r = Tenant.create () in
  ignore (Tenant.register r ~weight:1 ~quota:(Tenant.quota_blocks 10) 1);
  ignore (Tenant.register r ~weight:3 2);
  Tenant.bind r ~fid:1 ~tenant:1;
  Tenant.charge r ~fid:1 ~blocks:8 ~stages:[ 0 ];
  Alcotest.(check bool) "within quota" false
    (Tenant.would_exceed r ~tenant:1 ~blocks:2 ~stages:1);
  Alcotest.(check bool) "over quota" true
    (Tenant.would_exceed r ~tenant:1 ~blocks:3 ~stages:1);
  Alcotest.(check int) "no surplus" 0 (Tenant.over_quota_blocks r ~tenant:1);
  Tenant.set_quota r ~tenant:1 (Tenant.quota_blocks 5);
  Alcotest.(check int) "shrink surplus" 3 (Tenant.over_quota_blocks r ~tenant:1);
  Alcotest.(check (float 1e-9)) "fair weight 1/4" 25.0
    (Tenant.fair_blocks r ~tenant:1 ~capacity:100);
  Alcotest.(check (float 1e-9)) "fair weight 3/4" 75.0
    (Tenant.fair_blocks r ~tenant:2 ~capacity:100)

(* ---------- WRR scheduler ---------- *)

let take_all q ~weight ~max =
  Wrr.take q ~weight ~classify:(fun ~tenant:_ _ -> `Take) ~max

let test_wrr_weighted_ratio () =
  let q = Wrr.create () in
  for i = 1 to 10 do
    Wrr.push q ~tenant:1 (100 + i);
    Wrr.push q ~tenant:2 (200 + i)
  done;
  let b = take_all q ~weight:(fun id -> if id = 2 then 3 else 1) ~max:8 in
  let count t = List.length (List.filter (fun (id, _) -> id = t) b.Wrr.taken) in
  Alcotest.(check int) "light tenant" 2 (count 1);
  Alcotest.(check int) "heavy tenant" 6 (count 2);
  Alcotest.(check int) "queue keeps rest" 12 (Wrr.depth q)

let test_wrr_defer_blocks_tenant () =
  let q = Wrr.create () in
  Wrr.push q ~tenant:1 1;
  Wrr.push q ~tenant:1 2;
  Wrr.push q ~tenant:2 3;
  let b =
    Wrr.take q
      ~weight:(fun _ -> 4)
      ~classify:(fun ~tenant _ -> if tenant = 1 then `Defer else `Take)
      ~max:4
  in
  Alcotest.(check (list (pair int int))) "only tenant 2" [ (2, 3) ] b.Wrr.taken;
  Alcotest.(check int) "deferred stay queued" 2 (Wrr.tenant_depth q ~tenant:1);
  (* The deferred item kept its head position. *)
  let b2 = take_all q ~weight:(fun _ -> 4) ~max:4 in
  Alcotest.(check (list (pair int int))) "head order kept" [ (1, 1); (1, 2) ]
    b2.Wrr.taken

let test_wrr_drop_and_rotation () =
  let q = Wrr.create () in
  Wrr.push q ~tenant:1 1;
  Wrr.push q ~tenant:2 2;
  Wrr.push q ~tenant:3 3;
  (* Drops consume no credit and are reported. *)
  let b =
    Wrr.take q
      ~weight:(fun _ -> 1)
      ~classify:(fun ~tenant:_ x -> if x = 2 then `Drop else `Take)
      ~max:10
  in
  Alcotest.(check (list (pair int int))) "dropped" [ (2, 2) ] b.Wrr.dropped;
  Alcotest.(check (list (pair int int))) "taken" [ (1, 1); (3, 3) ] b.Wrr.taken;
  (* Rotation: with max=1 per call, successive calls serve successive
     tenants instead of pinning the smallest id first every time. *)
  let q = Wrr.create () in
  for i = 1 to 3 do
    Wrr.push q ~tenant:1 (10 + i);
    Wrr.push q ~tenant:2 (20 + i)
  done;
  let first_of b = List.map fst b.Wrr.taken in
  let l1 = first_of (take_all q ~weight:(fun _ -> 1) ~max:1) in
  let l2 = first_of (take_all q ~weight:(fun _ -> 1) ~max:1) in
  Alcotest.(check (list int)) "call 1 serves tenant 1" [ 1 ] l1;
  Alcotest.(check (list int)) "call 2 serves tenant 2" [ 2 ] l2

(* ---------- vswitch quota enforcement ---------- *)

let test_vswitch_quota_never_fits () =
  (* Demand 4 against a 3-block ceiling can never fit: denied on the
     first epoch, not deferred forever. *)
  let vs, _, _ = mk_vswitch [ (1, 1, Tenant.quota_blocks 3) ] in
  Vswitch.submit vs ~tenant:1 ~fid:1 counter;
  let epochs = Vswitch.drain vs in
  Alcotest.(check int) "one epoch" 1 (List.length epochs);
  Alcotest.(check bool) "denied quota" true
    (Vswitch.decision_of vs ~fid:1 = Some (Vswitch.Denied `Quota))

let test_vswitch_quota_defer_then_grant () =
  let vs, _, _ = mk_vswitch [ (1, 1, Tenant.quota_blocks 4) ] in
  Vswitch.submit vs ~tenant:1 ~fid:1 counter;
  Vswitch.submit vs ~tenant:1 ~fid:2 counter;
  ignore (Vswitch.drain vs);
  Alcotest.(check bool) "first granted" true
    (Vswitch.decision_of vs ~fid:1 = Some Vswitch.Granted);
  Alcotest.(check bool) "second deferred, still queued" true
    (Vswitch.decision_of vs ~fid:2 = Some Vswitch.Queued);
  Alcotest.(check int) "pending" 1 (Vswitch.pending vs);
  (* Departure makes room; the deferred request lands on the next
     drain. *)
  Alcotest.(check bool) "depart" true (Vswitch.depart vs ~fid:1);
  ignore (Vswitch.drain vs);
  Alcotest.(check bool) "second granted after departure" true
    (Vswitch.decision_of vs ~fid:2 = Some Vswitch.Granted)

let test_vswitch_quota_defer_limit_denies () =
  let config =
    { Vswitch.default_config with Vswitch.defer_limit = 2; max_batch = 4 }
  in
  let vs, _, _ = mk_vswitch ~config [ (1, 1, Tenant.quota_blocks 4) ] in
  Vswitch.submit vs ~tenant:1 ~fid:1 counter;
  Vswitch.submit vs ~tenant:1 ~fid:2 counter;
  ignore (Vswitch.drain vs);
  Alcotest.(check bool) "still queued after first drain" true
    (Vswitch.decision_of vs ~fid:2 = Some Vswitch.Queued);
  ignore (Vswitch.drain vs);
  ignore (Vswitch.drain vs);
  Alcotest.(check bool) "denied once defers run out" true
    (Vswitch.decision_of vs ~fid:2 = Some (Vswitch.Denied `Quota))

(* ---------- preemption, relocation and state ---------- *)

let write_pattern ctrl ~fid =
  let regions =
    match Allocator.regions_of (Controller.allocator ctrl) ~fid with
    | Some r -> r
    | None -> Alcotest.fail "no regions"
  in
  let wpb = Rmt.Params.words_per_block params in
  List.iter
    (fun { Allocator.stage; range } ->
      for i = 0 to (range.Pool.n_blocks * wpb) - 1 do
        ignore
          (Controller.write_region_word ctrl ~fid ~stage ~index:i
             ~value:(1000 + i))
      done)
    regions

let read_back ctrl ~fid =
  match Allocator.regions_of (Controller.allocator ctrl) ~fid with
  | Some ({ Allocator.stage; _ } :: _) -> Controller.read_region ctrl ~fid ~stage
  | _ -> None

let test_reclaim_preserves_state () =
  let telemetry = Telemetry.create () in
  let vs, registry, ctrl =
    mk_vswitch ~telemetry [ (1, 1, Tenant.unlimited) ]
  in
  Vswitch.submit vs ~tenant:1 ~fid:7 counter;
  ignore (Vswitch.drain vs);
  Alcotest.(check bool) "granted" true
    (Vswitch.decision_of vs ~fid:7 = Some Vswitch.Granted);
  write_pattern ctrl ~fid:7;
  (* Quota shrink: reclaim must evict, drain the registers through
     memsync, and park the service. *)
  Tenant.set_quota registry ~tenant:1 (Tenant.quota_blocks 0);
  let evicted = Vswitch.reclaim vs in
  Alcotest.(check (list (pair int int))) "evicted" [ (1, 7) ] evicted;
  Alcotest.(check (list int)) "parked" [ 7 ] (Vswitch.parked vs);
  Alcotest.(check bool) "decision evicted" true
    (Vswitch.decision_of vs ~fid:7 = Some Vswitch.Evicted);
  Alcotest.(check int) "not resident" 0
    (List.length (Allocator.resident_blocks (Controller.allocator ctrl)));
  Alcotest.(check int) "charge released" 0
    (Tenant.usage registry 1).Tenant.blocks;
  Alcotest.(check bool) "memsync moved words" true
    (Telemetry.counter_value telemetry "tenant.memsync.words_moved" > 0);
  (* Quota restored: the parked victim re-admits with its state
     repopulated (a relocation). *)
  Tenant.set_quota registry ~tenant:1 Tenant.unlimited;
  ignore (Vswitch.drain vs);
  Alcotest.(check bool) "re-granted" true
    (Vswitch.decision_of vs ~fid:7 = Some Vswitch.Granted);
  Alcotest.(check (list int)) "unparked" [] (Vswitch.parked vs);
  Alcotest.(check int) "relocation counted" 1
    (Telemetry.counter_value telemetry "tenant.relocations");
  match read_back ctrl ~fid:7 with
  | None -> Alcotest.fail "no region after relocation"
  | Some words ->
    Array.iteri
      (fun i v ->
        Alcotest.(check int) (Printf.sprintf "word %d preserved" i) (1000 + i) v)
      words

let test_noisy_neighbor_scenario () =
  (* The ISSUE acceptance gate at a test-sized scale: one hostile tenant
     flooding at several times its fair share cannot hold well-behaved
     tenants below 90% of their weighted entitlement. *)
  let r = Tenants.run { (Tenants.preset ~tenants:4 ()) with Tenants.seed = 3 } in
  Alcotest.(check bool) "preemption fired" true (r.Tenants.evictions > 0);
  Alcotest.(check bool) "jain >= 0.9" true (r.Tenants.jain_wb >= 0.9);
  Alcotest.(check bool) "min retained >= 0.9" true
    (r.Tenants.min_retained_wb >= 0.9);
  Alcotest.(check bool) "fid audit" true r.Tenants.consistent

(* ---------- single-tenant differential smoke ---------- *)

let test_single_tenant_matches_plain_drain () =
  (* With one unlimited tenant every vswitch mechanism must degenerate
     to the identity: final decisions and the resulting allocator layout
     equal the controller's plain batched drain over the same FIFO.
     Inelastic-only mix, so capacity rejections are stable under the
     vswitch's retries. *)
  let arrivals =
    List.init 80 (fun i ->
        (i + 1, match i mod 3 with 0 -> hh | 1 -> counter | _ -> lb))
  in
  (* Reference: plain controller drain. *)
  let ref_ctrl = mk_controller () in
  List.iter
    (fun (fid, app) ->
      Controller.enqueue_request ref_ctrl (Negotiate.request_packet ~fid ~seq:0 app))
    arrivals;
  let ref_results =
    List.concat_map
      (fun (e : Controller.epoch_result) -> e.Controller.results)
      (Controller.drain ~max_batch:64 ref_ctrl)
  in
  let ref_decisions =
    List.map2
      (fun (fid, _) r -> (fid, match r with Ok _ -> true | Error _ -> false))
      arrivals ref_results
  in
  (* Vswitch over one unlimited tenant. *)
  let vs, _, ctrl = mk_vswitch [ (1, 1, Tenant.unlimited) ] in
  List.iter (fun (fid, app) -> Vswitch.submit vs ~tenant:1 ~fid app) arrivals;
  ignore (Vswitch.drain vs);
  List.iter
    (fun (fid, admitted) ->
      let got =
        match Vswitch.decision_of vs ~fid with
        | Some Vswitch.Granted -> true
        | Some (Vswitch.Denied `Capacity) -> false
        | d ->
          Alcotest.failf "fid %d: unexpected decision %s" fid
            (match d with
            | Some Vswitch.Queued -> "queued"
            | Some Vswitch.Evicted -> "evicted"
            | Some (Vswitch.Denied _) -> "denied-other"
            | Some Vswitch.Departed -> "departed"
            | Some Vswitch.Granted -> "granted"
            | None -> "none")
      in
      Alcotest.(check bool) (Printf.sprintf "fid %d decision" fid) admitted got)
    ref_decisions;
  Alcotest.(check (list (pair int int))) "identical layouts"
    (Allocator.resident_blocks (Controller.allocator ref_ctrl))
    (Allocator.resident_blocks (Controller.allocator ctrl))

(* ---------- qcheck: accounting and FID conservation ---------- *)

(* Random interleavings of submit/drain/depart/quota-shrink/reclaim over
   three tenants: charges never go negative, and the allocator's
   residents, the Granted decisions and the parked set always tile the
   submitted FIDs (no FID lost, none double-allocated). *)
let audit_conservation vs registry ctrl ~submitted =
  let resident = Hashtbl.create 64 in
  List.iter
    (fun (fid, _) -> Hashtbl.replace resident fid ())
    (Allocator.resident_blocks (Controller.allocator ctrl));
  let ok = ref true in
  let granted = ref 0 in
  List.iter
    (fun fid ->
      match Vswitch.decision_of vs ~fid with
      | None -> ok := false
      | Some Vswitch.Granted ->
        incr granted;
        if not (Hashtbl.mem resident fid) then ok := false
      | Some _ -> if Hashtbl.mem resident fid then ok := false)
    submitted;
  if !granted <> Hashtbl.length resident then ok := false;
  List.iter
    (fun fid -> if Hashtbl.mem resident fid then ok := false)
    (Vswitch.parked vs);
  List.iter
    (fun (info : Tenant.info) ->
      let u = Tenant.usage registry info.Tenant.id in
      if u.Tenant.blocks < 0 || u.Tenant.fids < 0 || u.Tenant.stages < 0 then
        ok := false)
    (Tenant.tenants registry);
  !ok

let prop_random_interleavings_conserve_fids =
  QCheck.Test.make ~name:"tenant accounting under random admit/evict/depart"
    ~count:60
    QCheck.(list_of_size Gen.(int_range 5 40) (pair (int_range 0 4) (int_range 0 1000)))
    (fun ops ->
      let config =
        { Vswitch.default_config with Vswitch.max_batch = 8; defer_limit = 4 }
      in
      let vs, registry, ctrl =
        mk_vswitch ~config
          [
            (1, 1, Tenant.quota_blocks 24);
            (2, 2, Tenant.quota_blocks 40);
            (3, 1, Tenant.unlimited);
          ]
      in
      let submitted = ref [] in
      let next_fid = ref 0 in
      List.iter
        (fun (tag, k) ->
          (match tag with
          | 0 | 1 ->
            incr next_fid;
            let tenant = (k mod 3) + 1 in
            Vswitch.submit vs ~tenant ~fid:!next_fid counter;
            submitted := !next_fid :: !submitted
          | 2 -> ignore (Vswitch.drain vs)
          | 3 ->
            (match !submitted with
            | [] -> ()
            | fids -> ignore (Vswitch.depart vs ~fid:(List.nth fids (k mod List.length fids))))
          | _ ->
            let tenant = (k mod 3) + 1 in
            Tenant.set_quota registry ~tenant (Tenant.quota_blocks (4 * (k mod 8)));
            ignore (Vswitch.reclaim vs));
          if not (audit_conservation vs registry ctrl ~submitted:!submitted) then
            QCheck.Test.fail_report "conservation audit failed mid-sequence")
        ops;
      ignore (Vswitch.drain vs);
      audit_conservation vs registry ctrl ~submitted:!submitted)

(* ---------- state move ---------- *)

module State_move = Activermt_tenant.State_move

(* Random residents with random register contents; one of them is
   extracted, departs, is re-admitted and injected.  Whatever path each
   region takes — capsules within the budget, the control plane over it
   or with the data plane off, per-index fallback once capsules start
   getting lost — every word comes back, and the tally sees exactly the
   regions that went through the data plane. *)
let prop_state_move_restores =
  let apps = [| counter; hh; lb |] in
  QCheck.Test.make ~name:"state move restores every word" ~count:100
    QCheck.(
      make
        ~print:Print.(tup5 (list int) int bool bool (option int))
        Gen.(
          tup5
            (list_size (int_range 1 6) (int_range 0 2))
            nat bool bool
            (opt (int_range 0 400))))
    (fun (kinds, seed, above, data_plane, lose_after) ->
      let ctrl = mk_controller () in
      let jit = Activermt.Jit.create ~telemetry:(Telemetry.create ()) (Controller.tables ctrl) in
      let rng = Stdx.Prng.create ~seed in
      let request fid k = Negotiate.request_packet ~fid ~seq:0 apps.(k) in
      let residents =
        List.mapi (fun i k -> (i + 1, k)) kinds
        |> List.filter (fun (fid, k) ->
               Result.is_ok (Controller.handle_request ctrl (request fid k)))
      in
      let regions fid =
        match Allocator.regions_of (Controller.allocator ctrl) ~fid with
        | Some rs -> rs
        | None -> []
      in
      let words_of (r : Allocator.stage_range) =
        r.Allocator.range.Pool.n_blocks * Rmt.Params.words_per_block params
      in
      let written =
        List.map
          (fun (fid, _) ->
            ( fid,
              List.map
                (fun r ->
                  Array.init (words_of r) (fun index ->
                      let value = Stdx.Prng.int rng (1 lsl 32) in
                      ignore
                        (Controller.write_region_word ctrl ~fid ~stage:r.Allocator.stage
                           ~index ~value);
                      value))
                (regions fid) ))
          residents
      in
      match residents with
      | [] -> true
      | (fid, kind) :: _ ->
        let sizes = List.map words_of (regions fid) in
        let word_budget =
          if above then List.fold_left max 0 sizes else List.fold_left min max_int sizes - 1
        in
        let faults =
          Option.map
            (fun n ->
              let sent = ref 0 in
              fun ~now:_ ->
                incr sent;
                if !sent > n then 0 else 1)
            lose_after
        in
        let tallied = ref 0 in
        let tally ~data_plane ~fallback = tallied := !tallied + data_plane + fallback in
        let captured =
          State_move.extract ctrl jit ~faults ~word_budget ~tally ~data_plane ~fid
        in
        let expected_tally =
          if data_plane then
            List.fold_left (fun acc n -> if n <= word_budget then acc + n else acc) 0 sizes
          else 0
        in
        ignore (Controller.handle_departure ctrl ~fid);
        (match Controller.handle_request ctrl (request fid kind) with
        | Ok _ -> ()
        | Error _ -> QCheck.Test.fail_report "re-admission refused");
        State_move.inject ctrl jit ~faults ~word_budget ~tally:(fun ~data_plane:_ ~fallback:_ -> ())
          ~fid captured;
        let restored =
          List.map
            (fun r -> Option.get (Controller.read_region ctrl ~fid ~stage:r.Allocator.stage))
            (regions fid)
        in
        (* Positional: the k-th region written before against the k-th
           region now, over the smaller of the two (a re-admission may
           pick a mutant that merges two accesses into one stage). *)
        let rec agree before restored =
          match (before, restored) with
          | want :: before, got :: restored ->
            let n = min (Array.length want) (Array.length got) in
            Array.sub want 0 n = Array.sub got 0 n && agree before restored
          | _ -> true
        in
        !tallied = expected_tally && agree (List.assoc fid written) restored)

let () =
  Alcotest.run "tenant"
    [
      ( "registry",
        [
          Alcotest.test_case "register" `Quick test_registry_register;
          Alcotest.test_case "bind and charge" `Quick test_registry_bind_charge;
          Alcotest.test_case "quota math" `Quick test_registry_quota_math;
        ] );
      ( "wrr",
        [
          Alcotest.test_case "weighted ratio" `Quick test_wrr_weighted_ratio;
          Alcotest.test_case "defer blocks tenant" `Quick test_wrr_defer_blocks_tenant;
          Alcotest.test_case "drop and rotation" `Quick test_wrr_drop_and_rotation;
        ] );
      ( "vswitch",
        [
          Alcotest.test_case "quota never fits" `Quick test_vswitch_quota_never_fits;
          Alcotest.test_case "quota defer then grant" `Quick
            test_vswitch_quota_defer_then_grant;
          Alcotest.test_case "defer limit denies" `Quick
            test_vswitch_quota_defer_limit_denies;
          Alcotest.test_case "reclaim preserves state" `Quick
            test_reclaim_preserves_state;
          Alcotest.test_case "noisy neighbor scenario" `Quick
            test_noisy_neighbor_scenario;
          Alcotest.test_case "single tenant differential" `Quick
            test_single_tenant_matches_plain_drain;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest prop_random_interleavings_conserve_fids;
          QCheck_alcotest.to_alcotest prop_state_move_restores;
        ] );
    ]
