(* Tests for the switch controller: admission, table installation,
   register-state relocation, auto/interactive reallocation protocols,
   the timeout path and the cost model. *)

module Controller = Activermt_control.Controller
module Cost_model = Activermt_control.Cost_model
module Negotiate = Activermt_client.Negotiate
module Pkt = Activermt.Packet
module Allocator = Activermt_alloc.Allocator
module Telemetry = Activermt_telemetry.Telemetry

let params = Rmt.Params.default

let fresh ?mode ?extraction_timeout_s () =
  let device = Rmt.Device.create params in
  (device, Controller.create ?mode ?extraction_timeout_s device)

let request fid app = Negotiate.request_packet ~fid ~seq:0 app

let admit_exn ctl fid app =
  match Controller.handle_request ctl (request fid app) with
  | Ok p -> p
  | Error (`Rejected _) -> Alcotest.fail "rejected"
  | Error (`Bad_packet e) -> Alcotest.fail e

let cache = Activermt_apps.Cache.service
let hh = Activermt_apps.Heavy_hitter.service

let test_admission_installs_tables () =
  let _, ctl = fresh () in
  let p = admit_exn ctl 1 cache in
  Alcotest.(check bool) "committed" true (p.Controller.phase = Controller.Committed);
  Alcotest.(check bool) "tables installed" true
    (Activermt.Table.installed (Controller.tables ctl) ~fid:1);
  match Negotiate.granted_regions p.Controller.response with
  | Some regions ->
    Alcotest.(check int) "three allocated stages" 3
      (Array.fold_left (fun n r -> if r <> None then n + 1 else n) 0 regions)
  | None -> Alcotest.fail "granted response"

let test_bad_packet () =
  let _, ctl = fresh () in
  let pkt = Pkt.exec ~fid:1 ~seq:0 ~args:[||] Activermt_apps.Cache.query_program in
  match Controller.handle_request ctl pkt with
  | Error (`Bad_packet _) -> ()
  | _ -> Alcotest.fail "expected bad-packet error"

let test_rejection () =
  let _, ctl = fresh () in
  for fid = 1 to 16 do
    ignore (admit_exn ctl fid hh)
  done;
  match Controller.handle_request ctl (request 17 hh) with
  | Error (`Rejected _) -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_new_region_zeroed () =
  let device, ctl = fresh () in
  (* Dirty the device memory, then admit: the new app's region must read
     as zero. *)
  let st = Rmt.Device.stage device 1 in
  Rmt.Register_array.set st.Rmt.Device.regs 0 12345;
  ignore (admit_exn ctl 1 cache);
  match Controller.read_region ctl ~fid:1 ~stage:1 with
  | Some data -> Alcotest.(check int) "zeroed" 0 data.(0)
  | None -> Alcotest.fail "region readable"

let test_control_plane_write_read () =
  let _, ctl = fresh () in
  ignore (admit_exn ctl 1 cache);
  Alcotest.(check bool) "write ok" true
    (Controller.write_region_word ctl ~fid:1 ~stage:1 ~index:5 ~value:777);
  (match Controller.read_region ctl ~fid:1 ~stage:1 with
  | Some data -> Alcotest.(check int) "read back" 777 data.(5)
  | None -> Alcotest.fail "region");
  Alcotest.(check bool) "oob write rejected" false
    (Controller.write_region_word ctl ~fid:1 ~stage:1 ~index:70000 ~value:1);
  Alcotest.(check bool) "wrong stage rejected" false
    (Controller.write_region_word ctl ~fid:1 ~stage:0 ~index:0 ~value:1)

let test_auto_migration_copies_data () =
  (* A second cache arrives on the same stages under best-fit; app 1
     shrinks and relocates, and the controller copies its old contents
     into the new region. *)
  let ctlb =
    Controller.create ~scheme:Activermt_alloc.Allocator.Best_fit
      (Rmt.Device.create params)
  in
  ignore (admit_exn ctlb 1 cache);
  for i = 0 to 9 do
    ignore (Controller.write_region_word ctlb ~fid:1 ~stage:1 ~index:i ~value:(100 + i))
  done;
  let p = admit_exn ctlb 2 cache in
  Alcotest.(check (list int)) "app 1 reallocated" [ 1 ] p.Controller.reallocated;
  match Controller.read_region ctlb ~fid:1 ~stage:1 with
  | Some data ->
    Alcotest.(check int) "data migrated" 105 data.(5)
  | None -> Alcotest.fail "region"

let test_snapshot_contents () =
  (* App 1 departs; app 2, packed above it, expands down into the freed
     blocks, and its state moves with it. *)
  let ctl =
    Controller.create ~scheme:Activermt_alloc.Allocator.Best_fit
      (Rmt.Device.create params)
  in
  ignore (admit_exn ctl 1 cache);
  ignore (admit_exn ctl 2 cache);
  let start () =
    match Activermt.Table.regions_of (Controller.tables ctl) ~fid:2 with
    | Some regions -> Option.map (fun r -> r.Pkt.start_word) regions.(1)
    | None -> None
  in
  let before = start () in
  ignore (Controller.write_region_word ctl ~fid:2 ~stage:1 ~index:3 ~value:42);
  let _, expanded = Controller.handle_departure ctl ~fid:1 in
  Alcotest.(check (list int)) "app 2 expanded" [ 2 ] expanded;
  Alcotest.(check bool) "region moved" true (start () <> before);
  match Controller.read_region ctl ~fid:2 ~stage:1 with
  | Some data -> Alcotest.(check int) "moved region has pre-move data" 42 data.(3)
  | None -> Alcotest.fail "region"

(* Reference model of relocation.  Random admissions (through [drain]
   epochs or [handle_request]) and departures run on a small device
   whose every register holds a fresh random word before each operation.
   Afterwards every word must be: zero in a newly admitted app's region;
   for an app resident before and after, its old word at offset [k] in
   its new region, for [k] below the smaller of the two sizes; otherwise
   the word from before the operation.  The oracle builds its expectation
   from a copy, so it does not depend on the order the moves run in. *)
let small_params = { params with Rmt.Params.words_per_stage = 256 * 2 }

let relocation_run ~scheme ~batched ~seed =
  let rng = Random.State.make [| seed |] in
  let device = Rmt.Device.create small_params in
  let ctl = Controller.create ~scheme device in
  let alloc = Controller.allocator ctl in
  let tables = Controller.tables ctl in
  let n_stages = small_params.Rmt.Params.logical_stages in
  let regs s = (Rmt.Device.stage device s).Rmt.Device.regs in
  let words = small_params.Rmt.Params.words_per_stage in
  let apps =
    [|
      cache;
      cache;
      hh;
      Activermt_apps.Cheetah_lb.service;
      Activermt_apps.Counter.service;
      Activermt_apps.Bloom.service;
    |]
  in
  let next_fid = ref 1 in
  let moved_words = ref 0 in
  for op = 1 to 120 do
    for s = 0 to n_stages - 1 do
      for i = 0 to words - 1 do
        Rmt.Register_array.set (regs s) i (Random.State.bits rng)
      done
    done;
    let pre =
      Array.init n_stages (fun s ->
          Rmt.Register_array.snapshot_range (regs s) ~lo:0 ~hi:(words - 1))
    in
    let residents = Activermt_alloc.Allocator.resident alloc in
    let old_regions = Hashtbl.create 64 in
    List.iter
      (fun f ->
        Option.iter (Hashtbl.replace old_regions f) (Activermt.Table.regions_of tables ~fid:f))
      residents;
    (if residents <> [] && Random.State.int rng 3 = 0 then
       let fid = List.nth residents (Random.State.int rng (List.length residents)) in
       ignore (Controller.handle_departure ctl ~fid)
     else
       let k = if batched then 1 + Random.State.int rng 4 else 1 in
       for _ = 1 to k do
         let pkt = request !next_fid apps.(Random.State.int rng (Array.length apps)) in
         incr next_fid;
         if batched then Controller.enqueue_request ctl pkt
         else ignore (Controller.handle_request ctl pkt)
       done;
       if batched then ignore (Controller.drain ctl));
    let expected = Array.map Array.copy pre in
    List.iter
      (fun f ->
        match Activermt.Table.regions_of tables ~fid:f with
        | None -> Alcotest.failf "resident fid %d has no tables" f
        | Some regions ->
          let old = Hashtbl.find_opt old_regions f in
          Array.iteri
            (fun s reg ->
              match (reg, old) with
              | None, _ -> ()
              | Some { Pkt.start_word; n_words }, None ->
                Array.fill expected.(s) start_word n_words 0
              | Some { Pkt.start_word = dst; n_words }, Some old -> (
                match old.(s) with
                | None -> ()
                | Some { Pkt.start_word = src; n_words = n_old } ->
                  if src <> dst then moved_words := !moved_words + min n_words n_old;
                  Array.blit pre.(s) src expected.(s) dst (min n_words n_old)))
            regions)
      (Activermt_alloc.Allocator.resident alloc);
    for s = 0 to n_stages - 1 do
      for i = 0 to words - 1 do
        let got = Rmt.Register_array.get (regs s) i in
        if got <> expected.(s).(i) then
          Alcotest.failf "seed %d op %d: stage %d word %d is %d, expected %d" seed op s i
            got expected.(s).(i)
      done
    done
  done;
  !moved_words

let test_relocation_reference_model () =
  List.iter
    (fun (scheme, batched) ->
      for seed = 1 to 3 do
        Alcotest.(check bool) "some state moved" true
          (relocation_run ~scheme ~batched ~seed > 0)
      done)
    [
      (Activermt_alloc.Allocator.Worst_fit, true);
      (Activermt_alloc.Allocator.Worst_fit, false);
      (Activermt_alloc.Allocator.Best_fit, true);
      (Activermt_alloc.Allocator.Best_fit, false);
    ]

let test_departure_expands () =
  let ctl =
    Controller.create ~scheme:Activermt_alloc.Allocator.Best_fit
      (Rmt.Device.create params)
  in
  ignore (admit_exn ctl 1 cache);
  ignore (admit_exn ctl 2 cache);
  let _timing, expanded = Controller.handle_departure ctl ~fid:1 in
  Alcotest.(check (list int)) "app 2 expanded" [ 2 ] expanded;
  Alcotest.(check bool) "tables removed" false
    (Activermt.Table.installed (Controller.tables ctl) ~fid:1)

let test_interactive_protocol () =
  let ctl =
    Controller.create ~mode:`Interactive
      ~scheme:Activermt_alloc.Allocator.Best_fit (Rmt.Device.create params)
  in
  ignore (admit_exn ctl 1 cache);
  let p = admit_exn ctl 2 cache in
  (match p.Controller.phase with
  | Controller.Awaiting_extraction { impacted } ->
    Alcotest.(check (list int)) "app 1 impacted" [ 1 ] impacted
  | Controller.Committed -> Alcotest.fail "should await extraction");
  let tables = Controller.tables ctl in
  Alcotest.(check bool) "app 1 quiesced" true (Activermt.Table.is_quiesced tables ~fid:1);
  Alcotest.(check bool) "app 2 not installed yet" false
    (Activermt.Table.installed tables ~fid:2);
  Alcotest.(check (list int)) "pending" [ 1 ] (Controller.pending_extraction ctl);
  Controller.complete_extraction ctl ~fid:1;
  Alcotest.(check (list int)) "none pending" [] (Controller.pending_extraction ctl);
  Alcotest.(check bool) "app 1 reactivated" false
    (Activermt.Table.is_quiesced tables ~fid:1);
  Alcotest.(check bool) "app 2 committed" true (Activermt.Table.installed tables ~fid:2);
  Alcotest.(check bool) "app 2 reactivated" false
    (Activermt.Table.is_quiesced tables ~fid:2)

let test_interactive_no_realloc_commits_directly () =
  let ctl = Controller.create ~mode:`Interactive (Rmt.Device.create params) in
  let p = admit_exn ctl 1 cache in
  Alcotest.(check bool) "committed immediately" true
    (p.Controller.phase = Controller.Committed)

let test_interactive_timeout () =
  let ctl =
    Controller.create ~mode:`Interactive ~extraction_timeout_s:0.5
      ~scheme:Activermt_alloc.Allocator.Best_fit (Rmt.Device.create params)
  in
  ignore (admit_exn ctl 1 cache);
  ignore (admit_exn ctl 2 cache);
  Controller.expire ctl ~elapsed_s:0.4;
  Alcotest.(check (list int)) "still pending" [ 1 ] (Controller.pending_extraction ctl);
  Controller.expire ctl ~elapsed_s:0.2;
  Alcotest.(check (list int)) "timed out" [] (Controller.pending_extraction ctl);
  Alcotest.(check bool) "app 2 force-committed" true
    (Activermt.Table.installed (Controller.tables ctl) ~fid:2)

let test_departure_unblocks_pending () =
  (* The impacted app departs instead of acking: the pending admission
     must commit without waiting for the timeout. *)
  let ctl =
    Controller.create ~mode:`Interactive
      ~scheme:Activermt_alloc.Allocator.Best_fit (Rmt.Device.create params)
  in
  ignore (admit_exn ctl 1 cache);
  ignore (admit_exn ctl 2 cache);
  Alcotest.(check (list int)) "waiting on app 1" [ 1 ] (Controller.pending_extraction ctl);
  ignore (Controller.handle_departure ctl ~fid:1);
  Alcotest.(check (list int)) "no longer pending" [] (Controller.pending_extraction ctl);
  Alcotest.(check bool) "app 2 committed" true
    (Activermt.Table.installed (Controller.tables ctl) ~fid:2)

(* Every allocator resident has active tables, and no other FID in
   [fids] has tables. *)
let tables_match_residents ctl ~fids =
  let tables = Controller.tables ctl in
  List.for_all
    (fun fid ->
      Activermt.Table.installed tables ~fid
      = Allocator.is_resident (Controller.allocator ctl) ~fid
      && not (Activermt.Table.is_quiesced tables ~fid))
    fids

let test_overlapping_interactive_admissions () =
  (* FIDs 2 and 3 both reallocate FID 1.  FID 3 arrives before FID 1 has
     acked FID 2's extraction: FID 2 must commit first rather than be
     left resident without tables. *)
  let ctl = Controller.create ~mode:`Interactive (Rmt.Device.create params) in
  let impacted fid app =
    match (admit_exn ctl fid app).Controller.phase with
    | Controller.Awaiting_extraction { impacted } -> impacted
    | Controller.Committed -> []
  in
  ignore (admit_exn ctl 1 Activermt_apps.Bloom.service);
  Alcotest.(check (list int)) "fid 2 awaits fid 1" [ 1 ] (impacted 2 hh);
  Alcotest.(check bool) "fid 3 reallocates" true (impacted 3 hh <> []);
  Alcotest.(check bool) "fid 2 committed before fid 3 was allocated" true
    (Activermt.Table.installed (Controller.tables ctl) ~fid:2);
  Controller.complete_extraction ctl ~fid:1;
  Controller.expire ctl ~elapsed_s:10.;
  Alcotest.(check bool) "every resident installed and active" true
    (tables_match_residents ctl ~fids:[ 1; 2; 3 ])

(* Random interleavings of interactive admissions, extraction acks and
   departures.  Once every pending app has acked and the rest timed out,
   the tables hold exactly the allocator's residents, all active. *)
let prop_interactive_interleavings =
  let apps =
    [|
      cache;
      hh;
      Activermt_apps.Cheetah_lb.service;
      Activermt_apps.Counter.service;
      Activermt_apps.Bloom.service;
    |]
  in
  let schemes =
    Allocator.[| Worst_fit; Best_fit; First_fit; Min_realloc |]
  in
  let pick l k = List.nth l (k mod List.length l) in
  QCheck.Test.make ~count:100
    ~name:"interactive interleavings leave residents installed"
    QCheck.(
      pair (int_bound 3)
        (list_of_size Gen.(int_range 1 24) (pair (int_bound 2) small_nat)))
    (fun (scheme, ops) ->
      let ctl =
        Controller.create ~mode:`Interactive ~scheme:schemes.(scheme)
          (Rmt.Device.create params)
      in
      let next = ref 1 in
      List.iter
        (fun (op, k) ->
          match (op, Controller.pending_extraction ctl,
                 Allocator.resident (Controller.allocator ctl)) with
          | 0, _, _ ->
            ignore
              (Controller.handle_request ctl
                 (request !next apps.(k mod Array.length apps)));
            incr next
          | 1, (_ :: _ as waiting), _ ->
            Controller.complete_extraction ctl ~fid:(pick waiting k)
          | _, _, (_ :: _ as residents) ->
            ignore (Controller.handle_departure ctl ~fid:(pick residents k))
          | _ -> ())
        ops;
      List.iter
        (fun fid -> Controller.complete_extraction ctl ~fid)
        (Controller.pending_extraction ctl);
      Controller.expire ctl ~elapsed_s:10.;
      tables_match_residents ctl ~fids:(List.init !next Fun.id))

let test_regions_packet () =
  let _, ctl = fresh () in
  ignore (admit_exn ctl 1 cache);
  (match Controller.regions_packet ctl ~fid:1 with
  | Some pkt -> (
    match Negotiate.granted_regions pkt with
    | Some _ -> ()
    | None -> Alcotest.fail "granted")
  | None -> Alcotest.fail "resident");
  Alcotest.(check bool) "absent fid" true (Controller.regions_packet ctl ~fid:9 = None)

let test_provision_timing () =
  let _, ctl = fresh () in
  List.iter
    (fun fid ->
      let b = (admit_exn ctl fid cache).Controller.timing in
      Alcotest.(check bool) "positive table time" true (b.Cost_model.table_update_s > 0.0);
      Alcotest.(check bool) "total bounded" true (Cost_model.total b < 29.0))
    [ 1; 2 ]

let test_privilege_lifecycle () =
  let _, ctl = fresh () in
  ignore (admit_exn ctl 1 cache);
  let tables = Controller.tables ctl in
  Alcotest.(check bool) "default unprivileged" false
    (Activermt.Table.is_privileged tables ~fid:1);
  Controller.grant_privilege ctl ~fid:1;
  Alcotest.(check bool) "granted (live reinstall)" true
    (Activermt.Table.is_privileged tables ~fid:1);
  Controller.revoke_privilege ctl ~fid:1;
  Alcotest.(check bool) "revoked" false
    (Activermt.Table.is_privileged tables ~fid:1);
  (* Privilege configured before admission sticks at install time. *)
  Controller.grant_privilege ctl ~fid:2;
  ignore (admit_exn ctl 2 cache);
  Alcotest.(check bool) "pre-configured" true
    (Activermt.Table.is_privileged tables ~fid:2)

let test_recirculation_limit_lifecycle () =
  let _, ctl = fresh () in
  ignore (admit_exn ctl 1 cache);
  let tables = Controller.tables ctl in
  Alcotest.(check (option int)) "unlimited by default" None
    (Activermt.Table.max_passes_of tables ~fid:1);
  Controller.limit_recirculation ctl ~fid:1 ~max_passes:2;
  Alcotest.(check (option int)) "capped" (Some 2)
    (Activermt.Table.max_passes_of tables ~fid:1);
  Alcotest.(check bool) "invalid cap raises" true
    (try
       Controller.limit_recirculation ctl ~fid:1 ~max_passes:0;
       false
     with Invalid_argument _ -> true)

(* -- Async provision queue (batched epoch admission) --------------------- *)

(* One answer as a line: its kind, granted regions per stage and the
   FIDs it reallocated. *)
let describe_answer = function
  | Error (`Rejected _) -> "rejected"
  | Error (`Bad_packet _) -> "bad packet"
  | Ok p ->
    let region = function
      | None -> "-"
      | Some { Pkt.start_word; n_words } -> Printf.sprintf "%d+%d" start_word n_words
    in
    Printf.sprintf "fid %d granted [%s] reallocated [%s]" p.Controller.fid
      (match Negotiate.granted_regions p.Controller.response with
      | Some regions -> String.concat " " (Array.to_list (Array.map region regions))
      | None -> "none")
      (String.concat ";" (List.map string_of_int p.Controller.reallocated))

let test_drain_matches_sequential_decisions () =
  (* An over-capacity stream of pinned heavy hitters interleaved with
     elastic caches, retries of earlier FIDs and a non-request packet,
     replayed through handle_request on one controller and through
     enqueue/drain with single-request epochs on a twin: every answer
     must match exactly. *)
  let tel_seq = Telemetry.create () and tel_bat = Telemetry.create () in
  let ctl_seq = Controller.create ~telemetry:tel_seq (Rmt.Device.create params) in
  let ctl_bat = Controller.create ~telemetry:tel_bat (Rmt.Device.create params) in
  let app fid = if fid mod 2 = 1 then hh else cache in
  let reqs =
    List.concat
      (List.init 40 (fun i ->
           let fid = i + 1 in
           let retry = if i mod 5 = 4 then [ request (fid - 2) (app (fid - 2)) ] else [] in
           let bad =
             if i = 20 then
               [ Pkt.exec ~fid ~seq:0 ~args:[||] Activermt_apps.Cache.query_program ]
             else []
           in
           (request fid (app fid) :: retry) @ bad))
  in
  let seq_results = List.map (Controller.handle_request ctl_seq) reqs in
  Alcotest.(check bool) "stream over-subscribes the switch" true
    (List.exists (function Error (`Rejected _) -> true | _ -> false) seq_results);
  Alcotest.(check bool) "some admission reallocates" true
    (List.exists
       (function Ok p -> p.Controller.reallocated <> [] | Error _ -> false)
       seq_results);
  Alcotest.(check bool) "some retry is a duplicate" true
    (Telemetry.counter_value tel_seq "control.dup_requests" > 0);
  List.iter (Controller.enqueue_request ctl_bat) reqs;
  Alcotest.(check int) "queue holds the backlog" (List.length reqs)
    (Controller.queue_depth ctl_bat);
  let epochs = Controller.drain ~max_batch:1 ctl_bat in
  Alcotest.(check int) "one epoch per request" (List.length reqs) (List.length epochs);
  let bat_answers =
    List.concat_map (fun e -> List.map describe_answer e.Controller.results) epochs
  in
  Alcotest.(check (list string)) "identical answers"
    (List.map describe_answer seq_results)
    bat_answers;
  Alcotest.(check int) "identical duplicate counts"
    (Telemetry.counter_value tel_seq "control.dup_requests")
    (Telemetry.counter_value tel_bat "control.dup_requests");
  Alcotest.(check int) "queue drained" 0 (Controller.queue_depth ctl_bat);
  Alcotest.(check (list int)) "identical resident sets"
    (List.sort compare (Allocator.resident (Controller.allocator ctl_seq)))
    (List.sort compare (Allocator.resident (Controller.allocator ctl_bat)))

let test_drain_needs_auto_mode () =
  let _, ctl = fresh ~mode:`Interactive () in
  Controller.enqueue_request ctl (request 1 cache);
  Alcotest.(check bool) "drain raises Invalid_argument" true
    (try
       ignore (Controller.drain ctl);
       false
     with Invalid_argument _ -> true)

let test_drain_duplicate_fids_idempotent () =
  let tel = Activermt_telemetry.Telemetry.create () in
  let ctl = Controller.create ~telemetry:tel (Rmt.Device.create params) in
  (* Intra-epoch echo: the same FID enqueued twice before a drain. *)
  Controller.enqueue_request ctl (request 1 cache);
  Controller.enqueue_request ctl (request 1 cache);
  (match Controller.drain ctl with
  | [ e ] ->
    Alcotest.(check int) "both requests answered" 2 (List.length e.Controller.results);
    List.iter
      (fun r ->
        match r with
        | Ok p -> Alcotest.(check int) "answered for fid 1" 1 p.Controller.fid
        | Error _ -> Alcotest.fail "duplicate must be answered, not rejected")
      e.Controller.results
  | _ -> Alcotest.fail "one epoch");
  Alcotest.(check (list int)) "allocated exactly once" [ 1 ]
    (Activermt_alloc.Allocator.resident (Controller.allocator ctl));
  (* Cross-drain retry: the FID is already resident. *)
  Controller.enqueue_request ctl (request 1 cache);
  (match Controller.drain ctl with
  | [ e ] -> (
    match e.Controller.results with
    | [ Ok p ] ->
      Alcotest.(check (list int)) "no reallocation for a retry" []
        p.Controller.reallocated
    | _ -> Alcotest.fail "answered from the existing allocation")
  | _ -> Alcotest.fail "one epoch");
  Alcotest.(check int) "both duplicates counted" 2
    (Activermt_telemetry.Telemetry.counter_value tel "control.dup_requests")

let test_drain_epoch_bumps_table_epoch_once () =
  (* Two caches joining a best-fit switch in one epoch both land on the
     resident cache's stages, reallocating it — but its tables (and
     Table.epoch, which keys JIT invalidation) must move exactly once for
     the whole epoch, not once per admission.  The expected advance is
     measured from a sequential twin, where each of the two admissions
     reinstalls the resident cache separately. *)
  let mk () =
    Controller.create ~scheme:Activermt_alloc.Allocator.Best_fit
      (Rmt.Device.create params)
  in
  let seq = mk () in
  ignore (admit_exn seq 1 cache);
  let e0 = Activermt.Table.epoch (Controller.tables seq) ~fid:1 in
  ignore (admit_exn seq 2 cache);
  let per_reinstall = Activermt.Table.epoch (Controller.tables seq) ~fid:1 - e0 in
  Alcotest.(check bool) "a reallocation moves the epoch" true (per_reinstall > 0);
  ignore (admit_exn seq 3 cache);
  Alcotest.(check int) "sequential: one reinstall per admission"
    (e0 + (2 * per_reinstall))
    (Activermt.Table.epoch (Controller.tables seq) ~fid:1);
  let bat = mk () in
  ignore (admit_exn bat 1 cache);
  let before = Activermt.Table.epoch (Controller.tables bat) ~fid:1 in
  Controller.enqueue_request bat (request 2 cache);
  Controller.enqueue_request bat (request 3 cache);
  (match Controller.drain bat with
  | [ e ] ->
    let realloc_fids =
      List.concat_map
        (function Ok p -> p.Controller.reallocated | Error _ -> [])
        e.Controller.results
      |> List.sort_uniq compare
    in
    Alcotest.(check bool) "resident cache reallocated by the epoch" true
      (List.mem 1 realloc_fids);
    Alcotest.(check int) "installs: each touched app exactly once"
      (2 + List.length (List.filter (fun f -> f = 1) realloc_fids))
      e.Controller.installs
  | _ -> Alcotest.fail "one epoch");
  Alcotest.(check int) "batched: one reinstall for the whole epoch"
    (before + per_reinstall)
    (Activermt.Table.epoch (Controller.tables bat) ~fid:1)

let test_drain_epoch_indices_monotonic () =
  let _, ctl = fresh () in
  Controller.enqueue_request ctl (request 1 cache);
  Controller.enqueue_request ctl (request 2 cache);
  Controller.enqueue_request ctl (request 3 cache);
  let first = Controller.drain ~max_batch:2 ctl in
  Alcotest.(check (list int)) "backlog split into epochs" [ 0; 1 ]
    (List.map (fun e -> e.Controller.epoch_index) first);
  Controller.enqueue_request ctl (request 4 cache);
  (match Controller.drain ctl with
  | [ e ] ->
    Alcotest.(check int) "index continues across drains" 2 e.Controller.epoch_index
  | _ -> Alcotest.fail "one epoch");
  Alcotest.(check (list unit)) "empty queue drains to nothing" []
    (List.map ignore (Controller.drain ctl))

let test_cost_model_breakdown () =
  let b =
    Cost_model.breakdown Cost_model.default ~allocation_s:0.01 ~entries_updated:100
      ~apps_touched:2 ~words_snapshotted:1000 ~notifications:3
  in
  Alcotest.(check (float 1e-9)) "allocation passthrough" 0.01 b.Cost_model.allocation_s;
  Alcotest.(check (float 1e-9)) "table = entries + installs"
    ((100.0 *. 2.5e-4) +. (2.0 *. 2.0e-2))
    b.Cost_model.table_update_s;
  Alcotest.(check (float 1e-12)) "snapshot" 1.0e-4 b.Cost_model.snapshot_s;
  Alcotest.(check bool) "p4 compile dwarfs provisioning" true
    (Cost_model.p4_compile_s > 20.0 *. Cost_model.total b)

(* -- Allocation budget ----------------------------------------------------- *)

(* Minor-heap words per arrival of arrival-churn's shape: seed-1 Zipf
   churn in epochs of 64 through [enqueue_request], one [drain] and the
   epoch's [handle_departure]s, after 8 warm-up epochs.  Returns words
   per arrival in total, in the drain and in the departures.  The counts
   depend on the binary and the work, not on the host. *)
let arrival_words ~warmup ~measured =
  let module Churn = Workload.Churn in
  let app_of_kind = function
    | Churn.Cache -> Activermt_apps.Cache.service
    | Churn.Heavy_hitter -> Activermt_apps.Heavy_hitter.service
    | Churn.Load_balancer -> Activermt_apps.Cheetah_lb.service
    | Churn.Flow_counter -> Activermt_apps.Counter.service
    | Churn.Bloom_filter -> Activermt_apps.Bloom.service
  in
  let epochs =
    Churn.zipf_churn Churn.default_zipf_config (Stdx.Prng.create ~seed:1)
    |> Seq.take (warmup + measured)
    |> Seq.map (fun (e : Churn.epoch) ->
           List.fold_right
             (fun ev (reqs, deps) ->
               match ev with
               | Churn.Arrive { fid; kind; _ } -> (request fid (app_of_kind kind) :: reqs, deps)
               | Churn.Depart { fid } -> (reqs, fid :: deps))
             e.Churn.events ([], []))
    |> Array.of_seq
  in
  let ctl =
    Controller.create ~telemetry:(Telemetry.create ()) (Rmt.Device.create params)
  in
  let drain_w = ref 0.0 and depart_w = ref 0.0 and arrivals = ref 0 in
  let run_epoch (reqs, deps) =
    List.iter (Controller.enqueue_request ctl) reqs;
    let w0 = Gc.minor_words () in
    ignore (Controller.drain ctl);
    let w1 = Gc.minor_words () in
    List.iter (fun fid -> ignore (Controller.handle_departure ctl ~fid)) deps;
    let w2 = Gc.minor_words () in
    drain_w := !drain_w +. (w1 -. w0);
    depart_w := !depart_w +. (w2 -. w1);
    arrivals := !arrivals + List.length reqs
  in
  Array.iteri (fun i e -> if i < warmup then run_epoch e) epochs;
  drain_w := 0.0;
  depart_w := 0.0;
  arrivals := 0;
  let w0 = Gc.minor_words () in
  Array.iteri (fun i e -> if i >= warmup then run_epoch e) epochs;
  let total = Gc.minor_words () -. w0 in
  let per x = x /. float_of_int !arrivals in
  (per total, per !drain_w, per !depart_w)

let test_arrival_budget () =
  let ((total, drain, depart) as first) = arrival_words ~warmup:8 ~measured:64 in
  let check name words budget =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f words per arrival <= %d" name words budget)
      true
      (words <= float_of_int budget)
  in
  check "total" total 6100;
  check "drain" drain 1800;
  check "departure" depart 4400;
  Alcotest.(check bool) "a fresh controller reads the same" true
    (arrival_words ~warmup:8 ~measured:64 = first)

let () =
  Alcotest.run "control"
    [
      ( "admission",
        [
          Alcotest.test_case "installs tables" `Quick test_admission_installs_tables;
          Alcotest.test_case "bad packet" `Quick test_bad_packet;
          Alcotest.test_case "rejection" `Quick test_rejection;
          Alcotest.test_case "new region zeroed" `Quick test_new_region_zeroed;
          Alcotest.test_case "control-plane rw" `Quick test_control_plane_write_read;
        ] );
      ( "reallocation",
        [
          Alcotest.test_case "auto migration" `Quick test_auto_migration_copies_data;
          Alcotest.test_case "snapshot contents" `Quick test_snapshot_contents;
          Alcotest.test_case "relocation matches reference model" `Quick
            test_relocation_reference_model;
          Alcotest.test_case "departure expands" `Quick test_departure_expands;
          Alcotest.test_case "interactive protocol" `Quick test_interactive_protocol;
          Alcotest.test_case "interactive no-realloc" `Quick
            test_interactive_no_realloc_commits_directly;
          Alcotest.test_case "interactive timeout" `Quick test_interactive_timeout;
          Alcotest.test_case "departure unblocks pending" `Quick
            test_departure_unblocks_pending;
          Alcotest.test_case "regions packet" `Quick test_regions_packet;
          Alcotest.test_case "overlapping interactive admissions" `Quick
            test_overlapping_interactive_admissions;
          QCheck_alcotest.to_alcotest prop_interactive_interleavings;
        ] );
      ( "provision queue",
        [
          Alcotest.test_case "drain matches sequential decisions" `Quick
            test_drain_matches_sequential_decisions;
          Alcotest.test_case "duplicate fids idempotent" `Quick
            test_drain_duplicate_fids_idempotent;
          Alcotest.test_case "table epoch bumps once per epoch" `Quick
            test_drain_epoch_bumps_table_epoch_once;
          Alcotest.test_case "epoch indices monotonic" `Quick
            test_drain_epoch_indices_monotonic;
          Alcotest.test_case "drain needs an auto controller" `Quick
            test_drain_needs_auto_mode;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "provision timing" `Quick test_provision_timing;
          Alcotest.test_case "privilege lifecycle" `Quick test_privilege_lifecycle;
          Alcotest.test_case "recirculation limit" `Quick test_recirculation_limit_lifecycle;
          Alcotest.test_case "breakdown" `Quick test_cost_model_breakdown;
        ] );
      ("budget", [ Alcotest.test_case "words per arrival" `Quick test_arrival_budget ]);
    ]
