(* Tests for the client library: negotiation packets, mutant-recovering
   synthesis, and the cache / heavy-hitter / load-balancer service
   clients running against a real controller+runtime. *)

module Negotiate = Activermt_client.Negotiate
module Synthesis = Activermt_client.Synthesis
module Cache_client = Activermt_client.Cache_client
module Hh_client = Activermt_client.Hh_client
module Controller = Activermt_control.Controller
module Mutant = Activermt_compiler.Mutant
module Kv = Workload.Kv
module Pkt = Activermt.Packet
module RT = Activermt.Runtime

let params = Rmt.Params.default
let policy = Mutant.Most_constrained

(* -- Negotiate ----------------------------------------------------------- *)

let test_request_packet_flags () =
  let pkt = Negotiate.request_packet ~fid:5 ~seq:3 Activermt_apps.Cache.service in
  Alcotest.(check bool) "elastic" true pkt.Pkt.flags.Pkt.elastic;
  Alcotest.(check bool) "virtual" true pkt.Pkt.flags.Pkt.virtual_addressing;
  let pkt = Negotiate.request_packet ~fid:5 ~seq:3 Activermt_apps.Cheetah_lb.service in
  Alcotest.(check bool) "lb inelastic" false pkt.Pkt.flags.Pkt.elastic

let test_ack_and_release_packets () =
  let ack = Negotiate.extraction_done_packet ~fid:5 in
  Alcotest.(check bool) "ack set" true ack.Pkt.flags.Pkt.ack;
  let rel = Negotiate.release_packet ~fid:5 in
  Alcotest.(check bool) "ack clear" false rel.Pkt.flags.Pkt.ack;
  Alcotest.(check bool) "both bare" true
    (ack.Pkt.payload = Pkt.Bare && rel.Pkt.payload = Pkt.Bare)

let test_granted_regions_filters () =
  let granted =
    {
      Pkt.fid = 1;
      seq = 0;
      flags = Pkt.no_flags;
      payload = Pkt.Response { status = Pkt.Granted; regions = Array.make 20 None };
    }
  in
  Alcotest.(check bool) "granted -> Some" true
    (Negotiate.granted_regions granted <> None);
  let rejected =
    {
      granted with
      Pkt.payload = Pkt.Response { status = Pkt.Rejected; regions = Array.make 20 None };
    }
  in
  Alcotest.(check bool) "rejected -> None" true
    (Negotiate.granted_regions rejected = None)

(* -- Synthesis against a live controller --------------------------------- *)

let admit ctl fid app =
  match Controller.handle_request ctl (Negotiate.request_packet ~fid ~seq:0 app) with
  | Ok p -> Option.get (Negotiate.granted_regions p.Controller.response)
  | Error _ -> Alcotest.fail "admission failed"

let test_synthesis_identity_grant () =
  let ctl = Controller.create (Rmt.Device.create params) in
  let regions = admit ctl 1 Activermt_apps.Cache.service in
  match Synthesis.match_response params ~policy Activermt_apps.Cache.service regions with
  | Error e -> Alcotest.fail e
  | Ok g ->
    Alcotest.(check (array int)) "identity mutant" [| 0; 0; 0 |]
      g.Synthesis.mutant.Mutant.shifts;
    Alcotest.(check int) "min words = full stage" 65536 (Synthesis.min_access_words g)

let test_synthesis_shifted_grant () =
  (* Worst-fit places later caches on shifted stages; the client must
     recover the exact mutant from the granted stage set. *)
  let ctl = Controller.create (Rmt.Device.create params) in
  for fid = 1 to 3 do
    ignore (admit ctl fid Activermt_apps.Cache.service)
  done;
  let regions = admit ctl 4 Activermt_apps.Cache.service in
  match Synthesis.match_response params ~policy Activermt_apps.Cache.service regions with
  | Error e -> Alcotest.fail e
  | Ok g ->
    let stages = Array.to_list g.Synthesis.mutant.Mutant.stages in
    let granted =
      List.filteri (fun _ r -> r <> None) (Array.to_list regions) |> List.length
    in
    Alcotest.(check int) "three access stages" 3 granted;
    List.iter
      (fun s ->
        Alcotest.(check bool) "stage has a region" true (regions.(s) <> None))
      stages

let test_synthesis_wrong_regions () =
  let regions = Array.make 20 None in
  regions.(0) <- Some { Pkt.start_word = 0; n_words = 256 };
  match Synthesis.match_response params ~policy Activermt_apps.Cache.service regions with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "matched impossible stage set"

(* -- Cache client end to end --------------------------------------------- *)

let make_cache_client ctl fid =
  let regions = admit ctl fid Activermt_apps.Cache.service in
  match Cache_client.create params ~policy ~fid ~regions with
  | Ok cc -> cc
  | Error e -> Alcotest.fail e

let test_cache_client_roundtrip () =
  let ctl = Controller.create (Rmt.Device.create params) in
  let cc = make_cache_client ctl 1 in
  let tables = Controller.tables ctl in
  let meta = RT.meta ~src:1 ~dst:2 () in
  let key = Kv.key_of_rank 123 in
  let miss = RT.run tables ~meta (Cache_client.query_packet cc ~seq:0 key) in
  Alcotest.(check bool) "miss forwards" true
    (match miss.RT.decision with RT.Forward _ -> true | _ -> false);
  let st = RT.run tables ~meta (Cache_client.populate_packet cc ~seq:1 key ~value:777) in
  Alcotest.(check bool) "populate acks" true
    (st.RT.decision = RT.Return_to_sender);
  let hit = RT.run tables ~meta (Cache_client.query_packet cc ~seq:2 key) in
  Alcotest.(check bool) "hit returns" true (hit.RT.decision = RT.Return_to_sender);
  Alcotest.(check int) "value" 777 hit.RT.args_out.(3)

let test_cache_client_shifted_mutant_roundtrip () =
  (* The fourth cache lands on shifted stages; its synthesized programs
     must still produce hits. *)
  let ctl = Controller.create (Rmt.Device.create params) in
  let _cc1 = make_cache_client ctl 1 in
  let _cc2 = make_cache_client ctl 2 in
  let _cc3 = make_cache_client ctl 3 in
  let cc4 = make_cache_client ctl 4 in
  Alcotest.(check bool) "shifted placement" true
    (Array.exists (fun s -> s > 0) (Cache_client.granted cc4).Synthesis.mutant.Mutant.shifts
    || (Cache_client.granted cc4).Synthesis.mutant.Mutant.shifts = [| 0; 0; 0 |]);
  let tables = Controller.tables ctl in
  let meta = RT.meta ~src:1 ~dst:2 () in
  let key = Kv.key_of_rank 5 in
  ignore (RT.run tables ~meta (Cache_client.populate_packet cc4 ~seq:0 key ~value:31337));
  let hit = RT.run tables ~meta (Cache_client.query_packet cc4 ~seq:1 key) in
  Alcotest.(check bool) "hit on shifted mutant" true
    (hit.RT.decision = RT.Return_to_sender);
  Alcotest.(check int) "value" 31337 hit.RT.args_out.(3)

let test_cache_client_wrong_key_misses () =
  let ctl = Controller.create (Rmt.Device.create params) in
  let cc = make_cache_client ctl 1 in
  let tables = Controller.tables ctl in
  let meta = RT.meta ~src:1 ~dst:2 () in
  ignore
    (RT.run tables ~meta
       (Cache_client.populate_packet cc ~seq:0 (Kv.key_of_rank 1) ~value:1));
  (* A different key hashing to a different bucket (or same bucket with a
     different stored key) must miss. *)
  let other = Kv.key_of_rank 999 in
  let r = RT.run tables ~meta (Cache_client.query_packet cc ~seq:1 other) in
  Alcotest.(check bool) "miss" true
    (match r.RT.decision with RT.Forward _ -> true | _ -> false)

let test_plan_population_dedups_buckets () =
  let ctl = Controller.create (Rmt.Device.create params) in
  let cc = make_cache_client ctl 1 in
  let objects = List.init 200 (fun r -> (Kv.key_of_rank r, r)) in
  let planned = Cache_client.plan_population cc ~objects in
  let buckets = List.map (fun (k, _) -> Cache_client.bucket_of_key cc k) planned in
  Alcotest.(check int) "unique buckets" (List.length buckets)
    (List.length (List.sort_uniq compare buckets));
  Alcotest.(check bool) "keeps most-popular first" true
    (List.mem_assoc (Kv.key_of_rank 0) planned)

(* -- Load-balancer client ------------------------------------------------- *)

module Lb_client = Activermt_client.Lb_client

let make_lb_client ctl fid =
  Controller.grant_privilege ctl ~fid;
  let regions = admit ctl fid Activermt_apps.Cheetah_lb.service in
  match Lb_client.create params ~policy ~fid ~regions with
  | Ok lb -> lb
  | Error e -> Alcotest.fail e

let run_lb_flows ctl lb =
  let tables = Controller.tables ctl in
  let ports = Array.init 8 (fun i -> 700 + i) in
  List.iter
    (fun (_seq, pkt) ->
      let r = RT.run tables ~meta:(RT.meta ~src:1 ~dst:0 ()) pkt in
      Alcotest.(check bool) "pool write acked" true
        (r.RT.decision = RT.Return_to_sender))
    (Lb_client.pool_write_packets lb ~ports);
  let salt = 0xBEEF in
  let consistent = ref 0 in
  for flow = 1 to 12 do
    let flow_key = [| 0x0A000000 + flow; flow * 131 |] in
    let meta = { RT.src = 1; dst = 999; flow_key } in
    let syn = RT.run tables ~meta (Lb_client.syn_packet lb ~seq:flow ~salt) in
    let chosen =
      match syn.RT.decision with
      | RT.Forward d -> d
      | _ -> Alcotest.fail "SYN must forward to a backend"
    in
    Alcotest.(check bool) "backend from the pool" true (chosen >= 700 && chosen < 708);
    let cookie = syn.RT.args_out.(Activermt_apps.Cheetah_lb.arg_cookie) in
    let flow_r =
      RT.run tables ~meta (Lb_client.flow_packet lb ~seq:0 ~salt ~cookie)
    in
    match flow_r.RT.decision with
    | RT.Forward d when d = chosen -> incr consistent
    | _ -> ()
  done;
  Alcotest.(check int) "all flows follow their SYN's backend" 12 !consistent

let test_lb_client_end_to_end () =
  let ctl = Controller.create (Rmt.Device.create params) in
  run_lb_flows ctl (make_lb_client ctl 21)

let test_lb_client_shifted_mutant () =
  (* Crowd the switch so a later LB lands on a shifted mutant; its flow
     program must still hash on the SYN's stage. *)
  let ctl = Controller.create (Rmt.Device.create params) in
  let _first = make_lb_client ctl 21 in
  let second = make_lb_client ctl 22 in
  Alcotest.(check bool) "placement differs from compact" true
    (Array.exists
       (fun s -> s > 0)
       (Lb_client.granted second).Synthesis.mutant.Mutant.shifts);
  run_lb_flows ctl second

(* -- Memsync driver (pure state machine) ----------------------------------- *)

module Memsync_driver = Activermt_client.Memsync_driver

let test_driver_lifecycle () =
  let d =
    Memsync_driver.create ~fid:1 ~stages:[ 2; 5 ] ~count:3 ~timeout_s:1.0
      Memsync_driver.Read
  in
  Alcotest.(check int) "all outstanding" 3 (Memsync_driver.outstanding d);
  let sent = ref [] in
  Memsync_driver.start d ~now:0.0 ~send:(fun ~seq pkt -> sent := (seq, pkt) :: !sent);
  Alcotest.(check int) "three packets" 3 (List.length !sent);
  Alcotest.(check int) "attempts counted" 3 (Memsync_driver.attempts d);
  (* Before the timeout nothing retransmits. *)
  Alcotest.(check int) "no early retransmit" 0
    (Memsync_driver.tick d ~now:0.5 ~send:(fun ~seq:_ _ -> Alcotest.fail "sent"));
  (* Ack one; the other two retransmit after the timeout. *)
  let seq0, _ = List.nth (List.rev !sent) 0 in
  Alcotest.(check bool) "reply accepted" true
    (Memsync_driver.on_reply d ~seq:seq0 ~args:[| 0; 11; 22; 0 |]);
  Alcotest.(check bool) "duplicate rejected" false
    (Memsync_driver.on_reply d ~seq:seq0 ~args:[| 0; 11; 22; 0 |]);
  Alcotest.(check bool) "unknown rejected" false
    (Memsync_driver.on_reply d ~seq:999 ~args:[| 0; 0; 0; 0 |]);
  let resent = ref 0 in
  Alcotest.(check int) "two retransmissions" 2
    (Memsync_driver.tick d ~now:1.5 ~send:(fun ~seq:_ _ -> incr resent));
  Alcotest.(check int) "send called twice" 2 !resent;
  Alcotest.(check int) "still two outstanding" 2 (Memsync_driver.outstanding d);
  (* Read values land per stage at the right index. *)
  let v = Memsync_driver.values d in
  Alcotest.(check int) "stage 2 value at index 0" 11 v.(0).(0);
  Alcotest.(check int) "stage 5 value at index 0" 22 v.(1).(0)

let test_driver_write_values () =
  let d =
    Memsync_driver.create ~fid:1 ~stages:[ 0; 3 ] ~count:2 ~timeout_s:1.0
      (Memsync_driver.Write (fun i -> [ 10 + i; 20 + i ]))
  in
  let pkts = ref [] in
  Memsync_driver.start d ~now:0.0 ~send:(fun ~seq:_ pkt -> pkts := pkt :: !pkts);
  List.iter
    (fun pkt ->
      match pkt.Pkt.payload with
      | Pkt.Exec { args; _ } ->
        let i = args.(0) in
        Alcotest.(check int) "stage-0 value" (10 + i) args.(1);
        Alcotest.(check int) "stage-3 value" (20 + i) args.(2)
      | _ -> Alcotest.fail "exec packet")
    !pkts

(* -- Heavy-hitter client ------------------------------------------------- *)

let test_hh_client_monitor_and_extract () =
  let ctl = Controller.create (Rmt.Device.create params) in
  let regions = admit ctl 9 Activermt_apps.Heavy_hitter.service in
  let hh =
    match Hh_client.create params ~policy ~fid:9 ~regions with
    | Ok h -> h
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "4096 slots (16 blocks)" 4096 (Hh_client.n_slots hh);
  let tables = Controller.tables ctl in
  let meta = RT.meta ~src:1 ~dst:2 () in
  (* One hot key sent many times, a few cold ones once. *)
  let hot = Kv.key_of_rank 0 in
  for seq = 1 to 50 do
    ignore (RT.run tables ~meta (Hh_client.monitor_packet hh ~seq hot))
  done;
  for r = 1 to 5 do
    ignore (RT.run tables ~meta (Hh_client.monitor_packet hh ~seq:(100 + r) (Kv.key_of_rank r)))
  done;
  (* Extract via the control plane. *)
  let read stage =
    Option.get (Controller.read_region ctl ~fid:9 ~stage)
  in
  let items =
    Hh_client.frequent_items
      ~thresholds:(read (Hh_client.threshold_stage hh))
      ~key0s:(read (Hh_client.key0_stage hh))
      ~key1s:(read (Hh_client.key1_stage hh))
  in
  match items with
  | (top_key, top_count) :: _ ->
    Alcotest.(check int) "hot key first" hot.Kv.k1 top_key.Kv.k1;
    Alcotest.(check bool) "counted high" true (top_count > 10)
  | [] -> Alcotest.fail "no frequent items recovered"

let test_hh_frequent_items_sorting () =
  let items =
    Hh_client.frequent_items ~thresholds:[| 0; 5; 9; 2 |] ~key0s:[| 0; 10; 20; 30 |]
      ~key1s:[| 0; 11; 21; 31 |]
  in
  Alcotest.(check int) "zero-threshold slots skipped" 3 (List.length items);
  Alcotest.(check (list int)) "descending counts" [ 9; 5; 2 ]
    (List.map snd items)

let () =
  Alcotest.run "client"
    [
      ( "negotiate",
        [
          Alcotest.test_case "request flags" `Quick test_request_packet_flags;
          Alcotest.test_case "ack/release" `Quick test_ack_and_release_packets;
          Alcotest.test_case "granted filter" `Quick test_granted_regions_filters;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "identity grant" `Quick test_synthesis_identity_grant;
          Alcotest.test_case "shifted grant" `Quick test_synthesis_shifted_grant;
          Alcotest.test_case "wrong regions" `Quick test_synthesis_wrong_regions;
        ] );
      ( "cache client",
        [
          Alcotest.test_case "miss/populate/hit" `Quick test_cache_client_roundtrip;
          Alcotest.test_case "shifted mutant" `Quick
            test_cache_client_shifted_mutant_roundtrip;
          Alcotest.test_case "wrong key misses" `Quick test_cache_client_wrong_key_misses;
          Alcotest.test_case "population plan" `Quick test_plan_population_dedups_buckets;
        ] );
      ( "lb client",
        [
          Alcotest.test_case "end to end" `Quick test_lb_client_end_to_end;
          Alcotest.test_case "shifted mutant" `Quick test_lb_client_shifted_mutant;
        ] );
      ( "memsync driver",
        [
          Alcotest.test_case "lifecycle" `Quick test_driver_lifecycle;
          Alcotest.test_case "write values" `Quick test_driver_write_values;
        ] );
      ( "hh client",
        [
          Alcotest.test_case "monitor + extract" `Quick test_hh_client_monitor_and_extract;
          Alcotest.test_case "sorting" `Quick test_hh_frequent_items_sorting;
        ] );
    ]
