(* Fault-injection layer and the protocol stack's recovery machinery:
   wire checksum rejection, duplicate idempotence (controller and
   memsync), negotiation backoff, fleet migration under loss, and the
   qcheck property that a retrying negotiation under any survivable
   fault profile either succeeds or times out cleanly — never hangs,
   never double-allocates. *)

module Wire = Activermt.Wire
module Pkt = Activermt.Packet
module Faults = Netsim.Faults
module Engine = Netsim.Engine
module Fabric = Netsim.Fabric
module Controller = Activermt_control.Controller
module Cost_model = Activermt_control.Cost_model
module Allocator = Activermt_alloc.Allocator
module Negotiate = Activermt_client.Negotiate
module Memsync_driver = Activermt_client.Memsync_driver
module Fleet = Activermt_fleet.Fleet
module Topology = Activermt_fleet.Topology
module Telemetry = Activermt_telemetry.Telemetry
module Trace = Activermt_telemetry.Trace
module Chaos = Experiments.Chaos

let params = Rmt.Params.default

(* -- Wire checksum ------------------------------------------------------- *)

let test_frame_roundtrip () =
  let payload = Bytes.of_string "activermt capsule payload \x00\x01\xfe\xff" in
  let framed = Wire.frame payload in
  Alcotest.(check int) "trailer adds 3 bytes (checksum + flags)"
    (Bytes.length payload + 3)
    (Bytes.length framed);
  (match Wire.unframe framed with
  | Ok back ->
    Alcotest.(check string) "payload intact" (Bytes.to_string payload)
      (Bytes.to_string back)
  | Error e -> Alcotest.failf "unframe: %s" e);
  let ctx = { Wire.trace_id = 0xDEAD; span_id = 0xBEEF } in
  let traced = Wire.frame ~trace:ctx payload in
  Alcotest.(check int) "trace extension adds 8 more bytes"
    (Bytes.length payload + 11)
    (Bytes.length traced);
  match Wire.unframe_traced traced with
  | Ok (back, Some c) ->
    Alcotest.(check string) "payload intact under trace ext"
      (Bytes.to_string payload) (Bytes.to_string back);
    Alcotest.(check bool) "trace context survives" true (c = ctx)
  | Ok (_, None) -> Alcotest.fail "trace context lost"
  | Error e -> Alcotest.failf "unframe_traced: %s" e

let test_checksum_rejects_any_single_byte_flip () =
  let payload =
    Pkt.encode (Negotiate.request_packet ~fid:3 ~seq:0 Activermt_apps.Cache.service)
  in
  let framed = Wire.frame payload in
  List.iter
    (fun mask ->
      for i = 0 to Bytes.length framed - 1 do
        let damaged = Bytes.copy framed in
        Bytes.set_uint8 damaged i (Bytes.get_uint8 framed i lxor mask);
        match Wire.unframe damaged with
        | Ok _ ->
          Alcotest.failf "flip of byte %d (mask %#x) went undetected" i mask
        | Error _ -> ()
      done)
    [ 0x01; 0x10; 0x80; 0xff ]

let test_unframe_short () =
  match Wire.unframe (Bytes.make 1 'x') with
  | Ok _ -> Alcotest.fail "1-byte frame accepted"
  | Error _ -> ()

(* Any payload with any trace context round-trips through the frame
   trailer exactly, and any single-byte flip of the framed bytes is
   rejected outright — so a damaged frame can never surface a bogus
   trace context. *)
let prop_wire_trace_roundtrip =
  QCheck.Test.make
    ~name:"trace ctx roundtrips; corrupt frames never yield one" ~count:500
    (QCheck.make
       QCheck.Gen.(
         triple
           (map Bytes.of_string
              (string_size
                 ~gen:(map Char.chr (int_range 0 255))
                 (int_range 0 64)))
           (opt (pair (int_range 0 0xFFFFFFFF) (int_range 0 0xFFFFFFFF)))
           (pair (int_range 0 1000) (int_range 1 255))))
    (fun (payload, ctx, (pos, mask)) ->
      let trace =
        Option.map (fun (t, s) -> { Wire.trace_id = t; span_id = s }) ctx
      in
      let framed = Wire.frame ?trace payload in
      let roundtrips =
        match Wire.unframe_traced framed with
        | Ok (back, got) -> Bytes.equal back payload && got = trace
        | Error _ -> false
      in
      let damaged = Bytes.copy framed in
      let i = pos mod Bytes.length framed in
      Bytes.set_uint8 damaged i (Bytes.get_uint8 damaged i lxor mask);
      let corruption_caught =
        match Wire.unframe_traced damaged with Ok _ -> false | Error _ -> true
      in
      roundtrips && corruption_caught)

(* -- Faults model -------------------------------------------------------- *)

let test_faults_deterministic () =
  let profile =
    Faults.lossy ~drop:0.3 ~duplicate:0.2 ~corrupt:0.1 ~jitter_s:1e-4 ()
  in
  let a = Faults.create ~seed:99 profile in
  let b = Faults.create ~seed:99 profile in
  for i = 0 to 199 do
    let now = 0.01 *. float_of_int i in
    let va = Faults.plan a ~now and vb = Faults.plan b ~now in
    Alcotest.(check bool) "same lose" va.Faults.lose vb.Faults.lose;
    Alcotest.(check bool) "same corrupt" va.Faults.corrupt vb.Faults.corrupt;
    Alcotest.(check int) "same copies" va.Faults.copies vb.Faults.copies;
    Alcotest.(check (float 0.0)) "same jitter" (Faults.jitter a) (Faults.jitter b)
  done;
  Alcotest.(check int) "same injected count" (Faults.injected a)
    (Faults.injected b)

let test_faults_flap_square_wave () =
  let f =
    Faults.create
      {
        Faults.none with
        Faults.flap_period_s = 10.0;
        flap_down_s = 2.0;
      }
  in
  Alcotest.(check bool) "down at 1s" true (Faults.link_down f ~now:1.0);
  Alcotest.(check bool) "up at 5s" false (Faults.link_down f ~now:5.0);
  Alcotest.(check bool) "down again at 11s" true (Faults.link_down f ~now:11.0)

let test_faults_none_is_free () =
  let engine = Engine.create () in
  let controller = Controller.create (Rmt.Device.create params) in
  let handle = Faults.create Faults.none in
  let fabric = Fabric.create ~faults:handle ~engine ~controller () in
  Alcotest.(check bool) "all-off profile is discarded" true
    (Fabric.faults fabric = None)

let test_faults_validation () =
  Alcotest.check_raises "drop > 1"
    (Invalid_argument "Faults: drop must be in [0, 1], got 1.5")
    (fun () -> ignore (Faults.create (Faults.lossy ~drop:1.5 ())))

(* -- Cost-model degradation ---------------------------------------------- *)

let test_cost_model_degrade () =
  let c = Cost_model.default in
  let d = Cost_model.degrade c ~slowdown:10.0 in
  Alcotest.(check (float 1e-12)) "table entry x10"
    (10.0 *. c.Cost_model.table_entry_update_s)
    d.Cost_model.table_entry_update_s;
  Alcotest.(check (float 1e-12)) "app install x10"
    (10.0 *. c.Cost_model.app_install_s)
    d.Cost_model.app_install_s;
  Alcotest.(check (float 0.0)) "snapshot untouched" c.Cost_model.snapshot_word_s
    d.Cost_model.snapshot_word_s;
  Alcotest.(check (float 0.0)) "notify untouched" c.Cost_model.notify_rtt_s
    d.Cost_model.notify_rtt_s;
  Alcotest.check_raises "slowdown < 1"
    (Invalid_argument "Cost_model.degrade: slowdown must be >= 1") (fun () ->
      ignore (Cost_model.degrade c ~slowdown:0.5))

(* -- Controller idempotence ---------------------------------------------- *)

let test_duplicate_request_idempotent () =
  let tel = Telemetry.create () in
  let controller = Controller.create ~telemetry:tel (Rmt.Device.create params) in
  let request = Negotiate.request_packet ~fid:7 ~seq:0 Activermt_apps.Cache.service in
  let first =
    match Controller.handle_request controller request with
    | Ok p -> p
    | Error _ -> Alcotest.fail "first request rejected"
  in
  let resident_once () =
    List.length
      (List.filter (( = ) 7) (Allocator.resident (Controller.allocator controller)))
  in
  Alcotest.(check int) "resident once" 1 (resident_once ());
  (* A network duplicate (same packet) and a client retry (higher seq)
     must both be answered from the existing allocation. *)
  List.iter
    (fun retry ->
      match Controller.handle_request controller retry with
      | Error _ -> Alcotest.fail "duplicate request rejected"
      | Ok dup ->
        Alcotest.(check int) "no reallocation work" 0
          (List.length dup.Controller.reallocated);
        Alcotest.(check bool) "still resident exactly once" true
          (resident_once () = 1);
        Alcotest.(check bool) "same regions as the original grant" true
          (Negotiate.granted_regions dup.Controller.response
          = Negotiate.granted_regions first.Controller.response))
    [ request; Negotiate.request_packet ~fid:7 ~seq:3 Activermt_apps.Cache.service ];
  Alcotest.(check int) "dup counter" 2 (Telemetry.counter_value tel "control.dup_requests")

(* -- Memsync driver retries ---------------------------------------------- *)

let test_memsync_duplicate_reply_idempotent () =
  let driver =
    Memsync_driver.create ~fid:1 ~stages:[ 0 ] ~count:2 ~timeout_s:1.0
      Memsync_driver.Read
  in
  let sent = ref [] in
  Memsync_driver.start driver ~now:0.0 ~send:(fun ~seq _ -> sent := seq :: !sent);
  let seq = List.hd !sent in
  Alcotest.(check bool) "first reply consumed" true
    (Memsync_driver.on_reply driver ~seq ~args:[| 0; 42 |]);
  Alcotest.(check bool) "duplicate reply ignored" false
    (Memsync_driver.on_reply driver ~seq ~args:[| 0; 42 |]);
  Alcotest.(check int) "one slot still outstanding" 1
    (Memsync_driver.outstanding driver)

let test_memsync_attempt_budget () =
  let driver =
    Memsync_driver.create ~max_attempts:3 ~fid:1 ~stages:[ 0 ] ~count:1
      ~timeout_s:1.0 Memsync_driver.Read
  in
  let void ~seq:_ _ = () in
  Memsync_driver.start driver ~now:0.0 ~send:void;
  Alcotest.(check int) "retry 1" 1 (Memsync_driver.tick driver ~now:2.0 ~send:void);
  Alcotest.(check int) "retry 2" 1 (Memsync_driver.tick driver ~now:4.0 ~send:void);
  Alcotest.(check int) "budget spent" 0 (Memsync_driver.tick driver ~now:8.0 ~send:void);
  Alcotest.(check int) "exhausted" 1 (Memsync_driver.exhausted driver);
  Alcotest.(check (list int)) "unacked index" [ 0 ] (Memsync_driver.unacked driver);
  Alcotest.(check int) "three packets total" 3 (Memsync_driver.attempts driver)

(* -- Negotiation backoff ------------------------------------------------- *)

let test_negotiate_backoff_growth () =
  let backoff =
    {
      Negotiate.base_timeout_s = 0.1;
      multiplier = 2.0;
      max_timeout_s = 0.4;
      jitter = 0.0;
      max_attempts = 4;
    }
  in
  let session =
    Negotiate.session ~backoff ~fid:9 Activermt_apps.Counter.service
  in
  let seqs = ref [] in
  let send (pkt : Pkt.t) = seqs := pkt.Pkt.seq :: !seqs in
  Negotiate.start session ~now:0.0 ~send;
  let wait = function
    | `Wait dt -> dt
    | `Done _ -> Alcotest.fail "settled prematurely"
  in
  (* Tick strictly past each deadline (0.1, then +0.2, +0.4, +0.4): the
     armed timeout doubles and then pins at the cap. *)
  Alcotest.(check (float 1e-6)) "first timeout" 0.05
    (wait (Negotiate.tick session ~now:0.05 ~send));
  Alcotest.(check (float 1e-6)) "retry doubles" 0.2
    (wait (Negotiate.tick session ~now:0.11 ~send));
  Alcotest.(check (float 1e-6)) "doubles again" 0.4
    (wait (Negotiate.tick session ~now:0.32 ~send));
  Alcotest.(check (float 1e-6)) "capped at max" 0.4
    (wait (Negotiate.tick session ~now:0.73 ~send));
  (match Negotiate.tick session ~now:1.2 ~send with
  | `Done Negotiate.Timeout -> ()
  | `Done _ | `Wait _ -> Alcotest.fail "expected Timeout after the budget");
  Alcotest.(check int) "all four attempts sent" 4 (Negotiate.attempts session);
  Alcotest.(check (list int)) "seq = attempt number" [ 0; 1; 2; 3 ]
    (List.rev !seqs);
  (* Settled sessions ignore stragglers. *)
  match
    Negotiate.on_packet session
      (Negotiate.request_packet ~fid:9 ~seq:0 Activermt_apps.Counter.service)
  with
  | `Stale -> ()
  | _ -> Alcotest.fail "expected `Stale after settlement"

(* -- The qcheck property -------------------------------------------------

   For any seeded fault profile that loses less than every packet, a
   retrying negotiation against a real controller through the faulty
   fabric terminates with Granted / Rejected / Timeout (the simulation
   drains — it cannot hang), and the switch never holds more than one
   allocation for the FID no matter how many retries were absorbed. *)

let negotiate_under_faults ~drop ~duplicate ~corrupt ~ctl_fail ~seed =
  let profile =
    {
      Faults.drop;
      duplicate;
      corrupt;
      jitter_s = 1e-4;
      flap_period_s = 0.0;
      flap_down_s = 0.0;
      table_update_slowdown = 1.0;
      table_update_fail = ctl_fail;
    }
  in
  let engine = Engine.create () in
  let controller = Controller.create (Rmt.Device.create params) in
  let faults = Faults.create ~seed profile in
  let fabric = Fabric.create ~faults ~engine ~controller () in
  let session =
    Negotiate.session ~seed ~fid:1 Activermt_apps.Counter.service
  in
  let send pkt =
    Fabric.send fabric
      { Fabric.src = 10; dst = Fabric.switch_address; payload = Fabric.Active pkt; trace = None }
  in
  Fabric.attach fabric 10 (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active pkt -> ignore (Negotiate.on_packet session pkt)
      | Fabric.Alloc_failed -> Negotiate.on_alloc_failed session
      | _ -> ());
  let rec pump () =
    match Negotiate.tick session ~now:(Engine.now engine) ~send with
    | `Wait dt -> Engine.schedule engine ~delay:dt pump
    | `Done _ -> ()
  in
  Negotiate.start session ~now:0.0 ~send;
  pump ();
  Engine.run ~until:300.0 engine;
  (session, controller)

let prop_negotiation_terminates_cleanly =
  QCheck.Test.make ~name:"negotiation under faults: clean outcome, one allocation"
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         map
           (fun (((d, u), (c, f)), seed) ->
             ( float_of_int d /. 1000.0,
               float_of_int u /. 1000.0,
               float_of_int c /. 1000.0,
               float_of_int f /. 1000.0,
               seed ))
           (pair
              (pair
                 (pair (int_range 0 900) (int_range 0 300))
                 (pair (int_range 0 300) (int_range 0 500)))
              (int_range 0 1_000_000))))
    (fun (drop, duplicate, corrupt, ctl_fail, seed) ->
      let session, controller =
        negotiate_under_faults ~drop ~duplicate ~corrupt ~ctl_fail ~seed
      in
      let settled = Negotiate.outcome session <> None in
      let budget_respected =
        Negotiate.attempts session <= Negotiate.default_backoff.Negotiate.max_attempts
      in
      let allocations =
        List.length
          (List.filter (( = ) 1) (Allocator.resident (Controller.allocator controller)))
      in
      settled && budget_respected && allocations <= 1)

(* -- End-to-end chaos scenario ------------------------------------------- *)

let test_chaos_recovers_at_5pct_loss () =
  let r =
    Chaos.run
      {
        Chaos.default_config with
        Chaos.services = 6;
        words = 16;
        seed = 1234;
        profile = Faults.lossy ~drop:0.05 ();
      }
  in
  Alcotest.(check int) "every service completes" 6 r.Chaos.completed;
  Alcotest.(check bool) "loss actually happened" true (r.Chaos.fault_events > 0)

let test_chaos_baseline_documents_failure () =
  let cfg =
    {
      Chaos.default_config with
      Chaos.services = 6;
      words = 16;
      seed = 1234;
      retries = false;
      profile = Faults.lossy ~drop:0.2 ();
    }
  in
  let r = Chaos.run cfg in
  Alcotest.(check bool) "fire-once loses services under 20% loss" true
    (r.Chaos.completion < 1.0)

(* A dropped capsule's trace must end in a [fault.drop] event whose
   attributes name the faulty link — the whole point of the flight
   recorder is that loss is attributable, not silent.  Duplicates stay
   off so every drop is genuinely the end of its causal branch. *)
let test_chaos_traces_attribute_drops () =
  let tracer = Trace.create () in
  let r =
    Chaos.run ~tracer
      {
        Chaos.default_config with
        Chaos.services = 6;
        words = 16;
        seed = 1234;
        profile = Faults.lossy ~drop:0.05 ~corrupt:0.02 ();
      }
  in
  Alcotest.(check bool) "faults actually fired" true (r.Chaos.fault_events > 0);
  let evs = Trace.events tracer in
  let drops = List.filter (fun e -> e.Trace.name = "fault.drop") evs in
  Alcotest.(check bool) "some dropped capsule was traced" true (drops <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool) "drop names its link" true
        (List.mem_assoc "link" d.Trace.attrs);
      Alcotest.(check bool) "drop names its cause" true
        (List.mem_assoc "cause" d.Trace.attrs);
      Alcotest.(check bool) "drop is trace-terminal" true
        (not
           (List.exists
              (fun e ->
                e.Trace.trace_id = d.Trace.trace_id
                && e.Trace.parent_span_id = d.Trace.span_id)
              evs)))
    drops

(* Simulated time must not depend on the machine: the provisioning delay
   is the modeled part only, so the same seed replays the same fault
   draws at the same instants (the CLI's faultsim profile). *)
let test_chaos_replays_from_seed () =
  let cfg =
    {
      Chaos.default_config with
      Chaos.seed = 42;
      profile =
        {
          (Faults.lossy ~drop:0.05 ~duplicate:0.02 ~corrupt:0.01 ()) with
          Faults.table_update_fail = 0.1;
        };
    }
  in
  let run () =
    let r = Chaos.run ~telemetry:(Telemetry.create ()) cfg in
    let events =
      List.map
        (fun e -> (e.Faults.time, Faults.kind_to_string e.Faults.kind))
        (Faults.events r.Chaos.faults)
    in
    let counts =
      [
        r.Chaos.completed;
        r.Chaos.negotiation_attempts;
        r.Chaos.negotiation_retries;
        r.Chaos.sync_packets;
        r.Chaos.sync_retransmits;
        r.Chaos.fallback_words;
        r.Chaos.fault_events;
      ]
    in
    let outcomes =
      List.map (fun (fid, o) -> (fid, Chaos.outcome_to_string o)) r.Chaos.outcomes
    in
    (events, counts, outcomes, r.Chaos.sim_time_s)
  in
  let ev1, c1, o1, t1 = run () in
  let ev2, c2, o2, t2 = run () in
  Alcotest.(check bool) "control failures fired" true
    (List.exists (fun (_, k) -> k = "ctl_fail") ev1);
  Alcotest.(check (list (pair (float 0.0) string))) "same fault trace" ev1 ev2;
  Alcotest.(check (list int)) "same outcome counts" c1 c2;
  Alcotest.(check (list (pair int string))) "same outcomes" o1 o2;
  Alcotest.(check (float 0.0)) "same sim time" t1 t2

(* -- Fleet migration under faults ---------------------------------------- *)

let fill_pattern state =
  List.mapi
    (fun k (stage, words) ->
      (stage, Array.mapi (fun i _ -> (1000 * (k + 1)) + i) words))
    state

let test_fleet_migration_under_faults () =
  let tel = Telemetry.create () in
  let fleet =
    Fleet.create
      ~faults:(Faults.lossy ~drop:0.3 ~duplicate:0.1 ())
      ~faults_seed:4242 ~telemetry:tel
      (Topology.full_mesh ~switches:2 ~latency_s:1e-5)
  in
  let src =
    match Fleet.admit fleet ~fid:1 Activermt_apps.Counter.service with
    | Ok sw -> sw
    | Error `No_capacity -> Alcotest.fail "admission failed"
  in
  let state = fill_pattern (Fleet.read_state fleet ~fid:1) in
  Fleet.write_state fleet ~fid:1 state;
  let dst = 1 - src in
  (match Fleet.migrate fleet ~fid:1 ~dst with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "migration failed under loss");
  Alcotest.(check (option int)) "placed at dst, once" (Some dst)
    (Fleet.switch_of fleet ~fid:1);
  Alcotest.(check (list (pair int int))) "exactly one residency" [ (1, dst) ]
    (Fleet.residents fleet);
  let recovered = Fleet.read_state fleet ~fid:1 in
  List.iteri
    (fun k (_, words) ->
      let _, expect = List.nth state k in
      Alcotest.(check (array int))
        (Printf.sprintf "region %d state survived the lossy drain" k)
        expect words)
    recovered;
  (* And a failure drill on top: the dead switch's resident re-places
     on the survivor without losing the FID. *)
  let { Fleet.relocated; lost } = Fleet.fail_switch fleet ~sw:dst in
  Alcotest.(check (list (pair int int))) "relocated to survivor" [ (1, src) ]
    relocated;
  Alcotest.(check (list int)) "nothing lost" [] lost

let () =
  Alcotest.run "faults"
    [
      ( "wire",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "single-byte flips rejected" `Quick
            test_checksum_rejects_any_single_byte_flip;
          Alcotest.test_case "short frame" `Quick test_unframe_short;
          QCheck_alcotest.to_alcotest prop_wire_trace_roundtrip;
        ] );
      ( "model",
        [
          Alcotest.test_case "deterministic" `Quick test_faults_deterministic;
          Alcotest.test_case "flap square wave" `Quick test_faults_flap_square_wave;
          Alcotest.test_case "none profile is free" `Quick test_faults_none_is_free;
          Alcotest.test_case "validation" `Quick test_faults_validation;
          Alcotest.test_case "cost-model degrade" `Quick test_cost_model_degrade;
        ] );
      ( "idempotence",
        [
          Alcotest.test_case "duplicate request" `Quick
            test_duplicate_request_idempotent;
          Alcotest.test_case "duplicate memsync reply" `Quick
            test_memsync_duplicate_reply_idempotent;
          Alcotest.test_case "memsync attempt budget" `Quick
            test_memsync_attempt_budget;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff growth" `Quick test_negotiate_backoff_growth;
          QCheck_alcotest.to_alcotest prop_negotiation_terminates_cleanly;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "chaos recovers at 5% loss" `Quick
            test_chaos_recovers_at_5pct_loss;
          Alcotest.test_case "fire-once baseline fails" `Quick
            test_chaos_baseline_documents_failure;
          Alcotest.test_case "dropped capsules attributed in traces" `Quick
            test_chaos_traces_attribute_drops;
          Alcotest.test_case "chaos replays from its seed" `Quick
            test_chaos_replays_from_seed;
          Alcotest.test_case "fleet migration under faults" `Quick
            test_fleet_migration_under_faults;
        ] );
    ]
