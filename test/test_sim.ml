(* Tests for the discrete-event engine and the switch fabric. *)

module Engine = Netsim.Engine
module Fabric = Netsim.Fabric
module Telemetry = Activermt_telemetry.Telemetry
module Faults = Netsim.Faults
module Controller = Activermt_control.Controller
module Negotiate = Activermt_client.Negotiate
module Pkt = Activermt.Packet

let params = Rmt.Params.default

(* -- Engine -------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:0.3 (fun () -> log := 3 :: !log);
  Engine.schedule e ~delay:0.1 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:0.2 (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  Engine.schedule e ~delay:2.5 (fun () -> seen := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "clock at event" 2.5 !seen

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref false and at_limit = ref false in
  Engine.schedule e ~delay:5.0 (fun () -> fired := true);
  Engine.schedule e ~delay:6.0 ignore;
  Engine.schedule e ~delay:1.0 (fun () -> at_limit := true);
  Engine.run ~until:1.0 e;
  Alcotest.(check bool) "event at the limit fires" true !at_limit;
  Alcotest.(check bool) "future event pending" false !fired;
  Alcotest.(check (float 1e-9)) "clock clamped" 1.0 (Engine.now e);
  Alcotest.(check int) "still queued" 2 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "fires later" true !fired;
  Engine.run ~until:9.0 e;
  Alcotest.(check (float 1e-9)) "empty queue runs to the limit" 9.0 (Engine.now e)

(* A limit below the clock must not move it back, queue or no queue:
   an event scheduled after such a stop would otherwise fire before
   events that already fired. *)
let test_engine_until_below_now () =
  let e = Engine.create () in
  let log = ref [] in
  let at time = Engine.schedule_at e ~time (fun () -> log := Engine.now e :: !log) in
  at 5.0;
  at 10.0;
  Engine.run ~until:6.0 e;
  Engine.run ~until:2.0 e;
  Alcotest.(check (float 1e-9)) "clock kept" 6.0 (Engine.now e);
  Engine.schedule e ~delay:1.0 (fun () -> log := Engine.now e :: !log);
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "fire times never decrease" [ 5.0; 7.0; 10.0 ]
    (List.rev !log);
  Engine.run ~until:3.0 e;
  Alcotest.(check (float 1e-9)) "empty queue keeps the clock" 10.0 (Engine.now e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "outer" :: !log;
      Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 2.0 (Engine.now e)

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun () ->
      Engine.schedule e ~delay:(-5.0) (fun () ->
          Alcotest.(check bool) "not in the past" true (Engine.now e >= 1.0)));
  Engine.run e

(* A fired thunk must not stay reachable from the queue.  The queue
   empties here, the case where a heap that only shrinks its size would
   keep the last popped event. *)
let test_engine_releases_fired_thunks () =
  let e = Engine.create () in
  let released = ref false in
  let[@inline never] schedule_tracked () =
    let count = ref 0 in
    let thunk () = incr count in
    Gc.finalise (fun _ -> released := true) thunk;
    Engine.schedule e ~delay:1.0 thunk
  in
  schedule_tracked ();
  Alcotest.(check bool) "fired" true (Engine.step e);
  Gc.full_major ();
  Alcotest.(check bool) "released" true !released;
  (* The engine itself stays live across the collection. *)
  Alcotest.(check int) "queue empty" 0 (Engine.pending e)

(* A value pushed onto a lane must not stay reachable from the engine
   once its event fired: the lane refills the fired cell with its
   [none]. *)
let test_engine_lane_releases_fired () =
  let e = Engine.create () in
  let released = ref false and got = ref 0 in
  let lane = Engine.lane e ~delay:1.0 ~none:(ref 0) (fun r -> got := !r) in
  let[@inline never] push_tracked () =
    let value = ref 7 in
    Gc.finalise (fun _ -> released := true) value;
    Engine.push lane value
  in
  push_tracked ();
  Alcotest.(check bool) "fired" true (Engine.step e);
  Alcotest.(check int) "handler got the value" 7 !got;
  Gc.full_major ();
  Alcotest.(check bool) "released" true !released;
  (* The engine and the lane stay live across the collection. *)
  Engine.push lane (ref 8);
  Engine.run e;
  Alcotest.(check int) "lane still runs" 8 !got;
  Alcotest.(check int) "queue empty" 0 (Engine.pending e)

(* Random programs against a sorted-list model of the (time, seq) order.
   Top-level actions schedule events or run the engine up to a limit,
   and an event schedules its [kids] when it fires.  Relative delays are
   drawn from a small set, so the engine's lanes of thunks fill, with
   more distinct delays than there are lanes, so the heap takes the
   rest; negative, NaN and infinite delays and times go to the heap.
   [Lane k] pushes onto the k-th of [n_lanes] lanes made per run, more
   than the engine's slots, so pushes that find no slot take the heap
   too.  Limits often lie below the clock, which must then stay put.
   Times are multiples of 0.25, so equal times are common. *)
type how = Delay | Lane of int | At

type op = { how : how; t : float; kids : op list }

type action = Schedule of op | Until of float

let rec pp_op { how; t; kids } =
  let how =
    match how with Delay -> "+" | Lane k -> Printf.sprintf "lane%d+" k | At -> "@"
  in
  Printf.sprintf "%s%g[%s]" how t (String.concat ";" (List.map pp_op kids))

let pp_action = function
  | Schedule op -> pp_op op
  | Until limit -> Printf.sprintf "until %g" limit

let quarter lo hi = QCheck.Gen.map (fun k -> 0.25 *. float_of_int k) (QCheck.Gen.int_range lo hi)

(* The lanes a run makes, and lane [k]'s delay. *)
let n_lanes = 12
let lane_delay k = 0.25 *. float_of_int k

let gen_delay =
  QCheck.Gen.frequency
    [
      (12, quarter 0 3);
      (6, quarter 4 15);
      (1, QCheck.Gen.return (-1.0));
      (1, QCheck.Gen.return Float.nan);
      (1, QCheck.Gen.return Float.infinity);
    ]

let gen_time =
  QCheck.Gen.frequency
    [ (8, quarter (-4) 40); (1, QCheck.Gen.return Float.nan); (1, QCheck.Gen.return Float.infinity) ]

let gen_actions =
  let open QCheck.Gen in
  let rec op depth =
    let* how =
      frequency
        [
          (3, return Delay);
          (2, map (fun k -> Lane k) (int_range 0 (n_lanes - 1)));
          (1, return At);
        ]
    in
    let* t =
      match how with
      | At -> gen_time
      | Delay -> gen_delay
      | Lane k -> return (lane_delay k)
    in
    let+ kids =
      if depth = 0 then return [] else list_size (int_range 0 3) (op (depth - 1))
    in
    { how; t; kids }
  in
  let action =
    frequency
      [ (5, map (fun op -> Schedule op) (op 2)); (1, map (fun l -> Until l) (quarter (-4) 40)) ]
  in
  list_size (int_range 0 40) action

(* What fired, as (id, time), and after each [Until] the clock and the
   number of events still pending. *)
type trace = { fired : (int * float) list; stops : (float * int) list }

let model actions =
  let clock = ref 0.0 and next = ref 0 and pending = ref [] in
  let fired = ref [] and stops = ref [] in
  let schedule op =
    let time = match op.how with At -> op.t | Delay | Lane _ -> !clock +. op.t in
    let time = if time > !clock then time else !clock in
    pending := (time, !next, op) :: !pending;
    incr next
  in
  let by_time_seq (t1, s1, _) (t2, s2, _) = compare (t1, s1) (t2, s2) in
  let rec fire_until limit =
    match List.sort by_time_seq !pending with
    | (time, id, op) :: rest when time <= limit ->
      pending := rest;
      clock := time;
      fired := (id, time) :: !fired;
      List.iter schedule op.kids;
      fire_until limit
    | _ -> ()
  in
  List.iter
    (function
      | Schedule op -> schedule op
      | Until limit ->
        fire_until limit;
        if limit > !clock then clock := limit;
        stops := (!clock, List.length !pending) :: !stops)
    actions;
  fire_until Float.infinity;
  { fired = List.rev !fired; stops = List.rev !stops }

let simulate actions =
  let e = Engine.create () in
  let next = ref 0 and fired = ref [] and stops = ref [] and lanes = ref [||] in
  let rec fire (id, op) =
    fired := (id, Engine.now e) :: !fired;
    List.iter schedule op.kids
  and schedule op =
    let id = !next in
    incr next;
    match op.how with
    | Delay -> Engine.schedule e ~delay:op.t (fun () -> fire (id, op))
    | Lane k -> Engine.push !lanes.(k) (id, op)
    | At -> Engine.schedule_at e ~time:op.t (fun () -> fire (id, op))
  in
  let none = (-1, { how = Delay; t = 0.0; kids = [] }) in
  lanes := Array.init n_lanes (fun k -> Engine.lane e ~delay:(lane_delay k) ~none fire);
  List.iter
    (function
      | Schedule op -> schedule op
      | Until limit ->
        Engine.run ~until:limit e;
        stops := (Engine.now e, Engine.pending e) :: !stops)
    actions;
  Engine.run e;
  { fired = List.rev !fired; stops = List.rev !stops }

let prop_engine_order =
  QCheck.Test.make ~name:"events fire in (time, seq) order" ~count:300
    (QCheck.make
       ~print:(fun actions -> String.concat " " (List.map pp_action actions))
       gen_actions)
    (fun actions -> simulate actions = model actions)

(* -- Fabric -------------------------------------------------------------- *)

let make_world () =
  let engine = Engine.create () in
  let controller = Controller.create ~mode:`Interactive (Rmt.Device.create params) in
  let fabric = Fabric.create ~engine ~controller () in
  (engine, controller, fabric)

let test_fabric_request_response () =
  let engine, _controller, fabric = make_world () in
  let got = ref None in
  Fabric.attach fabric 10 (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active pkt -> got := Negotiate.granted_regions pkt
      | _ -> ());
  Fabric.send fabric
    { Fabric.src = 10;
      dst = Fabric.switch_address;
      payload =
        Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service); trace = None };
  Engine.run engine;
  (match !got with
  | Some regions ->
    Alcotest.(check int) "three stages granted" 3
      (Array.fold_left (fun n r -> if r <> None then n + 1 else n) 0 regions)
  | None -> Alcotest.fail "no response delivered");
  Alcotest.(check bool) "provisioning takes time" true (Engine.now engine > 0.02)

let test_fabric_exec_and_rts () =
  let engine, _controller, fabric = make_world () in
  let regions = ref None in
  Fabric.attach fabric 10 (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active pkt -> (
        match Negotiate.granted_regions pkt with
        | Some r -> regions := Some r
        | None -> ())
      | _ -> ());
  Fabric.attach fabric 20 (fun _ -> ());
  Fabric.send fabric
    { Fabric.src = 10;
      dst = Fabric.switch_address;
      payload =
        Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service); trace = None };
  Engine.run engine;
  let cc =
    match
      Activermt_client.Cache_client.create params
        ~policy:Activermt_compiler.Mutant.Most_constrained ~fid:1
        ~regions:(Option.get !regions)
    with
    | Ok cc -> cc
    | Error e -> Alcotest.fail e
  in
  let key = Workload.Kv.key_of_rank 3 in
  (* Populate through the fabric: RTS ack comes back to the client. *)
  let acked = ref false in
  Fabric.attach fabric 10 (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active { Pkt.payload = Pkt.Exec _; _ } -> acked := true
      | _ -> ());
  Fabric.send fabric
    { Fabric.src = 10;
      dst = 20;
      payload = Fabric.Active (Activermt_client.Cache_client.populate_packet cc ~seq:1 key ~value:5); trace = None };
  Engine.run engine;
  Alcotest.(check bool) "populate acked via RTS" true !acked;
  (* Query through the fabric: hit returns to client, not the server. *)
  let hit = ref false and at_server = ref false in
  Fabric.attach fabric 10 (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active { Pkt.payload = Pkt.Exec _; _ } -> hit := true
      | _ -> ());
  Fabric.attach fabric 20 (fun _ -> at_server := true);
  Fabric.send fabric
    { Fabric.src = 10;
      dst = 20;
      payload = Fabric.Active (Activermt_client.Cache_client.query_packet cc ~seq:2 key); trace = None };
  Engine.run engine;
  Alcotest.(check bool) "hit returned" true !hit;
  Alcotest.(check bool) "server bypassed" false !at_server

let test_fabric_uninstalled_fid_forwards () =
  let engine, _controller, fabric = make_world () in
  let at_server = ref false in
  Fabric.attach fabric 20 (fun _ -> at_server := true);
  let pkt =
    Pkt.exec ~flags:Pkt.no_flags
      ~fid:77 ~seq:0 ~args:[||] Activermt_apps.Cache.query_program
  in
  Fabric.send fabric { Fabric.src = 10; dst = 20; payload = Fabric.Active pkt; trace = None };
  Engine.run engine;
  Alcotest.(check bool) "plain forwarding" true !at_server

let test_fabric_transit_payloads () =
  let engine, _controller, fabric = make_world () in
  let got = ref 0 in
  Fabric.attach fabric 30 (fun _ -> incr got);
  Fabric.send fabric
    { Fabric.src = 10;
      dst = 30;
      payload = Fabric.Kv_request { key = Workload.Kv.key_of_rank 1 }; trace = None };
  Fabric.send fabric
    { Fabric.src = 10;
      dst = 30;
      payload = Fabric.Kv_reply { key = Workload.Kv.key_of_rank 1; value = 2 }; trace = None };
  Engine.run engine;
  Alcotest.(check int) "both delivered" 2 !got

let test_fabric_drop_accounting () =
  let engine, _controller, fabric = make_world () in
  Fabric.attach fabric 10 (fun _ -> ());
  Fabric.attach fabric 20 (fun _ -> Alcotest.fail "dropped packet delivered");
  (* Admit a cache, then send it a program that DROPs. *)
  Fabric.send fabric
    { Fabric.src = 10;
      dst = Fabric.switch_address;
      payload =
        Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service); trace = None };
  Engine.run engine;
  let dropper =
    Activermt.Program.v
      (Activermt.Program.plain [ Activermt.Instr.Drop; Activermt.Instr.Return ])
  in
  Fabric.send fabric
    { Fabric.src = 10;
      dst = 20;
      payload =
        Fabric.Active (Pkt.exec ~flags:Pkt.no_flags ~fid:1 ~seq:0 ~args:[||] dropper);
      trace = None };
  Engine.run engine;
  Alcotest.(check int) "one drop counted" 1 (Fabric.stats_drops fabric)

let test_fabric_release () =
  let engine, controller, fabric = make_world () in
  Fabric.attach fabric 10 (fun _ -> ());
  Fabric.send fabric
    { Fabric.src = 10;
      dst = Fabric.switch_address;
      payload =
        Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service); trace = None };
  Engine.run engine;
  Alcotest.(check bool) "installed" true
    (Activermt.Table.installed (Controller.tables controller) ~fid:1);
  Fabric.send fabric
    { Fabric.src = 10;
      dst = Fabric.switch_address;
      payload = Fabric.Active (Negotiate.release_packet ~fid:1); trace = None };
  Engine.run engine;
  Alcotest.(check bool) "released" false
    (Activermt.Table.installed (Controller.tables controller) ~fid:1)

(* A cache capsule for a FID whose tables are removed after its program
   was compiled, without the departure that would evict the JIT's
   closures: the switch must treat it as an unknown FID, forwarding it as
   plain traffic after the wire latency, its args untouched and nothing
   executed. *)
let test_fabric_removed_fid_forwards () =
  let engine, controller, fabric = make_world () in
  let regions = ref None in
  Fabric.attach fabric 10 (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active pkt -> regions := Negotiate.granted_regions pkt
      | _ -> ());
  Fabric.send fabric
    (Fabric.msg ~src:10 ~dst:Fabric.switch_address
       (Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service)));
  Engine.run engine;
  let cc =
    match
      Activermt_client.Cache_client.create params
        ~policy:Activermt_compiler.Mutant.Most_constrained ~fid:1
        ~regions:(Option.get !regions)
    with
    | Ok cc -> cc
    | Error e -> Alcotest.fail e
  in
  let key = Workload.Kv.key_of_rank 3 in
  let query seq = Activermt_client.Cache_client.query_packet cc ~seq key in
  let arrivals = ref [] in
  Fabric.attach fabric 20 (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active pkt -> arrivals := (Engine.now engine, pkt) :: !arrivals
      | _ -> ());
  Fabric.send fabric (Fabric.msg ~src:10 ~dst:20 (Fabric.Active (query 1)));
  Engine.run engine;
  (* A hit on the compiled query, answered without asking the tables. *)
  let hits () =
    let h, _, _, _ = Activermt.Jit.stats (Fabric.jit fabric) in
    h
  in
  let hits0 = hits () in
  Alcotest.(check bool) "compiled" true
    (Activermt.Jit.run_into (Fabric.jit fabric) (Activermt.Jit.outcome ()) ~src:10 ~dst:20
       (query 1)
    && hits () = hits0 + 1);
  Activermt.Table.remove (Controller.tables controller) ~fid:1;
  let stats = Activermt.Jit.stats (Fabric.jit fabric) in
  let pkt = query 2 in
  let args_of (p : Pkt.t) =
    match p.Pkt.payload with Pkt.Exec { args; _ } -> args | _ -> [||]
  in
  let args = Array.copy (args_of pkt) in
  arrivals := [];
  let t0 = Engine.now engine in
  Fabric.send fabric (Fabric.msg ~src:10 ~dst:20 (Fabric.Active pkt));
  Engine.run engine;
  (match !arrivals with
  | [ (t, got) ] ->
    Alcotest.(check (float 1e-12)) "after two wire latencies" (t0 +. 10.0e-6) t;
    Alcotest.(check bool) "the same capsule" true (got == pkt);
    Alcotest.(check (array int)) "args untouched" args (args_of got)
  | l -> Alcotest.failf "%d arrivals at the destination" (List.length l));
  Alcotest.(check bool) "nothing executed" true
    (Activermt.Jit.stats (Fabric.jit fabric) = stats)

(* One capsule stream through two fabrics over twin devices, one traced
   at sample 1.0 and one untraced: a traced capsule must take the same
   switch step as an untraced one.  Both sides deliver the same messages
   (source, destination, args), drop as many capsules, leave the same
   register words and the same JIT stats; the traced side records the
   step's spans and instants as well.  The stream covers a first
   compile, hits, an RTS, a forward, a drop and a FID without tables. *)
let test_traced_step_matches_untraced () =
  let module Trace = Activermt_telemetry.Trace in
  let module Cache_client = Activermt_client.Cache_client in
  let world tracer =
    let engine = Engine.create () in
    let device = Rmt.Device.create params in
    let controller = Controller.create device in
    let fabric = Fabric.create ~tracer ~engine ~controller () in
    let delivered = ref [] in
    List.iter
      (fun addr ->
        Fabric.attach fabric addr (fun m ->
            match m.Fabric.payload with
            | Fabric.Active { Pkt.payload = Pkt.Exec { args; _ }; _ } ->
              delivered := (m.Fabric.src, m.Fabric.dst, Array.copy args) :: !delivered
            | _ -> ()))
      [ 10; 20 ];
    let request = Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service in
    let regions =
      match Controller.handle_request controller request with
      | Ok p -> Option.get (Negotiate.granted_regions p.Controller.response)
      | Error _ -> Alcotest.fail "cache admission"
    in
    let cc =
      match
        Cache_client.create params ~policy:Activermt_compiler.Mutant.Most_constrained
          ~fid:1 ~regions
      with
      | Ok cc -> cc
      | Error e -> Alcotest.fail e
    in
    (engine, device, fabric, cc, delivered)
  in
  let traced = Trace.create ~sample:1.0 () in
  let sides = [ (world traced, Some traced); (world Trace.noop, None) ] in
  let dropper =
    Activermt.Program.v
      (Activermt.Program.plain [ Activermt.Instr.Drop; Activermt.Instr.Return ])
  in
  let stream cc =
    let key rank = Workload.Kv.key_of_rank rank in
    [
      Cache_client.populate_packet cc ~seq:1 (key 3) ~value:5;
      Cache_client.query_packet cc ~seq:2 (key 3);
      Cache_client.query_packet cc ~seq:3 (key 3);
      Cache_client.query_packet cc ~seq:4 (key 4);
      Pkt.exec ~flags:Pkt.no_flags ~fid:1 ~seq:5 ~args:[| 0; 0; 0; 0 |] dropper;
      Pkt.exec ~flags:Pkt.no_flags ~fid:77 ~seq:6 ~args:[| 1; 2; 3; 4 |]
        Activermt_apps.Cache.query_program;
    ]
  in
  let run ((engine, device, fabric, cc, delivered), tracer) =
    List.iter
      (fun pkt ->
        let trace = Option.bind tracer (fun tr -> Trace.start_trace tr "test.capsule") in
        Fabric.send fabric { Fabric.src = 10; dst = 20; payload = Fabric.Active pkt; trace };
        Engine.run engine)
      (stream cc);
    ( List.rev !delivered,
      Fabric.stats_drops fabric,
      Array.map
        (fun (st : Rmt.Device.stage) ->
          Bytes.copy st.Rmt.Device.regs.Rmt.Register_array.data)
        (Rmt.Device.stages device),
      Activermt.Jit.stats (Fabric.jit fabric) )
  in
  match List.map run sides with
  | [ (t_msgs, t_drops, t_regs, t_stats); (u_msgs, u_drops, u_regs, u_stats) ] ->
    Alcotest.(check (list (triple int int (array int)))) "delivered messages" u_msgs t_msgs;
    Alcotest.(check bool) "an RTS and a forward" true
      (List.exists (fun (_, dst, _) -> dst = 10) u_msgs
      && List.exists (fun (_, dst, _) -> dst = 20) u_msgs);
    Alcotest.(check int) "one drop each" 1 u_drops;
    Alcotest.(check int) "drops" u_drops t_drops;
    Alcotest.(check bool) "register words" true (u_regs = t_regs);
    let hits, _, compiles, _ = u_stats in
    Alcotest.(check bool) "compiled, then hit" true (compiles > 0 && hits > 0);
    Alcotest.(check bool) "JIT stats" true (u_stats = t_stats);
    let names = List.map (fun e -> e.Trace.name) (Trace.events traced) in
    List.iter
      (fun name -> Alcotest.(check bool) (name ^ " recorded") true (List.mem name names))
      [ "device.exec"; "jit.compile"; "device.result"; "device.drop" ]
  | _ -> assert false

(* The fabric's per-address records and their direct-mapped slots, over
   random sequences of attaches (re-attaching an address, and addresses
   equal modulo the slot count), default handlers, transit sends from
   attached and unattached sources, and engine steps.  Each message must
   reach the handler attached to its destination when it arrives, or the
   default handler, and every [sim.node.<a>.tx]/[rx] counter must equal
   a reference tally. *)
type fabric_op =
  | Attach of int
  | Attach_default
  | Send of int * int
  | Steps of int

let show_fabric_op = function
  | Attach a -> Printf.sprintf "attach %d" a
  | Attach_default -> "attach_default"
  | Send (src, dst) -> Printf.sprintf "send %d->%d" src dst
  | Steps k -> Printf.sprintf "steps %d" k

let fabric_op_gen =
  let open QCheck.Gen in
  let slots = Stdx.Slots.size in
  let addr = oneofl [ 1; 2; 3; 1 + slots; 2 + slots; 1 + (2 * slots); 5 + slots ] in
  frequency
    [
      (3, map (fun a -> Attach a) addr);
      (1, return Attach_default);
      (6, map2 (fun src dst -> Send (src, dst)) addr addr);
      (3, map (fun k -> Steps k) (int_range 1 4));
    ]

let fabric_matches_model ops =
  let tel = Telemetry.create () in
  let engine = Engine.create ~telemetry:tel () in
  let controller =
    Controller.create ~mode:`Interactive ~telemetry:tel (Rmt.Device.create params)
  in
  let fabric = Fabric.create ~telemetry:tel ~engine ~controller () in
  let attached = Hashtbl.create 8 and default = ref None in
  let tally = Hashtbl.create 16 in
  let count name = Hashtbl.replace tally name (1 + Option.value ~default:0 (Hashtbl.find_opt tally name)) in
  let next_id = ref 0 and ok = ref true in
  (* Handler [id]; [addr] is [None] for a default handler. *)
  let handler ?addr id msg =
    let want =
      match Hashtbl.find_opt attached msg.Fabric.dst with
      | Some h -> Some h
      | None -> !default
    in
    if want <> Some id then ok := false;
    match addr with
    | Some a -> if a = msg.Fabric.dst then count (Printf.sprintf "sim.node.%d.rx" a) else ok := false
    | None -> ()
  in
  let fresh () =
    incr next_id;
    !next_id
  in
  List.iter
    (function
      | Attach a ->
        let id = fresh () in
        Hashtbl.replace attached a id;
        Fabric.attach fabric a (handler ~addr:a id)
      | Attach_default ->
        let id = fresh () in
        default := Some id;
        Fabric.attach_default fabric (handler id)
      | Send (src, dst) ->
        count (Printf.sprintf "sim.node.%d.tx" src);
        Fabric.send fabric
          (Fabric.msg ~src ~dst (Fabric.Kv_request { key = Workload.Kv.key_of_rank 1 }))
      | Steps k ->
        for _ = 1 to k do
          ignore (Engine.step engine)
        done)
    ops;
  Engine.run engine;
  let want = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []) in
  let got =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"sim.node." name)
      (Telemetry.counters tel)
  in
  !ok && got = want

let prop_fabric_slots =
  QCheck.Test.make ~name:"handlers and node counts = reference" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_fabric_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) fabric_op_gen))
    fabric_matches_model

module Memsync_driver = Activermt_client.Memsync_driver

let test_memsync_driver_over_lossy_fabric () =
  (* The allocation is negotiated over a fault-free fabric.  The 200-index
     write and the read that follows run over a second fabric on the same
     engine and controller that drops 30% of deliveries, capsules and
     replies alike: the retransmission loop still completes both, and the
     read returns every value. *)
  let engine = Engine.create () in
  let controller = Controller.create (Rmt.Device.create params) in
  let control = Fabric.create ~engine ~controller () in
  Fabric.attach control 10 (fun _ -> ());
  Fabric.send control
    { Fabric.src = 10;
      dst = Fabric.switch_address;
      payload =
        Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service); trace = None };
  Engine.run engine;
  let stages =
    Option.get (Activermt_control.Controller.regions_packet controller ~fid:1)
    |> Negotiate.granted_regions |> Option.get
    |> fun regions ->
    Array.to_list
      (Array.of_list
         (List.filteri (fun _ _ -> true)
            (List.concat
               (List.mapi
                  (fun s r -> match r with Some _ -> [ s ] | None -> [])
                  (Array.to_list regions)))))
  in
  let faults = Faults.create ~seed:77 (Faults.lossy ~drop:0.3 ()) in
  let fabric = Fabric.create ~faults ~engine ~controller () in
  let count = 200 in
  let run_driver driver =
    let send ~seq:_ pkt =
      Fabric.send fabric { Fabric.src = 10; dst = 20; payload = Fabric.Active pkt; trace = None }
    in
    Fabric.attach fabric 10 (fun msg ->
        match msg.Fabric.payload with
        | Fabric.Active { Pkt.payload = Pkt.Exec { args; _ }; seq; _ } ->
          ignore (Memsync_driver.on_reply driver ~seq ~args)
        | _ -> ());
    Memsync_driver.start driver ~now:(Engine.now engine) ~send;
    Engine.run engine;
    let rounds = ref 0 in
    while (not (Memsync_driver.is_done driver)) && !rounds < 50 do
      incr rounds;
      (* advance past the timeout, then retransmit *)
      Engine.schedule engine ~delay:0.01 (fun () -> ());
      Engine.run engine;
      ignore (Memsync_driver.tick driver ~now:(Engine.now engine) ~send);
      Engine.run engine
    done;
    Alcotest.(check bool) "completed under loss" true (Memsync_driver.is_done driver)
  in
  let writer =
    Memsync_driver.create ~fid:1 ~stages ~count ~timeout_s:0.005
      (Memsync_driver.Write (fun index -> List.map (fun s -> (100 * s) + index) stages))
  in
  run_driver writer;
  Alcotest.(check bool) "writes were retransmitted" true
    (Memsync_driver.attempts writer > count);
  let reader =
    Memsync_driver.create ~fid:1 ~stages ~count ~timeout_s:0.005 Memsync_driver.Read
  in
  run_driver reader;
  let values = Memsync_driver.values reader in
  List.iteri
    (fun k s ->
      for index = 0 to count - 1 do
        Alcotest.(check int)
          (Printf.sprintf "stage %d index %d" s index)
          ((100 * s) + index)
          values.(k).(index)
      done)
    stages;
  Alcotest.(check bool) "loss actually occurred" true (Faults.injected faults > 0)

(* The registry reads an engine's and a fabric's counts through sources
   that hold neither: both are collected once dropped, and their counts
   still read back.  The node's handler closes over the fabric, as a
   client's does, so a source that held a handler would keep the fabric
   alive.  A transit request takes two events, one hop to the switch and
   one on to its node. *)
let[@inline never] run_and_drop tel =
  let engine = Engine.create ~telemetry:tel () in
  let controller =
    Controller.create ~mode:`Interactive ~telemetry:tel (Rmt.Device.create params)
  in
  let fabric = Fabric.create ~telemetry:tel ~engine ~controller () in
  Fabric.attach fabric 30 (fun _ -> ignore (Sys.opaque_identity fabric));
  Fabric.send fabric
    (Fabric.msg ~src:10 ~dst:30 (Fabric.Kv_request { key = Workload.Kv.key_of_rank 1 }));
  Engine.run engine;
  let engine_w = Weak.create 1 and fabric_w = Weak.create 1 in
  Weak.set engine_w 0 (Some engine);
  Weak.set fabric_w 0 (Some fabric);
  (engine_w, fabric_w)

let test_sources_release_components () =
  let tel = Telemetry.create () in
  let engine_w, fabric_w = run_and_drop tel in
  Gc.full_major ();
  Alcotest.(check bool) "engine collected" false (Weak.check engine_w 0);
  Alcotest.(check bool) "fabric collected" false (Weak.check fabric_w 0);
  Alcotest.(check (list (pair string int)))
    "counts read back"
    [
      ("sim.events.processed", 2);
      ("sim.events.scheduled", 2);
      ("sim.node.10.tx", 1);
      ("sim.node.30.rx", 1);
      ("sim.packets.delivered", 1);
      ("sim.packets.sent", 1);
    ]
    (List.filter
       (fun (name, _) -> String.starts_with ~prefix:"sim." name)
       (Telemetry.counters tel));
  Alcotest.(check (option (float 0.0))) "queue depth" (Some 0.0)
    (Telemetry.gauge_value tel "sim.queue_depth")

(* -- Allocation budget ----------------------------------------------------- *)

(* Minor-heap words of a closed loop of cache capsules: one cache tenant
   keeps [depth] capsules in flight over 256 hot keys, one in ten a populate;
   a query that misses goes on to a server node, which answers through
   the switch.  The engine's steps are split as perfbench's probe splits
   them: a step that reached a node handler is a deliver step, any other
   a switch step, and a handler's own words (the server's reply
   included) are not its step's.  The counts depend on the binary and
   the work, not on the host, so they are exact from run to run. *)
type cache_words = {
  per_reply : float;
  per_switch_step : float;
  per_deliver_step : float;
}

let words () = int_of_float (Gc.minor_words ())

let cache_words ~depth ~warmup ~measured =
  let tel = Telemetry.create () in
  let engine = Engine.create ~telemetry:tel () in
  let controller =
    Controller.create ~mode:`Interactive ~telemetry:tel (Rmt.Device.create params)
  in
  let fabric = Fabric.create ~telemetry:tel ~engine ~controller () in
  let client = 10 and server = 20 in
  let regions = ref None in
  Fabric.attach fabric client (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Active pkt -> regions := Negotiate.granted_regions pkt
      | _ -> ());
  Fabric.send fabric
    (Fabric.msg ~src:client ~dst:Fabric.switch_address
       (Fabric.Active (Negotiate.request_packet ~fid:1 ~seq:0 Activermt_apps.Cache.service)));
  Engine.run engine;
  let cc =
    match
      Activermt_client.Cache_client.create params
        ~policy:Activermt_compiler.Mutant.Most_constrained ~fid:1
        ~regions:(Option.get !regions)
    with
    | Ok cc -> cc
    | Error e -> Alcotest.fail e
  in
  let keys = Array.init 256 Workload.Kv.key_of_rank in
  let reply_key = Workload.Kv.key_of_rank 0 in
  let in_flight = ref 0 and replies = ref 0 and next = ref 0 in
  let delivered = ref false and handler_words = ref 0 in
  let handler f msg =
    delivered := true;
    let w0 = words () in
    f msg;
    handler_words := !handler_words + (words () - w0)
  in
  Fabric.attach fabric client
    (handler (fun _ ->
         decr in_flight;
         incr replies));
  Fabric.attach fabric server
    (handler (fun msg ->
         match msg.Fabric.payload with
         | Fabric.Active pkt ->
           Fabric.send fabric
             (Fabric.msg ~src:server ~dst:msg.Fabric.src
                (Fabric.Kv_reply { key = reply_key; value = pkt.Pkt.seq }))
         | _ -> ()));
  let switch_steps = ref 0 and switch_words = ref 0 in
  let deliver_steps = ref 0 and deliver_words = ref 0 in
  let step () =
    delivered := false;
    handler_words := 0;
    let w0 = words () in
    ignore (Engine.step engine);
    let w = words () - w0 - !handler_words in
    if !delivered then begin
      incr deliver_steps;
      deliver_words := !deliver_words + w
    end
    else begin
      incr switch_steps;
      switch_words := !switch_words + w
    end
  in
  let run n =
    let target = !replies + n in
    while !replies < target do
      while !in_flight < depth do
        let i = !next in
        next := i + 1;
        let key = keys.((i * 37) land 255) in
        let pkt =
          if i mod 10 = 0 then
            Activermt_client.Cache_client.populate_packet cc ~seq:i key ~value:i
          else Activermt_client.Cache_client.query_packet cc ~seq:i key
        in
        incr in_flight;
        Fabric.inject fabric (Fabric.msg ~src:client ~dst:server (Fabric.Active pkt))
      done;
      step ()
    done
  in
  run warmup;
  switch_steps := 0;
  switch_words := 0;
  deliver_steps := 0;
  deliver_words := 0;
  let w0 = words () in
  run measured;
  let per n d = float_of_int n /. float_of_int (max 1 d) in
  {
    per_reply = per (words () - w0) measured;
    per_switch_step = per !switch_words !switch_steps;
    per_deliver_step = per !deliver_words !deliver_steps;
  }

(* Each budget is read at two depths: 16 capsules in flight, and 4,096
   (capsule-mix's), where the lanes grow and the queue is deep. *)
let cache_readings =
  lazy
    (List.map
       (fun depth -> (depth, cache_words ~depth ~warmup:10_000 ~measured:20_000))
       [ 16; 4096 ])

let check_budget what words budget =
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words <= %g per %s" words budget what)
    true (words <= budget)

let check_budgets what reading budget =
  List.iter
    (fun (depth, r) ->
      check_budget (Printf.sprintf "%s at depth %d" what depth) (reading r) (budget depth))
    (Lazy.force cache_readings)

(* Dev and release read 24.00 at depth 16 and 24.01 at depth 4,096. *)
let test_cache_capsule_budget () =
  check_budgets "reply" (fun r -> r.per_reply) (fun depth -> if depth <= 16 then 24.0 else 25.0)

(* The switch step executes a capsule on its own args and pushes the same
   message back or on, onto one of the fabric's lanes: it allocates
   nothing.  Dev and release read 0.00 at both depths. *)
let test_switch_step_budget () =
  check_budgets "switch step" (fun r -> r.per_switch_step) (fun _ -> 0.0)

let test_deliver_step_budget () =
  check_budgets "deliver step" (fun r -> r.per_deliver_step) (fun _ -> 0.0)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "same-time FIFO" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "clock" `Quick test_engine_clock_advances;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "run until below now" `Quick test_engine_until_below_now;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_clamped;
          Alcotest.test_case "fired thunks released" `Quick
            test_engine_releases_fired_thunks;
          Alcotest.test_case "fired lane values released" `Quick
            test_engine_lane_releases_fired;
          QCheck_alcotest.to_alcotest prop_engine_order;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "request/response" `Quick test_fabric_request_response;
          Alcotest.test_case "exec + RTS" `Quick test_fabric_exec_and_rts;
          Alcotest.test_case "uninstalled fid" `Quick test_fabric_uninstalled_fid_forwards;
          Alcotest.test_case "fid removed after compiling" `Quick
            test_fabric_removed_fid_forwards;
          QCheck_alcotest.to_alcotest prop_fabric_slots;
          Alcotest.test_case "transit payloads" `Quick test_fabric_transit_payloads;
          Alcotest.test_case "drop accounting" `Quick test_fabric_drop_accounting;
          Alcotest.test_case "traced step = untraced step" `Quick
            test_traced_step_matches_untraced;
          Alcotest.test_case "memsync over loss" `Quick test_memsync_driver_over_lossy_fabric;
          Alcotest.test_case "release" `Quick test_fabric_release;
          Alcotest.test_case "sources hold no component" `Quick
            test_sources_release_components;
        ] );
      ( "budget",
        [
          Alcotest.test_case "words per cache reply" `Quick test_cache_capsule_budget;
          Alcotest.test_case "words per switch step" `Quick test_switch_step_budget;
          Alcotest.test_case "words per deliver step" `Quick test_deliver_step_budget;
        ] );
    ]
