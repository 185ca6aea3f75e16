(* Tests for the discrete-event engine and the switch fabric. *)

module Engine = Netsim.Engine
module Fabric = Netsim.Fabric
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

(* Random schedule / schedule_at programs against a sorted-list model of
   the (time, seq) order.  Times are multiples of 0.5, so equal times are
   common and all arithmetic is exact; negative values exercise the
   clamp to now, and [kids] are scheduled by the event when it fires. *)
type op = { absolute : bool; t : float; kids : op list }

let rec pp_op { absolute; t; kids } =
  Printf.sprintf "%s%g[%s]" (if absolute then "@" else "+") t
    (String.concat ";" (List.map pp_op kids))

let gen_ops =
  let open QCheck.Gen in
  let rec op depth =
    map3
      (fun absolute t kids -> { absolute; t = 0.5 *. float_of_int t; kids })
      bool (int_range (-2) 6)
      (if depth = 0 then return [] else list_size (int_range 0 3) (op (depth - 1)))
  in
  list_size (int_range 0 40) (op 2)

let model ops =
  let clock = ref 0.0 and next = ref 0 and pending = ref [] and fired = ref [] in
  let schedule op =
    let time = if op.absolute then op.t else !clock +. op.t in
    pending := (Float.max time !clock, !next, op) :: !pending;
    incr next
  in
  List.iter schedule ops;
  while !pending <> [] do
    let by_time_seq (t1, s1, _) (t2, s2, _) = compare (t1, s1) (t2, s2) in
    match List.sort by_time_seq !pending with
    | [] -> ()
    | (time, id, op) :: rest ->
      pending := rest;
      clock := time;
      fired := (id, time) :: !fired;
      List.iter schedule op.kids
  done;
  List.rev !fired

let simulate ops =
  let e = Engine.create () in
  let next = ref 0 and fired = ref [] in
  let rec schedule op =
    let id = !next in
    incr next;
    let thunk () =
      fired := (id, Engine.now e) :: !fired;
      List.iter schedule op.kids
    in
    if op.absolute then Engine.schedule_at e ~time:op.t thunk
    else Engine.schedule e ~delay:op.t thunk
  in
  List.iter schedule ops;
  Engine.run e;
  List.rev !fired

let prop_engine_order =
  QCheck.Test.make ~name:"events fire in (time, seq) order" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat " " (List.map pp_op ops)) gen_ops)
    (fun ops -> simulate ops = model ops)

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
    Pkt.exec ~fid:77 ~seq:0 ~args:[||] Activermt_apps.Cache.query_program
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
      payload = Fabric.Active (Pkt.exec ~fid:1 ~seq:0 ~args:[||] dropper); trace = None };
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

module Memsync_driver = Activermt_client.Memsync_driver

let test_memsync_driver_over_lossy_fabric () =
  (* 30% data-plane loss: the retransmission loop still completes a
     200-index write and a subsequent read returns every value. *)
  let engine = Engine.create () in
  let controller = Controller.create (Rmt.Device.create params) in
  let fabric =
    Fabric.create ~loss_rate:0.3 ~loss_seed:77 ~engine ~controller ()
  in
  Fabric.attach fabric 10 (fun _ -> ());
  Fabric.send fabric
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
  Alcotest.(check bool) "loss actually occurred" true (Fabric.stats_lost fabric > 0)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "same-time FIFO" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "clock" `Quick test_engine_clock_advances;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_clamped;
          Alcotest.test_case "fired thunks released" `Quick
            test_engine_releases_fired_thunks;
          QCheck_alcotest.to_alcotest prop_engine_order;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "request/response" `Quick test_fabric_request_response;
          Alcotest.test_case "exec + RTS" `Quick test_fabric_exec_and_rts;
          Alcotest.test_case "uninstalled fid" `Quick test_fabric_uninstalled_fid_forwards;
          Alcotest.test_case "transit payloads" `Quick test_fabric_transit_payloads;
          Alcotest.test_case "drop accounting" `Quick test_fabric_drop_accounting;
          Alcotest.test_case "memsync over loss" `Quick test_memsync_driver_over_lossy_fabric;
          Alcotest.test_case "release" `Quick test_fabric_release;
        ] );
    ]
