open Import
module Engine = Netsim.Engine
module Fabric = Netsim.Fabric
module Faults = Netsim.Faults
module Negotiate = Activermt_client.Negotiate
module Memsync_driver = Activermt_client.Memsync_driver

type config = {
  services : int;
  words : int;
  seed : int;
  retries : bool;
  profile : Faults.profile;
  horizon_s : float;
  jit : bool;
}

let default_config =
  {
    services = 16;
    words = 48;
    seed = 0xC4A05;
    retries = true;
    profile = Faults.lossy ~drop:0.01 ();
    horizon_s = 120.0;
    jit = true;
  }

type outcome = Synced | Fallback | Rejected | Timeout | Incomplete

let outcome_to_string = function
  | Synced -> "synced"
  | Fallback -> "fallback"
  | Rejected -> "rejected"
  | Timeout -> "timeout"
  | Incomplete -> "incomplete"

type result = {
  outcomes : (int * outcome) list;
  completed : int;
  completion : float;
  negotiation_attempts : int;
  negotiation_retries : int;
  sync_packets : int;
  sync_retransmits : int;
  fallback_words : int;
  fault_events : int;
  sim_time_s : float;
  faults : Faults.t;
}

(* Per-service protocol state, driven entirely by simulation events. *)
type state =
  | Negotiating
  | Syncing
  | St_synced
  | St_fell_back
  | St_rejected
  | St_timed_out

type service = {
  fid : int;
  addr : Fabric.address;
  session : Negotiate.session;
  mutable state : state;
  mutable stage : int;
  mutable driver : Memsync_driver.t option;
}

(* The inelastic service mix: placements never move once granted, so a
   chaos run isolates fault recovery from elastic reallocation. *)
let kind_of i =
  match i mod 3 with
  | 0 -> Churn.Flow_counter
  | 1 -> Churn.Load_balancer
  | _ -> Churn.Heavy_hitter

let expected_word ~fid index = (fid * 1000) + index

let run ?(telemetry = Telemetry.default) ?(tracer = Trace.noop) cfg =
  if cfg.services <= 0 then invalid_arg "Chaos.run: services must be positive";
  if cfg.words <= 0 then invalid_arg "Chaos.run: words must be positive";
  if cfg.horizon_s <= 0.0 then invalid_arg "Chaos.run: horizon must be positive";
  let engine = Engine.create ~telemetry () in
  if Trace.enabled tracer then Trace.set_clock tracer (fun () -> Engine.now engine);
  let controller =
    let device = Rmt.Device.create Rmt.Params.default in
    let cost =
      if cfg.profile.Faults.table_update_slowdown > 1.0 then
        Some
          (Cost_model.degrade Cost_model.default
             ~slowdown:cfg.profile.Faults.table_update_slowdown)
      else None
    in
    Controller.create ?cost ~mode:`Auto ~telemetry ~tracer device
  in
  let faults = Faults.create ~seed:cfg.seed ~telemetry cfg.profile in
  let fabric = Fabric.create ~faults ~jit:cfg.jit ~telemetry ~tracer ~engine ~controller () in
  let sink = 200 in
  Fabric.attach fabric sink (fun _ -> ());
  let backoff =
    if cfg.retries then Negotiate.default_backoff else Negotiate.no_retry
  in
  let fallback_words = ref 0 in
  (* Capsules carry their protocol session's trace context, so fabric
     hops and fault verdicts chain under the [negotiate.session] /
     [memsync.sync] roots; [inject] head-samples any capsule that does
     not already belong to a trace. *)
  let nego_send svc pkt =
    Fabric.inject fabric
      {
        Fabric.src = svc.addr;
        dst = Fabric.switch_address;
        payload = Fabric.Active pkt;
        trace = Negotiate.trace svc.session;
      }
  in
  let sync_send svc ~seq:_ pkt =
    Fabric.inject fabric
      {
        Fabric.src = svc.addr;
        dst = sink;
        payload = Fabric.Active pkt;
        trace = Option.bind svc.driver Memsync_driver.trace;
      }
  in
  let fall_back svc driver =
    let survivors = Memsync_driver.unacked driver in
    List.iter
      (fun index ->
        ignore
          (Controller.write_region_word controller ~fid:svc.fid ~stage:svc.stage
             ~index ~value:(expected_word ~fid:svc.fid index)))
      survivors;
    fallback_words := !fallback_words + List.length survivors;
    Telemetry.incr telemetry "chaos.fallback_words"
      ~by:(List.length survivors);
    svc.state <- St_fell_back;
    Telemetry.add telemetry ~at:(Engine.now engine) "chaos.completed";
    Telemetry.add telemetry ~at:(Engine.now engine) "chaos.fallbacks"
  in
  let rec pump_sync svc () =
    match (svc.state, svc.driver) with
    | Syncing, Some driver ->
      if Memsync_driver.is_done driver then begin
        svc.state <- St_synced;
        Telemetry.add telemetry ~at:(Engine.now engine) "chaos.completed"
      end
      else if
        Memsync_driver.exhausted driver = Memsync_driver.outstanding driver
      then
        (* Nothing left that the driver may retransmit. *)
        if cfg.retries then fall_back svc driver else svc.state <- St_timed_out
      else begin
        ignore
          (Memsync_driver.tick driver ~now:(Engine.now engine)
             ~send:(sync_send svc));
        Engine.schedule engine ~delay:0.02 (pump_sync svc)
      end
    | _ -> ()
  in
  let on_granted svc regions =
    if svc.state = Negotiating then begin
      let stage = ref (-1) in
      Array.iteri
        (fun s r -> if !stage < 0 && r <> None then stage := s)
        regions;
      if !stage < 0 then svc.state <- St_rejected
      else begin
        svc.stage <- !stage;
        let driver =
          if cfg.retries then
            Memsync_driver.create ~multiplier:2.0 ~max_timeout_s:0.32
              ~jitter:0.1 ~max_attempts:16
              ~seed:(cfg.seed lxor 0x5ca1ab1e) ~tracer ~fid:svc.fid
              ~stages:[ !stage ] ~count:cfg.words ~timeout_s:0.02
              (Memsync_driver.Write
                 (fun index -> [ expected_word ~fid:svc.fid index ]))
          else
            Memsync_driver.create ~max_attempts:1 ~tracer ~fid:svc.fid
              ~stages:[ !stage ] ~count:cfg.words ~timeout_s:0.02
              (Memsync_driver.Write
                 (fun index -> [ expected_word ~fid:svc.fid index ]))
        in
        svc.driver <- Some driver;
        svc.state <- Syncing;
        Memsync_driver.start driver ~now:(Engine.now engine)
          ~send:(sync_send svc);
        Engine.schedule engine ~delay:0.02 (pump_sync svc)
      end
    end
  in
  let rec pump_nego svc () =
    if svc.state = Negotiating then
      match
        Negotiate.tick svc.session ~now:(Engine.now engine)
          ~send:(nego_send svc)
      with
      | `Wait dt -> Engine.schedule engine ~delay:dt (pump_nego svc)
      | `Done (Negotiate.Granted regions) -> on_granted svc regions
      | `Done Negotiate.Rejected -> svc.state <- St_rejected
      | `Done Negotiate.Timeout ->
        svc.state <- St_timed_out;
        Telemetry.incr telemetry "chaos.negotiation_timeouts"
  in
  let services =
    Array.init cfg.services (fun i ->
        let fid = i + 1 in
        {
          fid;
          addr = 100 + fid;
          session =
            Negotiate.session ~backoff ~seed:cfg.seed ~tracer ~fid
              (Harness.app_of_kind (kind_of i));
          state = Negotiating;
          stage = -1;
          driver = None;
        })
  in
  Array.iter
    (fun svc ->
      Fabric.attach fabric svc.addr (fun msg ->
          match msg.Fabric.payload with
          | Fabric.Active
              ({ Activermt.Packet.payload = Activermt.Packet.Response _; _ } as
               pkt) -> (
            match Negotiate.on_packet svc.session pkt with
            | `Granted regions -> on_granted svc regions
            | `Rejected -> if svc.state = Negotiating then svc.state <- St_rejected
            | `Stale | `Ignored -> ())
          | Fabric.Alloc_failed ->
            Negotiate.on_alloc_failed svc.session;
            if svc.state = Negotiating then svc.state <- St_rejected
          | Fabric.Active
              { Activermt.Packet.payload = Activermt.Packet.Exec { args; _ };
                seq;
                _;
              } -> (
            match svc.driver with
            | Some driver ->
              ignore (Memsync_driver.on_reply driver ~seq ~args)
            | None -> ())
          | _ -> ());
      (* Stagger arrivals so retry bursts don't synchronize. *)
      Engine.schedule engine
        ~delay:(0.05 *. float_of_int (svc.fid - 1))
        (fun () ->
          Telemetry.add telemetry ~at:(Engine.now engine) "chaos.services";
          Negotiate.start svc.session ~now:(Engine.now engine)
            ~send:(nego_send svc);
          pump_nego svc ()))
    services;
  Engine.run ~until:cfg.horizon_s engine;
  (* Verify service state end-to-end: a service only counts as complete
     if every word is actually present in its switch region. *)
  let verified svc =
    match Controller.read_region controller ~fid:svc.fid ~stage:svc.stage with
    | None -> false
    | Some words ->
      Array.length words >= cfg.words
      && begin
           let ok = ref true in
           for i = 0 to cfg.words - 1 do
             if words.(i) <> expected_word ~fid:svc.fid i then ok := false
           done;
           !ok
         end
  in
  let completed = ref 0 in
  let outcomes =
    Array.to_list
      (Array.map
         (fun svc ->
           let o =
             match svc.state with
             | St_synced -> if verified svc then Synced else Incomplete
             | St_fell_back -> if verified svc then Fallback else Incomplete
             | St_rejected -> Rejected
             | St_timed_out -> Timeout
             | Negotiating -> Timeout
             | Syncing -> Incomplete
           in
           (match o with Synced | Fallback -> incr completed | _ -> ());
           (svc.fid, o))
         services)
  in
  let nego_attempts =
    Array.fold_left (fun acc s -> acc + Negotiate.attempts s.session) 0 services
  in
  let sync_packets =
    Array.fold_left
      (fun acc s ->
        acc + match s.driver with None -> 0 | Some d -> Memsync_driver.attempts d)
      0 services
  in
  let first_sends =
    Array.fold_left
      (fun acc s -> acc + match s.driver with None -> 0 | Some _ -> cfg.words)
      0 services
  in
  Telemetry.set_gauge telemetry "chaos.completion"
    (float_of_int !completed /. float_of_int cfg.services);
  {
    outcomes;
    completed = !completed;
    completion = float_of_int !completed /. float_of_int cfg.services;
    negotiation_attempts = nego_attempts;
    negotiation_retries = nego_attempts - cfg.services;
    sync_packets;
    sync_retransmits = max 0 (sync_packets - first_sends);
    fallback_words = !fallback_words;
    fault_events = Faults.injected faults;
    sim_time_s = Engine.now engine;
    faults;
  }
