open Import
module Pool = Activermt_alloc.Pool
module Runtime = Activermt.Runtime
module Jit = Activermt.Jit

type node = {
  sw : Topology.switch_id;
  controller : Controller.t;
  fabric : Fabric.t;
  faults : Faults.t option;
}

(* A service waiting in the fleet's global admission queue: drained in
   batches into per-switch provision queues (Controller.enqueue_request /
   Controller.drain) instead of one handle_request per service. *)
type pending_admission = {
  pa_fid : int;
  pa_app : App.t;
  pa_client : Fabric.address option;
  pa_tenant : int option;
  mutable pa_tried : Topology.switch_id list;
}

type t = {
  topo : Topology.t;
  engine : Engine.t;
  policy : Placement.policy;
  nodes : node array;
  down : bool array;
  residency : (int, Topology.switch_id) Hashtbl.t;
  apps : (int, App.t) Hashtbl.t;
  clients : (int, Fabric.address) Hashtbl.t;
  shims : (int, Shim.t) Hashtbl.t;
  admissions : pending_admission Queue.t;
  tenants : Tenant.t option;
  memsync_word_budget : int;
  (* Incrementally maintained per-switch load caches — admission at
     planet scale must not rescan every allocator per decision.  Only
     the switch a bind/depart touches is refreshed ([touch_switch]);
     [committed] tracks the sum of residents' minimum block demands, a
     safe lower bound used to skip certainly-full switches during
     hierarchical placement (elastic residents can shrink, so raw free
     blocks would over-prune). *)
  util : float array;
  nres : int array;
  committed : int array;
  cap_blocks : int;  (* per-switch capacity in blocks *)
  mutable up_sum : float;
  mutable up_count : int;
  tel : Telemetry.t;
  bridged : Telemetry.counter;
  series : Timeseries.t;
  tracer : Trace.t;
}

let sw_counter i name = Printf.sprintf "fleet.sw.%d.%s" i name

(* Refresh one switch's cached load after its pool changed, and the
   fleet-wide occupancy gauge from the running aggregates. *)
let touch_switch t sw =
  let u = Allocator.utilization (Controller.allocator t.nodes.(sw).controller) in
  let old = t.util.(sw) in
  t.util.(sw) <- u;
  Telemetry.set_gauge t.tel (sw_counter sw "utilization") u;
  if not t.down.(sw) then t.up_sum <- t.up_sum -. old +. u;
  Telemetry.set_gauge t.tel "fleet.occupancy"
    (if t.up_count = 0 then 0.0
     else Float.max 0.0 t.up_sum /. float_of_int t.up_count)

(* Bridge a message that surfaced at switch [from] but is destined for a
   node behind another switch: one link hop toward the target, then into
   the neighbour fabric (whose own switch processing applies — transit
   switches forward FIDs they don't host as plain traffic). *)
let route t ~from msg =
  let unroutable () =
    Telemetry.incr t.tel "fleet.unroutable";
    match msg.Fabric.trace with
    | Some ctx when Trace.enabled t.tracer ->
      ignore
        (Trace.instant t.tracer ctx
           ~attrs:
             [
               ("cause", "unroutable");
               ("switch", string_of_int from);
               ("dst", string_of_int msg.Fabric.dst);
             ]
           "fault.drop")
    | Some _ | None -> ()
  in
  let target =
    if msg.Fabric.dst < Array.length t.nodes then Some msg.Fabric.dst
    else Topology.home_of t.topo ~client:msg.Fabric.dst
  in
  match target with
  | None -> unroutable ()
  | Some target -> (
    match Topology.next_hop t.topo ~src:from ~dst:target with
    | None -> unroutable ()
    | Some hop ->
      if t.down.(hop) then unroutable ()
      else begin
        Telemetry.bump t.bridged;
        let msg =
          match msg.Fabric.trace with
          | Some ctx when Trace.enabled t.tracer ->
            let child =
              Trace.instant t.tracer ctx
                ~attrs:
                  [
                    ("switch", string_of_int from);
                    ("link", Printf.sprintf "%d->%d" from hop);
                  ]
                "fleet.bridge"
            in
            { msg with Fabric.trace = Some child }
          | Some _ | None -> msg
        in
        Engine.schedule t.engine
          ~delay:(Topology.latency t.topo ~src:from ~dst:hop)
          (fun () -> Fabric.send t.nodes.(hop).fabric msg)
      end)

let create ?(policy = Placement.Least_loaded) ?scheme ?(params = Rmt.Params.default)
    ?wire_latency_s ?(memsync_word_budget = 4096) ?faults
    ?(faults_seed = 0xF1EE7) ?jit ?tenants ?(telemetry = Telemetry.default)
    ?(series = Timeseries.noop) ?(tracer = Trace.noop) topo =
  if memsync_word_budget < 0 then
    invalid_arg "Fleet.create: memsync_word_budget must be non-negative";
  let faults =
    match faults with
    | Some p when not (Faults.is_none p) -> Some p
    | Some _ | None -> None
  in
  let n = Topology.switches topo in
  let engine = Engine.create ~telemetry () in
  if Trace.enabled tracer then Trace.set_clock tracer (fun () -> Engine.now engine);
  let nodes =
    Array.init n (fun sw ->
        let device = Rmt.Device.create params in
        (* Every switch draws from its own PRNG stream so adding a switch
           doesn't shift another's fault schedule. *)
        let node_faults =
          Option.map
            (fun p ->
              Faults.create ~seed:(faults_seed + (sw * 7919)) ~telemetry p)
            faults
        in
        let cost =
          Option.bind faults (fun p ->
              if p.Faults.table_update_slowdown > 1.0 then
                Some
                  (Cost_model.degrade Cost_model.default
                     ~slowdown:p.Faults.table_update_slowdown)
              else None)
        in
        let controller =
          Controller.create ?scheme ?cost ~mode:`Auto ~telemetry:telemetry
            ~series ~tracer device
        in
        let fabric =
          Fabric.create ~address:sw ?wire_latency_s ?faults:node_faults
            ?jit ~telemetry ~tracer ~engine ~controller ()
        in
        { sw; controller; fabric; faults = node_faults })
  in
  let t =
    {
      topo;
      engine;
      policy;
      nodes;
      down = Array.make n false;
      residency = Hashtbl.create 64;
      apps = Hashtbl.create 64;
      clients = Hashtbl.create 64;
      shims = Hashtbl.create 64;
      admissions = Queue.create ();
      tenants;
      memsync_word_budget;
      util = Array.make n 0.0;
      nres = Array.make n 0;
      committed = Array.make n 0;
      cap_blocks =
        Allocator.total_blocks (Controller.allocator nodes.(0).controller);
      up_sum = 0.0;
      up_count = n;
      tel = telemetry;
      bridged = Telemetry.counter telemetry "fleet.bridged";
      series;
      tracer;
    }
  in
  (* Anything not attached locally bridges toward its home switch — one
     fallback closure per fabric instead of one per (fabric, address). *)
  Array.iteri
    (fun s node ->
      Fabric.attach_default node.fabric (fun msg -> route t ~from:s msg);
      Telemetry.set_gauge t.tel (sw_counter s "up") 1.0;
      touch_switch t s)
    nodes;
  t

let n_switches t = Array.length t.nodes
let topology t = t.topo
let policy t = t.policy
let engine t = t.engine
let tracer t = t.tracer

let node t ~sw =
  if sw < 0 || sw >= Array.length t.nodes then
    invalid_arg "Fleet: switch out of range";
  t.nodes.(sw)

let controller t ~sw = (node t ~sw).controller
let fabric t ~sw = (node t ~sw).fabric

let is_up t ~sw =
  if sw < 0 || sw >= Array.length t.nodes then
    invalid_arg "Fleet.is_up: switch out of range";
  not t.down.(sw)

let loads t =
  List.init (Array.length t.nodes) (fun i ->
      {
        Placement.switch = i;
        utilization = t.util.(i);
        residents = t.nres.(i);
        up = not t.down.(i);
      })

let attach_client t ~client ~home handler =
  if client < Array.length t.nodes then
    invalid_arg "Fleet.attach_client: client address collides with a switch id";
  Topology.home t.topo ~client home;
  (* Only the home fabric needs the handler; every other fabric's
     default node already bridges unknown addresses toward home. *)
  Fabric.attach t.nodes.(home).fabric client handler

let inject t ~client msg =
  match Topology.home_of t.topo ~client with
  | None -> invalid_arg "Fleet.inject: unknown client"
  | Some home -> Fabric.inject t.nodes.(home).fabric msg

let shim_step t ~fid ev =
  match Hashtbl.find_opt t.shims fid with
  | None -> ()
  | Some shim -> ignore (Shim.transition shim ev)

(* Try the service at one specific switch's controller; true on commit. *)
let admit_at ?trace t ~sw ~fid app =
  let request = Negotiate.request_packet ~fid ~seq:0 app in
  match Controller.handle_request ?trace t.nodes.(sw).controller request with
  | Ok _provision -> true
  | Error (`Rejected _) | Error (`Bad_packet _) -> false

let app_charge (app : App.t) = Array.fold_left ( + ) 0 app.App.demand_blocks

let bind_placement t ~fid ~sw =
  Hashtbl.replace t.residency fid sw;
  (match Hashtbl.find_opt t.clients fid with
  | Some owner -> Fabric.register_fid t.nodes.(sw).fabric ~fid ~owner
  | None -> ());
  (match Hashtbl.find_opt t.apps fid with
  | Some app ->
    t.committed.(sw) <- t.committed.(sw) + app_charge app;
    t.nres.(sw) <- t.nres.(sw) + 1
  | None -> ());
  touch_switch t sw

let unbind_placement t ~fid ~sw =
  Hashtbl.remove t.residency fid;
  (match Hashtbl.find_opt t.apps fid with
  | Some app ->
    t.committed.(sw) <- max 0 (t.committed.(sw) - app_charge app);
    t.nres.(sw) <- max 0 (t.nres.(sw) - 1)
  | None -> ());
  touch_switch t sw

let pods_arg t =
  let np = Topology.n_pods t.topo in
  if np <= 1 then None
  else Some ((fun sw -> Topology.pod_of t.topo ~sw), np)

(* Lazy hierarchical candidate stream: pods round-robin from the
   service's start pod (client home's pod, else [fid mod pods] so
   anonymous arrivals spread deterministically), switches first-fit
   within each pod, skipping any switch whose committed minimum demand
   already rules the service out.  Nothing is materialized and no
   allocator is touched until a candidate is actually tried, which is
   what keeps placement cost sub-linear in fleet size. *)
let hier_seq t ~home ~fid ~demand : Topology.switch_id Seq.t =
  let viable sw =
    (not t.down.(sw)) && t.committed.(sw) + demand <= t.cap_blocks
  in
  let np = Topology.n_pods t.topo in
  let start =
    match home with
    | Some h -> Topology.pod_of t.topo ~sw:h
    | None -> fid mod np
  in
  Seq.concat_map
    (fun k ->
      let pod = (start + k) mod np in
      Topology.pod_members t.topo ~pod |> List.to_seq |> Seq.filter viable)
    (Seq.init np Fun.id)

let candidate_seq ?loads:l t ~home ~fid ~demand : Topology.switch_id Seq.t =
  match t.policy with
  | Placement.Hierarchical when Topology.n_pods t.topo > 1 ->
    hier_seq t ~home ~fid ~demand
  | _ ->
    let l = match l with Some l -> l | None -> loads t in
    List.to_seq (Placement.order ?pods:(pods_arg t) t.policy ~home l)

let admit t ?client ~fid app =
  if Hashtbl.mem t.residency fid then
    invalid_arg (Printf.sprintf "Fleet.admit: fid %d already placed" fid);
  Telemetry.with_span t.tel "fleet.place" @@ fun () ->
  let root =
    Trace.start_trace t.tracer ~attrs:[ ("fid", string_of_int fid) ]
      "fleet.admit"
  in
  let home = Option.bind client (fun c -> Topology.home_of t.topo ~client:c) in
  let candidates = candidate_seq t ~home ~fid ~demand:(app_charge app) in
  let rec go tried seq =
    match Seq.uncons seq with
    | None ->
      Telemetry.incr t.tel "fleet.rejected";
      Timeseries.add t.series "fleet.rejected";
      (match root with
      | Some ctx ->
        ignore
          (Trace.instant t.tracer ctx
             ~attrs:[ ("tried", string_of_int tried) ]
             "fleet.rejected")
      | None -> ());
      Error `No_capacity
    | Some (sw, rest) ->
      let trace =
        Option.map
          (fun ctx ->
            Trace.instant t.tracer ctx
              ~attrs:[ ("switch", string_of_int sw) ]
              "fleet.try")
          root
      in
      if admit_at ?trace t ~sw ~fid app then begin
        Hashtbl.replace t.apps fid app;
        (match client with
        | Some c -> Hashtbl.replace t.clients fid c
        | None -> ());
        let shim = Shim.create ~fid in
        ignore (Shim.transition shim Shim.Request_sent);
        ignore (Shim.transition shim Shim.Response_granted);
        Hashtbl.replace t.shims fid shim;
        bind_placement t ~fid ~sw;
        Telemetry.incr t.tel "fleet.admitted";
        Telemetry.incr t.tel (sw_counter sw "admitted");
        Timeseries.add t.series "fleet.admitted";
        Timeseries.add t.series (sw_counter sw "admitted");
        if tried > 0 then begin
          Telemetry.incr t.tel "fleet.spillover";
          Timeseries.add t.series "fleet.spillover"
        end;
        (match trace with
        | Some ctx ->
          ignore
            (Trace.instant t.tracer ctx
               ~attrs:
                 [
                   ("switch", string_of_int sw);
                   ("spillover", string_of_bool (tried > 0));
                 ]
               "fleet.placed")
        | None -> ());
        Ok sw
      end
      else go (tried + 1) rest
  in
  go 0 candidates

let forget t ~fid =
  Hashtbl.remove t.residency fid;
  Hashtbl.remove t.apps fid;
  Hashtbl.remove t.clients fid;
  Hashtbl.remove t.shims fid;
  match t.tenants with
  | Some reg -> Tenant.unbind reg ~fid
  | None -> ()

(* {2 Batched global admission}

   The epoch-admission path at fleet scope (ROADMAP item 1's remaining
   stretch): services are enqueued globally, then [drain_admissions]
   routes each round's backlog to its best placement candidate and
   drains every touched switch's provision queue through
   [Controller.drain] — one batched table-write session per switch per
   epoch — rather than one synchronous [handle_request] per service.
   Rejected services spill over to the next candidate switch on the
   following round. *)

let tenant_registry t = t.tenants

let pa_charge pa = Array.fold_left ( + ) 0 pa.pa_app.App.demand_blocks

let enqueue_admission t ?client ?tenant ~fid app =
  if Hashtbl.mem t.residency fid then
    invalid_arg
      (Printf.sprintf "Fleet.enqueue_admission: fid %d already placed" fid);
  (match (tenant, t.tenants) with
  | Some tn, Some reg -> Tenant.bind reg ~fid ~tenant:tn
  | Some _, None ->
    invalid_arg "Fleet.enqueue_admission: no tenant registry configured"
  | None, _ -> ());
  Queue.add
    { pa_fid = fid; pa_app = app; pa_client = client; pa_tenant = tenant;
      pa_tried = [] }
    t.admissions;
  Telemetry.incr t.tel "fleet.adm.enqueued"

let admission_queue_depth t = Queue.length t.admissions

let commit_admission t pa ~sw =
  Hashtbl.replace t.apps pa.pa_fid pa.pa_app;
  (match pa.pa_client with
  | Some c -> Hashtbl.replace t.clients pa.pa_fid c
  | None -> ());
  let shim = Shim.create ~fid:pa.pa_fid in
  ignore (Shim.transition shim Shim.Request_sent);
  ignore (Shim.transition shim Shim.Response_granted);
  Hashtbl.replace t.shims pa.pa_fid shim;
  bind_placement t ~fid:pa.pa_fid ~sw;
  (match (pa.pa_tenant, t.tenants) with
  | Some _, Some reg ->
    let stages =
      match
        Allocator.regions_of (Controller.allocator t.nodes.(sw).controller)
          ~fid:pa.pa_fid
      with
      | Some regions -> List.map (fun sr -> sr.Allocator.stage) regions
      | None -> []
    in
    Tenant.charge reg ~fid:pa.pa_fid ~blocks:(pa_charge pa) ~stages
  | _ -> ());
  Telemetry.incr t.tel "fleet.admitted";
  Telemetry.incr t.tel (sw_counter sw "admitted");
  Timeseries.add t.series "fleet.admitted";
  Timeseries.add t.series (sw_counter sw "admitted");
  if pa.pa_tried <> [] then begin
    Telemetry.incr t.tel "fleet.spillover";
    Timeseries.add t.series "fleet.spillover"
  end

let drain_admissions ?(max_batch = 64) t =
  if max_batch <= 0 then
    invalid_arg "Fleet.drain_admissions: max_batch must be positive";
  let outcomes = ref [] in
  let settle pa result =
    (match result with
    | Error _ -> (
      Telemetry.incr t.tel "fleet.rejected";
      Timeseries.add t.series "fleet.rejected";
      match t.tenants with
      | Some reg -> Tenant.unbind reg ~fid:pa.pa_fid
      | None -> ())
    | Ok _ -> ());
    outcomes := (pa.pa_fid, result) :: !outcomes
  in
  let progress = ref true in
  while (not (Queue.is_empty t.admissions)) && !progress do
    progress := false;
    let backlog = List.of_seq (Queue.to_seq t.admissions) in
    Queue.clear t.admissions;
    (* Fleet-global quota gate: a tenant's usage is aggregated across
       every switch in its (shared) registry.  Charges land only after a
       switch admits, so the gate also counts block demand this round has
       already waved through for the tenant — otherwise two services that
       individually fit a quota both pass and the tenant overshoots.
       (Stage demand stays usage-only: pending services may land on
       stages the tenant already occupies.) *)
    let backlog =
      let pending = Hashtbl.create 8 in
      List.filter
        (fun pa ->
          match (pa.pa_tenant, t.tenants) with
          | Some tn, Some reg ->
            let ahead =
              match Hashtbl.find_opt pending tn with Some b -> b | None -> 0
            in
            if
              Tenant.would_exceed reg ~tenant:tn
                ~blocks:(pa_charge pa + ahead)
                ~stages:(Array.length pa.pa_app.App.demand_blocks)
            then begin
              settle pa (Error `Over_quota);
              progress := true;
              false
            end
            else begin
              Hashtbl.replace pending tn (ahead + pa_charge pa);
              true
            end
          | _ -> true)
        backlog
    in
    (* Route each pending service to its next placement candidate.
       Grouping happens entirely before any switch drains, so every
       service in the round sees the same load snapshot. *)
    let round_loads = lazy (loads t) in
    let grouped = Hashtbl.create 8 in
    List.iter
      (fun pa ->
        let home =
          Option.bind pa.pa_client (fun c -> Topology.home_of t.topo ~client:c)
        in
        let next =
          candidate_seq t ~home ~fid:pa.pa_fid ~demand:(pa_charge pa)
            ?loads:
              (match t.policy with
              | Placement.Hierarchical -> None
              | _ -> Some (Lazy.force round_loads))
          |> Seq.filter (fun sw -> not (List.mem sw pa.pa_tried))
          |> Seq.uncons
        in
        match next with
        | None ->
          settle pa (Error `No_capacity);
          progress := true
        | Some (sw, _) ->
          let prev =
            match Hashtbl.find_opt grouped sw with Some l -> l | None -> []
          in
          Hashtbl.replace grouped sw (pa :: prev))
      backlog;
    let switches =
      Hashtbl.fold (fun sw _ acc -> sw :: acc) grouped [] |> List.sort compare
    in
    (* One batched provision-queue drain per touched switch. *)
    List.iter
      (fun sw ->
        let pas = List.rev (Hashtbl.find grouped sw) in
        let ctrl = t.nodes.(sw).controller in
        List.iter
          (fun pa ->
            Controller.enqueue_request ctrl
              (Negotiate.request_packet ~fid:pa.pa_fid ~seq:0 pa.pa_app))
          pas;
        let results =
          Controller.drain ~max_batch ctrl
          |> List.concat_map (fun e -> e.Controller.results)
        in
        (* The provision queue could already hold requests enqueued
           directly on the controller; ours are the tail. *)
        let extra = List.length results - List.length pas in
        let results =
          if extra > 0 then List.filteri (fun i _ -> i >= extra) results
          else results
        in
        Telemetry.incr t.tel "fleet.adm.epochs";
        List.iter2
          (fun pa result ->
            match result with
            | Ok (_ : Controller.provision) ->
              commit_admission t pa ~sw;
              settle pa (Ok sw);
              progress := true
            | Error _ ->
              (* Spill over to the next candidate on a later round.  A
                 spill is progress: pa_tried grows by a switch that was
                 untried this round, so the loop still terminates once
                 every candidate has been exhausted. *)
              pa.pa_tried <- sw :: pa.pa_tried;
              Queue.add pa t.admissions;
              progress := true)
          pas results)
      switches
  done;
  List.sort (fun (a, _) (b, _) -> compare a b) !outcomes

let depart t ~fid =
  match Hashtbl.find_opt t.residency fid with
  | None -> false
  | Some sw ->
    if not t.down.(sw) then
      ignore (Controller.handle_departure t.nodes.(sw).controller ~fid);
    shim_step t ~fid Shim.Released;
    unbind_placement t ~fid ~sw;
    forget t ~fid;
    Telemetry.incr t.tel "fleet.departed";
    true

(* Run a memsync driver to completion directly against a switch's
   tables.  Without faults this is loss-free, so one [start] pass
   answers every index.  With faults each capsule (request and its RTS
   reply, collapsed into one per-delivery decision) may be lost,
   checksum-rejected or duplicated; the driver's timeout/retry loop
   recovers under a synthetic clock, bounded by its per-index attempt
   budget plus a round cap, and the caller falls back to the control
   plane for whatever never got through. *)
let run_memsync node driver =
  let jit = Fabric.jit node.fabric in
  let exec ~seq pkt =
    let meta = Runtime.meta ~src:1 ~dst:0 () in
    let r = Jit.run jit ~meta pkt in
    match r.Runtime.decision with
    | Runtime.Return_to_sender ->
      ignore (Memsync_driver.on_reply driver ~seq ~args:r.Runtime.args_out)
    | Runtime.Forward _ | Runtime.Dropped _ -> ()
  in
  (match node.faults with
  | None -> Memsync_driver.start driver ~now:0.0 ~send:exec
  | Some f ->
    let clock = ref 0.0 in
    let send ~seq pkt =
      let v = Faults.plan f ~now:!clock in
      if not (v.Faults.lose || v.Faults.corrupt) then
        for _ = 1 to v.Faults.copies do
          exec ~seq pkt
        done
    in
    Memsync_driver.start driver ~now:!clock ~send;
    let rounds = ref 0 in
    let stalled = ref false in
    while (not (Memsync_driver.is_done driver)) && (not !stalled) && !rounds < 64
    do
      incr rounds;
      clock := !clock +. 2.0;
      if Memsync_driver.tick driver ~now:!clock ~send = 0 then
        (* Every unacked index is out of retry budget. *)
        stalled := Memsync_driver.outstanding driver > 0
    done);
  Memsync_driver.is_done driver

let make_driver node ~fid ~stages ~count op =
  let max_attempts = match node.faults with None -> 0 | Some _ -> 16 in
  Memsync_driver.create ~max_attempts ~fid ~stages ~count ~timeout_s:1.0 op

let words_per_block node =
  Rmt.Params.words_per_block (Rmt.Device.params (Controller.device node.controller))

(* Drain a service's regions.  [data_plane] selects the normal migration
   path (memsync packets up to the word budget); switch failures force
   the control plane, since a dead switch executes nothing. *)
let extract_state t node ~fid ~data_plane =
  let alloc = Controller.allocator node.controller in
  match Allocator.regions_of alloc ~fid with
  | None -> []
  | Some regions ->
    let wpb = words_per_block node in
    List.map
      (fun { Allocator.stage; range } ->
        let n_words = range.Pool.n_blocks * wpb in
        let control_plane () =
          match Controller.read_region node.controller ~fid ~stage with
          | Some words -> words
          | None -> Array.make n_words 0
        in
        let words =
          if data_plane && n_words <= t.memsync_word_budget then begin
            let driver =
              make_driver node ~fid ~stages:[ stage ] ~count:n_words
                Memsync_driver.Read
            in
            if run_memsync node driver then begin
              Telemetry.incr t.tel "fleet.memsync.words_read" ~by:n_words;
              (Memsync_driver.values driver).(0)
            end
            else begin
              (* Partial data-plane read: keep what got through, fill
                 the gaps from the control plane. *)
              let survivors = Memsync_driver.unacked driver in
              Telemetry.incr t.tel "fleet.memsync.words_read"
                ~by:(n_words - List.length survivors);
              Telemetry.incr t.tel "fleet.memsync.fallback_words"
                ~by:(List.length survivors);
              let words = Array.copy (Memsync_driver.values driver).(0) in
              let cp = control_plane () in
              List.iter
                (fun i -> if i < Array.length cp then words.(i) <- cp.(i))
                survivors;
              words
            end
          end
          else control_plane ()
        in
        (stage, words))
      regions

(* Positional repopulation: k-th captured region into k-th current
   region (both ascending stage), min of the two sizes. *)
let inject_state t node ~fid state =
  let alloc = Controller.allocator node.controller in
  match Allocator.regions_of alloc ~fid with
  | None -> ()
  | Some regions ->
    let wpb = words_per_block node in
    List.iteri
      (fun k { Allocator.stage; range } ->
        match List.nth_opt state k with
        | None -> ()
        | Some (_src_stage, words) ->
          let n_words = range.Pool.n_blocks * wpb in
          let count = min n_words (Array.length words) in
          if count > 0 then
            if count <= t.memsync_word_budget then begin
              let driver =
                make_driver node ~fid ~stages:[ stage ] ~count
                  (Memsync_driver.Write (fun i -> [ words.(i) ]))
              in
              if run_memsync node driver then
                Telemetry.incr t.tel "fleet.memsync.words_written" ~by:count
              else begin
                (* Writes are idempotent, so only the indices that never
                   got through need the control-plane fallback. *)
                let survivors = Memsync_driver.unacked driver in
                Telemetry.incr t.tel "fleet.memsync.words_written"
                  ~by:(count - List.length survivors);
                Telemetry.incr t.tel "fleet.memsync.fallback_words"
                  ~by:(List.length survivors);
                List.iter
                  (fun i ->
                    ignore
                      (Controller.write_region_word node.controller ~fid ~stage
                         ~index:i ~value:words.(i)))
                  survivors
              end
            end
            else
              for i = 0 to count - 1 do
                ignore
                  (Controller.write_region_word node.controller ~fid ~stage
                     ~index:i ~value:words.(i))
              done)
      regions

let read_state t ~fid =
  match Hashtbl.find_opt t.residency fid with
  | None -> []
  | Some sw -> extract_state t t.nodes.(sw) ~fid ~data_plane:(not t.down.(sw))

let write_state t ~fid state =
  match Hashtbl.find_opt t.residency fid with
  | None -> ()
  | Some sw -> inject_state t t.nodes.(sw) ~fid state

let migrate t ~fid ~dst =
  match Hashtbl.find_opt t.residency fid with
  | None -> Error `Unknown_fid
  | Some src ->
    if dst < 0 || dst >= Array.length t.nodes then
      invalid_arg "Fleet.migrate: switch out of range";
    if t.down.(dst) then Error `Switch_down
    else if src = dst then Ok ()
    else
      Telemetry.with_span t.tel "fleet.migrate" @@ fun () ->
      let root =
        Trace.start_trace t.tracer
          ~attrs:
            [
              ("fid", string_of_int fid);
              ("src", string_of_int src);
              ("dst", string_of_int dst);
            ]
          "fleet.migrate"
      in
      let app = Hashtbl.find t.apps fid in
      shim_step t ~fid Shim.Realloc_notified;
      let state =
        Trace.with_span t.tracer root
          ~attrs:[ ("switch", string_of_int src) ]
          "fleet.drain"
        @@ fun _ ->
        extract_state t t.nodes.(src) ~fid ~data_plane:(not t.down.(src))
      in
      if not t.down.(src) then
        ignore (Controller.handle_departure ?trace:root t.nodes.(src).controller ~fid);
      (* The program no longer lives on [src]; drop its compiled closures
         there (the departure's epoch bump already made them stale). *)
      Jit.invalidate (Fabric.jit t.nodes.(src).fabric) ~fid;
      Timeseries.add t.series "fleet.jit.invalidations";
      unbind_placement t ~fid ~sw:src;
      let outcome oc attrs =
        match root with
        | Some ctx -> ignore (Trace.instant t.tracer ctx ~attrs oc)
        | None -> ()
      in
      if admit_at ?trace:root t ~sw:dst ~fid app then begin
        Trace.with_span t.tracer root
          ~attrs:[ ("switch", string_of_int dst) ]
          "fleet.repopulate"
        (fun _ -> inject_state t t.nodes.(dst) ~fid state);
        bind_placement t ~fid ~sw:dst;
        shim_step t ~fid Shim.Extraction_done;
        Telemetry.incr t.tel "fleet.migrated";
        Timeseries.add t.series "fleet.migrated";
        Telemetry.incr t.tel (sw_counter src "out");
        Telemetry.incr t.tel (sw_counter dst "in");
        outcome "fleet.migrated" [ ("switch", string_of_int dst) ];
        Ok ()
      end
      else if (not t.down.(src)) && admit_at ?trace:root t ~sw:src ~fid app
      then begin
        (* Destination refused: restore at the source, state intact. *)
        inject_state t t.nodes.(src) ~fid state;
        bind_placement t ~fid ~sw:src;
        shim_step t ~fid Shim.Extraction_done;
        Telemetry.incr t.tel "fleet.migrate_refused";
        outcome "fleet.migrate_refused" [ ("switch", string_of_int src) ];
        Error `Refused
      end
      else begin
        forget t ~fid;
        Telemetry.incr t.tel "fleet.lost";
            Timeseries.add t.series "fleet.lost";
        outcome "fleet.lost" [];
        Error `Lost
      end

let residents t =
  Hashtbl.fold (fun fid sw acc -> (fid, sw) :: acc) t.residency []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let switch_of t ~fid = Hashtbl.find_opt t.residency fid

let residents_of t ~sw =
  Hashtbl.fold (fun fid s acc -> if s = sw then fid :: acc else acc) t.residency []
  |> List.sort compare

type failover = {
  relocated : (int * Topology.switch_id) list;
  lost : int list;
}

let fail_switch t ~sw =
  if sw < 0 || sw >= Array.length t.nodes then
    invalid_arg "Fleet.fail_switch: switch out of range";
  if t.down.(sw) then { relocated = []; lost = [] }
  else begin
    t.down.(sw) <- true;
    t.up_count <- t.up_count - 1;
    t.up_sum <- t.up_sum -. t.util.(sw);
    (* Routing repairs around the dead switch: all its links go down and
       only the affected destinations of already-built tables recompute. *)
    ignore (Topology.isolate t.topo ~sw);
    Telemetry.set_gauge t.tel (sw_counter sw "up") 0.0;
    Telemetry.incr t.tel "fleet.failures";
    Timeseries.add t.series "fleet.failures";
    let evacuees = residents_of t ~sw in
    let root =
      Trace.start_trace t.tracer
        ~attrs:
          [
            ("switch", string_of_int sw);
            ("residents", string_of_int (List.length evacuees));
          ]
        "fleet.failover"
    in
    (* Snapshot every resident's state from the frozen pool before any
       cleanup: departures trigger elastic expansion among the remaining
       residents, which must not perturb what we recover.  The data
       plane through the dead switch is gone; recovery goes over the
       management network (control plane). *)
    let states =
      List.map
        (fun fid -> (fid, extract_state t t.nodes.(sw) ~fid ~data_plane:false))
        evacuees
    in
    List.iter
      (fun fid ->
        ignore (Controller.handle_departure t.nodes.(sw).controller ~fid);
        unbind_placement t ~fid ~sw)
      evacuees;
    let relocated = ref [] and lost = ref [] in
    List.iter
      (fun (fid, state) ->
        let app = Hashtbl.find t.apps fid in
        let trace =
          Option.map
            (fun ctx ->
              Trace.instant t.tracer ctx
                ~attrs:[ ("fid", string_of_int fid) ]
                "fleet.evacuate")
            root
        in
        let home =
          Option.bind (Hashtbl.find_opt t.clients fid) (fun c ->
              Topology.home_of t.topo ~client:c)
        in
        let app_demand = app_charge app in
        let candidates = candidate_seq t ~home ~fid ~demand:app_demand in
        let rec go seq =
          match Seq.uncons seq with
          | None ->
            forget t ~fid;
            Telemetry.incr t.tel "fleet.lost";
            Timeseries.add t.series "fleet.lost";
            (match trace with
            | Some ctx -> ignore (Trace.instant t.tracer ctx "fleet.lost")
            | None -> ());
            lost := fid :: !lost
          | Some (dst, rest) ->
            if admit_at ?trace t ~sw:dst ~fid app then begin
              inject_state t t.nodes.(dst) ~fid state;
              bind_placement t ~fid ~sw:dst;
              shim_step t ~fid Shim.Realloc_notified;
              shim_step t ~fid Shim.Extraction_done;
              Telemetry.incr t.tel "fleet.migrated";
        Timeseries.add t.series "fleet.migrated";
              Telemetry.incr t.tel (sw_counter sw "out");
              Telemetry.incr t.tel (sw_counter dst "in");
              (match trace with
              | Some ctx ->
                ignore
                  (Trace.instant t.tracer ctx
                     ~attrs:[ ("switch", string_of_int dst) ]
                     "fleet.relocated")
              | None -> ());
              relocated := (fid, dst) :: !relocated
            end
            else go rest
        in
        go candidates)
      states;
    { relocated = List.rev !relocated; lost = List.rev !lost }
  end

let schedule_failure t ~at ~sw =
  Engine.schedule_at t.engine ~time:at (fun () -> ignore (fail_switch t ~sw))
