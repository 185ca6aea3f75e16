open Import

type config = {
  tenants : int;
  hostile_factor : int;
  demand_blocks : int;
  services_per_tenant : int;
  max_batch : int;
  seed : int;
}

(* 16-word blocks keep the memsync drain of an evicted service cheap
   (demand_blocks * 16 words per region) without changing the block
   economy the allocator reasons about. *)
let scenario_params =
  { Rmt.Params.default with Rmt.Params.words_per_stage = 4096 }

let capacity_of (params : Rmt.Params.t) =
  params.Rmt.Params.logical_stages * params.Rmt.Params.blocks_per_stage

(* Scale the per-service demand with the fair share so well-behaved
   tenants can offer their whole entitlement in a handful of services:
   large shares get chunky 16-block services, tiny shares (hundreds of
   tenants) get 2-block ones — which also keeps the resident service
   count under the per-stage TCAM ceiling. *)
let preset ~tenants () =
  if tenants < 2 then invalid_arg "Tenants.preset: need at least 2 tenants";
  let fair = capacity_of scenario_params / tenants in
  let demand = max 2 (min 16 (fair / 40)) in
  {
    tenants;
    hostile_factor = 10;
    demand_blocks = demand;
    services_per_tenant = max 1 (fair / demand);
    max_batch = 64;
    seed = 7;
  }

type tenant_outcome = {
  tenant : int;
  weight : int;
  hostile : bool;
  offered_blocks : int;
  granted_blocks : int;
  fair_blocks : float;
  retained : float;
}

type result = {
  config : config;
  capacity_blocks : int;
  effective_capacity_blocks : int;
  per_tenant : tenant_outcome list;
  jain_wb : float;
  min_retained_wb : float;
  granted : int;
  denied_quota : int;
  denied_capacity : int;
  evictions : int;
  relocations : int;
  deferrals : int;
  epochs : int;
  p50_admit_s : float;
  p99_admit_s : float;
  modeled_span_s : float;
  consistent : bool;
  admit_wall_s : float;
}

let hostile_tenant = 0

(* The tenants' service: the flow counter rebased to the scenario's
   per-service demand (still one memory access, still inelastic, so a
   service's charge equals its allocator footprint exactly). *)
let service_app demand =
  let t =
    {
      Counter.service with
      App.name = Printf.sprintf "tenant-svc-%db" demand;
      demand_blocks = [| demand |];
    }
  in
  match App.validate t with Ok t -> t | Error e -> invalid_arg e

(* The achievable block capacity for this service class: program shape
   constrains which stages the memory access can land on (the mutant
   enumeration inserts at most so many leading NOPs), so part of the raw
   pool is unreachable for a homogeneous workload.  Probe it by filling
   a scratch allocator until the first rejection — entitlements and the
   fairness gates must be computed against blocks preemption can
   actually deliver. *)
let probe_capacity params app =
  let alloc = Allocator.create ~telemetry:(Telemetry.create ()) params in
  let spec = App.spec app in
  let demand = Array.fold_left ( + ) 0 app.App.demand_blocks in
  let rec go fid acc =
    let arrival =
      {
        Allocator.fid;
        spec;
        elastic = app.App.elastic;
        demand_blocks = Array.copy app.App.demand_blocks;
      }
    in
    match Allocator.admit alloc arrival with
    | Allocator.Admitted _ -> go (fid + 1) (acc + demand)
    | Allocator.Rejected _ -> acc
  in
  go 1 0

let run ?telemetry ?(clock = Sys.time) config =
  let params = scenario_params in
  if config.tenants < 2 then invalid_arg "Tenants.run: need at least 2 tenants";
  if config.hostile_factor < 1 then
    invalid_arg "Tenants.run: hostile_factor < 1";
  if config.demand_blocks < 1 || config.services_per_tenant < 1 then
    invalid_arg "Tenants.run: non-positive demand";
  let telemetry =
    match telemetry with Some t -> t | None -> Telemetry.create ()
  in
  let device = Rmt.Device.create params in
  let ctrl = Controller.create ~telemetry device in
  let registry = Tenant.create ~telemetry () in
  for id = 0 to config.tenants - 1 do
    let name = if id = hostile_tenant then "hostile" else Printf.sprintf "t%d" id in
    ignore (Tenant.register registry ~name id)
  done;
  let app = service_app config.demand_blocks in
  let effective_capacity = probe_capacity params app in
  let vs =
    Vswitch.create
      ~config:
        {
          Vswitch.default_config with
          Vswitch.max_batch = config.max_batch;
          entitlement_capacity = Some effective_capacity;
        }
      ~telemetry ~registry ctrl
  in
  let next_fid = ref 1 in
  let submit tenant =
    let fid = !next_fid in
    incr next_fid;
    Vswitch.submit vs ~tenant ~fid app
  in
  let admit_wall = ref 0.0 in
  let drain () =
    let t0 = clock () in
    let epochs = Vswitch.drain vs in
    admit_wall := !admit_wall +. (clock () -. t0);
    epochs
  in
  (* Phase 1 — the flood: the hostile tenant alone offers [factor] times
     its fair share and, with nobody else contending yet, grabs as much
     of the switch as the allocator will give it. *)
  for _ = 1 to config.hostile_factor * config.services_per_tenant do
    submit hostile_tenant
  done;
  let phase1 = drain () in
  (* Phase 2 — entitled arrivals: every well-behaved tenant offers (at
     most) its fair share, in seed-shuffled interleaved order.  Their
     capacity rejections mark the pool contended and preemption unwinds
     the hostile flood, freshest services first. *)
  let order =
    Array.concat
      (List.init (config.tenants - 1) (fun i ->
           Array.make config.services_per_tenant (i + 1)))
  in
  Prng.shuffle (Prng.create ~seed:config.seed) order;
  Array.iter submit order;
  let phase2 = drain () in
  let epochs = List.length phase1 + List.length phase2 in
  let capacity = capacity_of params in
  let per_tenant =
    List.map
      (fun info ->
        let id = info.Tenant.id in
        let hostile = id = hostile_tenant in
        let services =
          if hostile then config.hostile_factor * config.services_per_tenant
          else config.services_per_tenant
        in
        let offered = services * config.demand_blocks in
        let granted = (Tenant.usage registry id).Tenant.blocks in
        let fair =
          Tenant.fair_blocks registry ~tenant:id ~capacity:effective_capacity
        in
        let entitled = Float.min (float_of_int offered) fair in
        {
          tenant = id;
          weight = info.Tenant.weight;
          hostile;
          offered_blocks = offered;
          granted_blocks = granted;
          fair_blocks = fair;
          retained =
            (if entitled <= 0.0 then 1.0 else float_of_int granted /. entitled);
        })
      (Tenant.tenants registry)
  in
  let wb = List.filter (fun o -> not o.hostile) per_tenant in
  let jain_wb = Stats.jain_fairness (List.map (fun o -> o.retained) wb) in
  Telemetry.sample telemetry ~at:(Vswitch.modeled_clock vs) "tenant.jain" jain_wb;
  let min_retained_wb =
    List.fold_left (fun acc o -> Float.min acc o.retained) infinity wb
  in
  let lats = List.map (fun (_, _, l) -> l) (Vswitch.admission_latencies vs) in
  let pct p = match lats with [] -> 0.0 | _ -> Stats.percentile lats p in
  (* Zero-FID-loss audit: the allocator's residents, the vswitch's
     Granted decisions and the parked set must tile the submitted FIDs
     with no overlap. *)
  let resident = Hashtbl.create 256 in
  List.iter
    (fun (fid, _) -> Hashtbl.replace resident fid ())
    (Allocator.resident_blocks (Controller.allocator ctrl));
  let consistent = ref true in
  let n_granted = ref 0 in
  for fid = 1 to !next_fid - 1 do
    match Vswitch.decision_of vs ~fid with
    | None -> consistent := false
    | Some Vswitch.Granted ->
      incr n_granted;
      if not (Hashtbl.mem resident fid) then consistent := false
    | Some (Vswitch.Queued | Vswitch.Evicted | Vswitch.Denied _ | Vswitch.Departed)
      ->
      if Hashtbl.mem resident fid then consistent := false
  done;
  if !n_granted <> Hashtbl.length resident then consistent := false;
  List.iter
    (fun fid -> if Hashtbl.mem resident fid then consistent := false)
    (Vswitch.parked vs);
  {
    config;
    capacity_blocks = capacity;
    effective_capacity_blocks = effective_capacity;
    per_tenant;
    jain_wb;
    min_retained_wb = (if wb = [] then 1.0 else min_retained_wb);
    granted = Telemetry.counter_value telemetry "tenant.granted";
    denied_quota = Telemetry.counter_value telemetry "tenant.denied.quota";
    denied_capacity = Telemetry.counter_value telemetry "tenant.denied.capacity";
    evictions = Telemetry.counter_value telemetry "tenant.evictions";
    relocations = Telemetry.counter_value telemetry "tenant.relocations";
    deferrals = Telemetry.counter_value telemetry "tenant.deferrals";
    epochs;
    p50_admit_s = pct 50.0;
    p99_admit_s = pct 99.0;
    modeled_span_s = Vswitch.modeled_clock vs;
    consistent = !consistent;
    admit_wall_s = !admit_wall;
  }

(* Deterministic one-line-per-fact summary: everything printed derives
   from the modeled clock and the seeded scenario, so two runs with the
   same config are byte-identical (the CI replay gate). *)
let summary_lines r =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "tenants=%d capacity_blocks=%d effective_capacity_blocks=%d demand_blocks=%d services_per_tenant=%d hostile_factor=%d seed=%d"
    r.config.tenants r.capacity_blocks r.effective_capacity_blocks
    r.config.demand_blocks r.config.services_per_tenant r.config.hostile_factor
    r.config.seed;
  line "epochs=%d granted=%d denied_quota=%d denied_capacity=%d evictions=%d relocations=%d deferrals=%d"
    r.epochs r.granted r.denied_quota r.denied_capacity r.evictions
    r.relocations r.deferrals;
  line "jain_wb=%.4f min_retained_wb=%.4f p50_admit_ms=%.4f p99_admit_ms=%.4f modeled_span_s=%.6f consistent=%b"
    r.jain_wb r.min_retained_wb (1000.0 *. r.p50_admit_s)
    (1000.0 *. r.p99_admit_s) r.modeled_span_s r.consistent;
  List.iter
    (fun o ->
      line "tenant=%d%s weight=%d offered=%d granted=%d fair=%.1f retained=%.4f"
        o.tenant
        (if o.hostile then "(hostile)" else "")
        o.weight o.offered_blocks o.granted_blocks o.fair_blocks o.retained)
    r.per_tenant;
  Buffer.contents b
