open Import

type config = {
  max_batch : int;
  defer_limit : int;
  entitlement_capacity : int option;
}

let default_config = { max_batch = 64; defer_limit = 64; entitlement_capacity = None }

(* Capacity rejections (each possibly triggering preemption) before a
   request is denied; this also caps how often one victim can be evicted
   and readmitted. *)
let retry_limit = 16

let max_evictions_per_epoch = 32

(* Regions above this many words move by control-plane reads and writes
   instead of memsync capsules, as in Fleet migration. *)
let memsync_word_budget = 65536

type denial = [ `Quota | `Capacity | `Bad of string ]

type decision =
  | Queued
  | Granted
  | Evicted
  | Denied of denial
  | Departed

type epoch_summary = {
  epoch_index : int;
  scheduled : int;
  granted : (int * int) list;
  denied : (int * int * denial) list;
  evicted : (int * int) list;
  deferred : int;
  modeled_epoch_s : float;
  clock_s : float;
}

(* One queued admission request.  The charge is the service's guaranteed
   footprint — the sum of its per-access block demands (minimum blocks
   for elastic apps).  Quota enforcement, entitlement and preemption all
   run on guaranteed blocks: elastic bonus capacity above the minimum is
   work-conserving surplus the allocator hands out and takes back on its
   own, so charging it would make the accounting thrash with every
   progressive refill. *)
type req = {
  r_tenant : int;
  r_fid : int;
  r_app : App.t;
  r_charge : int;
  r_stage_demand : int;
  r_submitted_s : float;
  mutable r_defers : int;
  mutable r_retries : int;
  mutable r_cancelled : bool;
}

type t = {
  cfg : config;
  reg : Tenant.t;
  ctrl : Controller.t;
  jit : Jit.t;
  queue : req Wrr.t;
  decisions : (int, decision) Hashtbl.t;
  reqs : (int, req) Hashtbl.t;  (* every non-terminal fid -> its request *)
  parked_state : (int, (int * int array) list) Hashtbl.t;
  waiting_entitled : (int, unit) Hashtbl.t;
      (* under-fair-share fids rejected for capacity and still queued:
         while non-empty the pool is contended and over-share tenants
         defer so reclaimed capacity reaches the entitled *)
  latencies : (int, int * float) Hashtbl.t;  (* fid -> (tenant, latency) *)
  tel : Telemetry.t;
  mutable epoch : int;
  mutable clock : float;
}

let create ?(config = default_config) ?(telemetry = Telemetry.default) ~registry
    ctrl =
  if config.max_batch <= 0 then invalid_arg "Vswitch.create: max_batch <= 0";
  {
    cfg = config;
    reg = registry;
    ctrl;
    jit = Jit.create ~telemetry (Controller.tables ctrl);
    queue = Wrr.create ();
    decisions = Hashtbl.create 256;
    reqs = Hashtbl.create 256;
    parked_state = Hashtbl.create 64;
    waiting_entitled = Hashtbl.create 16;
    latencies = Hashtbl.create 256;
    tel = telemetry;
    epoch = 0;
    clock = 0.0;
  }

let pending t = Wrr.depth t.queue
let modeled_clock t = t.clock
let decision_of t ~fid = Hashtbl.find_opt t.decisions fid

let parked t =
  Hashtbl.fold (fun fid _ acc -> fid :: acc) t.parked_state [] |> List.sort compare

let admission_latencies t =
  Hashtbl.fold (fun fid (tenant, lat) acc -> (tenant, fid, lat) :: acc) t.latencies []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)

let alloc t = Controller.allocator t.ctrl

let capacity t =
  match t.cfg.entitlement_capacity with
  | Some c -> c
  | None -> Allocator.total_blocks (alloc t)
let charge_of (app : App.t) = Array.fold_left ( + ) 0 app.App.demand_blocks

let weight_of t id =
  match Tenant.info t.reg id with Some i -> i.Tenant.weight | None -> 1

let entitled_blocks t ~tenant =
  Tenant.fair_blocks t.reg ~tenant ~capacity:(capacity t)

(* Guaranteed-blocks surplus over the weighted fair share; positive for
   preemption victims. *)
let surplus t ~tenant =
  float_of_int (Tenant.usage t.reg tenant).Tenant.blocks -. entitled_blocks t ~tenant

let under_entitlement t ~tenant ~extra =
  float_of_int ((Tenant.usage t.reg tenant).Tenant.blocks + extra)
  <= entitled_blocks t ~tenant +. 1e-9

let submit t ~tenant ~fid app =
  if Hashtbl.mem t.decisions fid then
    invalid_arg (Printf.sprintf "Vswitch.submit: fid %d already submitted" fid);
  Tenant.bind t.reg ~fid ~tenant;
  let r =
    {
      r_tenant = tenant;
      r_fid = fid;
      r_app = app;
      r_charge = charge_of app;
      r_stage_demand = Array.length app.App.demand_blocks;
      r_submitted_s = t.clock;
      r_defers = 0;
      r_retries = 0;
      r_cancelled = false;
    }
  in
  Hashtbl.replace t.decisions fid Queued;
  Hashtbl.replace t.reqs fid r;
  Wrr.push t.queue ~tenant r;
  Telemetry.incr t.tel "tenant.submitted"

(* {2 Memsync-backed state relocation}

   The fleet's migration move (State_move) run against this switch's own
   tables, loss-free. *)

let words_moved t ~data_plane ~fallback:_ =
  Telemetry.incr t.tel "tenant.memsync.words_moved" ~by:data_plane

let extract_state t ~fid =
  State_move.extract t.ctrl t.jit ~faults:None ~word_budget:memsync_word_budget
    ~tally:(words_moved t) ~data_plane:true ~fid

let inject_state t ~fid state =
  State_move.inject t.ctrl t.jit ~faults:None ~word_budget:memsync_word_budget
    ~tally:(words_moved t) ~fid state

let state_words state =
  List.fold_left (fun acc (_, words) -> acc + Array.length words) 0 state

(* {2 Departure} *)

let settle t ~fid decision =
  Hashtbl.replace t.decisions fid decision;
  Hashtbl.remove t.parked_state fid;
  Hashtbl.remove t.reqs fid;
  Hashtbl.remove t.waiting_entitled fid;
  Tenant.unbind t.reg ~fid

let depart t ~fid =
  match Hashtbl.find_opt t.decisions fid with
  | None | Some (Denied _) | Some Departed -> false
  | Some Granted ->
    let bd, _ = Controller.handle_departure t.ctrl ~fid in
    t.clock <- t.clock +. Cost_model.modeled bd;
    settle t ~fid Departed;
    Telemetry.incr t.tel "tenant.departed";
    true
  | Some (Queued | Evicted) ->
    (* Still in a queue: cancel in place, the scheduler drops it on the
       next scan. *)
    (match Hashtbl.find_opt t.reqs fid with
    | Some r -> r.r_cancelled <- true
    | None -> ());
    settle t ~fid Departed;
    Telemetry.incr t.tel "tenant.departed";
    true

(* {2 Preemptive reclamation} *)

(* Evict the tenant's most recently admitted service: extract its
   register state through memsync, release the allocation, park the
   state and re-queue the request for re-admission.  Returns blocks
   freed (0 = tenant holds nothing). *)
let evict_fid t ~tenant:vt ~epoch_evicted ~modeled =
  match List.rev (Tenant.charged_fids t.reg ~tenant:vt) with
  | [] -> 0
  | vf :: _ ->
    let before = (Tenant.usage t.reg vt).Tenant.blocks in
    let state = extract_state t ~fid:vf in
    let bd, _ = Controller.handle_departure t.ctrl ~fid:vf in
    Tenant.discharge t.reg ~fid:vf;
    let freed = before - (Tenant.usage t.reg vt).Tenant.blocks in
    Hashtbl.replace t.parked_state vf state;
    Hashtbl.replace t.decisions vf Evicted;
    (match Hashtbl.find_opt t.reqs vf with
    | Some r -> Wrr.push t.queue ~tenant:vt r
    | None -> ());
    epoch_evicted := (vt, vf) :: !epoch_evicted;
    modeled :=
      !modeled
      +. Cost_model.modeled bd
      +. (float_of_int (state_words state)
         *. Cost_model.default.Cost_model.snapshot_word_s);
    Telemetry.add t.tel ~at:t.clock "tenant.evictions";
    freed

(* Evict one service from the tenant holding the largest guaranteed
   surplus over its fair share (ties to the lighter weight): most
   recently admitted FID first, so long-established services are
   protected and a noisy neighbor's freshest flood unwinds first.
   Returns blocks freed (0 = nobody left to preempt). *)
let evict_one t ~epoch_evicted ~modeled =
  let victim_tenant =
    List.fold_left
      (fun best info ->
        let id = info.Tenant.id in
        let s = surplus t ~tenant:id in
        if s <= 1e-9 || Tenant.charged_fids t.reg ~tenant:id = [] then best
        else
          match best with
          | None -> Some (id, s, info.Tenant.weight)
          | Some (_, bs, bw) ->
            if
              s > bs +. 1e-9
              || (Float.abs (s -. bs) <= 1e-9 && info.Tenant.weight < bw)
            then Some (id, s, info.Tenant.weight)
            else best)
      None (Tenant.tenants t.reg)
  in
  match victim_tenant with
  | None -> 0
  | Some (vt, _, _) -> evict_fid t ~tenant:vt ~epoch_evicted ~modeled

(* Quota-shrink reclamation: after {!Tenant.set_quota} lowers a
   ceiling, evict each over-quota tenant's freshest services until its
   charge fits again.  Victims are parked and re-queued exactly as in
   preemption, so they re-admit within the new quota on the next
   drain. *)
let reclaim t =
  let epoch_evicted = ref [] in
  let modeled = ref 0.0 in
  List.iter
    (fun info ->
      let id = info.Tenant.id in
      let rec go () =
        if
          Tenant.over_quota_blocks t.reg ~tenant:id > 0
          && evict_fid t ~tenant:id ~epoch_evicted ~modeled > 0
        then go ()
      in
      go ())
    (Tenant.tenants t.reg);
  t.clock <- t.clock +. !modeled;
  List.rev !epoch_evicted

(* {2 Admission epochs} *)

let deny t ~denied r (reason : denial) =
  settle t ~fid:r.r_fid (Denied reason);
  denied := (r.r_tenant, r.r_fid, reason) :: !denied;
  Telemetry.add t.tel ~at:t.clock "tenant.denied";
  Telemetry.incr t.tel
    (match reason with
    | `Quota -> "tenant.denied.quota"
    | `Capacity -> "tenant.denied.capacity"
    | `Bad _ -> "tenant.denied.bad")

let contended t = Hashtbl.length t.waiting_entitled > 0

let defer_or_deny t ~denied r (reason : denial) =
  if r.r_defers >= t.cfg.defer_limit then begin
    deny t ~denied r reason;
    `Drop
  end
  else begin
    r.r_defers <- r.r_defers + 1;
    Telemetry.add t.tel ~at:t.clock "tenant.deferrals";
    `Defer
  end

(* One admission epoch: WRR-pick a batch under quota/entitlement
   classification, push it through the controller's batched drain,
   settle outcomes, and reclaim capacity for entitled requests the
   allocator had to reject.  None = no progress possible (everything
   queued is deferred). *)
let run_epoch t =
  let denied = ref [] and epoch_evicted = ref [] in
  let modeled = ref 0.0 in
  (* Charges land only after the controller drain, so quota and
     entitlement checks must also count what this batch has already
     picked for the tenant — otherwise two requests that individually
     fit a quota both pass and the tenant overshoots within one epoch. *)
  let pending_blocks = Hashtbl.create 8 in
  let pending_stages = Hashtbl.create 8 in
  let pending tbl tenant =
    match Hashtbl.find_opt tbl tenant with Some v -> v | None -> 0
  in
  let classify ~tenant r =
    if r.r_cancelled then `Drop
    else begin
      let quota =
        match Tenant.info t.reg tenant with
        | Some i -> i.Tenant.quota
        | None -> Tenant.unlimited
      in
      let batch_blocks = pending pending_blocks tenant in
      if
        r.r_charge > quota.Tenant.max_blocks
        || quota.Tenant.max_fids < 1
        || r.r_stage_demand > quota.Tenant.max_stages
      then begin
        (* Can never fit, whatever departs. *)
        deny t ~denied r `Quota;
        `Drop
      end
      else if
        Tenant.would_exceed t.reg ~tenant
          ~blocks:(r.r_charge + batch_blocks)
          ~stages:(r.r_stage_demand + pending pending_stages tenant)
      then defer_or_deny t ~denied r `Quota
      else if
        contended t
        && not (under_entitlement t ~tenant ~extra:(r.r_charge + batch_blocks))
      then defer_or_deny t ~denied r `Capacity
      else begin
        Hashtbl.replace pending_blocks tenant (batch_blocks + r.r_charge);
        Hashtbl.replace pending_stages tenant
          (pending pending_stages tenant + r.r_stage_demand);
        `Take
      end
    end
  in
  let batch =
    Wrr.take t.queue ~weight:(weight_of t) ~classify ~max:t.cfg.max_batch
  in
  if batch.Wrr.taken = [] && batch.Wrr.dropped = [] then None
  else begin
    let taken = List.map snd batch.Wrr.taken in
    List.iter
      (fun r ->
        Controller.enqueue_request t.ctrl
          (Negotiate.request_packet ~fid:r.r_fid ~seq:r.r_retries r.r_app))
      taken;
    let results =
      match taken with
      | [] -> []
      | _ -> (
        match Controller.drain ~max_batch:(List.length taken) t.ctrl with
        | [ e ] ->
          modeled := !modeled +. Cost_model.modeled e.Controller.epoch_timing;
          assert (List.length e.Controller.results = List.length taken);
          List.combine taken e.Controller.results
        | _ -> assert false)
    in
    let granted = ref [] in
    let needed = ref 0 in
    List.iter
      (fun (r, result) ->
        match result with
        | Ok (_ : Controller.provision) ->
          let fid = r.r_fid in
          let stages =
            match Allocator.regions_of (alloc t) ~fid with
            | Some regions -> List.map (fun sr -> sr.Allocator.stage) regions
            | None -> []
          in
          Tenant.charge t.reg ~fid ~blocks:r.r_charge ~stages;
          Hashtbl.remove t.waiting_entitled fid;
          (match Hashtbl.find_opt t.parked_state fid with
          | Some state ->
            (* Relocated evictee: repopulate its registers. *)
            inject_state t ~fid state;
            Hashtbl.remove t.parked_state fid;
            modeled :=
              !modeled
              +. (float_of_int (state_words state)
                 *. Cost_model.default.Cost_model.snapshot_word_s);
            Telemetry.incr t.tel "tenant.relocations"
          | None -> ());
          Hashtbl.replace t.decisions fid Granted;
          granted := (r.r_tenant, fid) :: !granted;
          Telemetry.incr t.tel "tenant.granted"
        | Error (`Bad_packet msg) -> deny t ~denied r (`Bad msg)
        | Error (`Rejected (_ : Allocator.rejected)) ->
          r.r_retries <- r.r_retries + 1;
          if r.r_retries > retry_limit then deny t ~denied r `Capacity
          else begin
            if under_entitlement t ~tenant:r.r_tenant ~extra:r.r_charge then begin
              Hashtbl.replace t.waiting_entitled r.r_fid ();
              needed := !needed + r.r_charge
            end;
            Wrr.push_front t.queue ~tenant:r.r_tenant r
          end)
      results;
    (* Reclaim for the entitled rejects: evict over-share tenants'
       freshest services until the shortfall is covered or the per-epoch
       eviction budget runs out. *)
    let freed = ref 0 and evictions = ref 0 in
    while
      !needed > !freed
      && !evictions < max_evictions_per_epoch
      &&
      let f = evict_one t ~epoch_evicted ~modeled in
      freed := !freed + f;
      if f > 0 then incr evictions;
      f > 0
    do
      ()
    done;
    (* Per-tenant gauges: guaranteed charge plus actual holdings
       (elastic growth included) from the allocator's live residency. *)
    let actual = Hashtbl.create 32 in
    List.iter
      (fun (fid, blocks) ->
        match Tenant.tenant_of t.reg ~fid with
        | Some tenant ->
          let prev =
            match Hashtbl.find_opt actual tenant with Some b -> b | None -> 0
          in
          Hashtbl.replace actual tenant (prev + blocks)
        | None -> ())
      (Allocator.resident_blocks (alloc t));
    List.iter
      (fun info ->
        let id = info.Tenant.id in
        Telemetry.set_gauge t.tel
          (Printf.sprintf "tenant.%d.blocks" id)
          (float_of_int (Tenant.usage t.reg id).Tenant.blocks);
        Telemetry.set_gauge t.tel
          (Printf.sprintf "tenant.%d.actual_blocks" id)
          (float_of_int
             (match Hashtbl.find_opt actual id with Some b -> b | None -> 0)))
      (Tenant.tenants t.reg);
    t.clock <- t.clock +. !modeled;
    let granted = List.rev !granted in
    (* First-grant admission latency off the modeled clock. *)
    List.iter
      (fun (tenant, fid) ->
        if not (Hashtbl.mem t.latencies fid) then
          match Hashtbl.find_opt t.reqs fid with
          | Some r ->
            let lat = t.clock -. r.r_submitted_s in
            Hashtbl.replace t.latencies fid (tenant, lat);
            Telemetry.sample t.tel ~at:t.clock "tenant.admit_latency_s" lat;
            Telemetry.add t.tel ~at:t.clock (Printf.sprintf "tenant.%d.granted" tenant)
          | None -> ())
      granted;
    let summary =
      {
        epoch_index = t.epoch;
        scheduled = List.length taken;
        granted;
        denied = List.rev !denied;
        evicted = List.rev !epoch_evicted;
        deferred = Wrr.depth t.queue;
        modeled_epoch_s = !modeled;
        clock_s = t.clock;
      }
    in
    t.epoch <- t.epoch + 1;
    Telemetry.incr t.tel "tenant.epochs";
    Some summary
  end

let drain t =
  let rec go acc =
    if Wrr.depth t.queue = 0 then List.rev acc
    else
      match run_epoch t with
      | None -> List.rev acc
      | Some summary -> go (summary :: acc)
  in
  go []
