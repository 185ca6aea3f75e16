(* Capsule workloads: a closed loop of active packets crossing one
   simulated switch (client -> Fabric hop -> Engine heap -> Jit/Runtime
   -> reply).

   capsule-cache  one cache tenant, 16 capsules in flight, Zipf keys over
                  a hot set, 9:1 query:populate.  Short program, shallow
                  event heap: the Fabric/Engine glue dominates.
   capsule-mix    cache, heavy-hitter and Cheetah-LB tenants in the
                  device bench's 1:2:1 mix, 4096 capsules in flight, and
                  tenant churn (release + fresh FID) through the fabric.
                  Longer programs, deep heap, JIT invalidation.

   Cache misses, heavy-hitter monitor packets and LB SYNs are forwarded
   to a benchmark server node, which answers through the switch; hits and
   populates come back by RTS.  A capsule completes when its reply reaches
   the client node; a runtime drop counts as a failed capsule and is
   replaced.

   The simulation is deterministic for a given seed: every run of the
   same number of loop iterations makes the same events in the same
   order.  Control exchanges are the one place where measured time leaks
   into simulated time (the grant is delayed by the allocator's measured
   compute time), so churn first drains the loop, runs the exchange to
   idle, and resumes at a fixed simulated instant. *)

module Engine = Netsim.Engine
module Fabric = Netsim.Fabric
module Controller = Activermt_control.Controller
module Allocator = Activermt_alloc.Allocator
module Negotiate = Activermt_client.Negotiate
module Cache_client = Activermt_client.Cache_client
module Hh_client = Activermt_client.Hh_client
module Lb_client = Activermt_client.Lb_client
module Telemetry = Activermt_telemetry.Telemetry
module Packet = Activermt.Packet
module Runtime = Activermt.Runtime
module Jit = Activermt.Jit
module Table = Activermt.Table
module Kv = Workload.Kv

let params = Rmt.Params.default
let server = 1

type service = Cache | Hh | Lb

type config = {
  pattern : service array;  (** op [i] goes to [pattern.(i mod length)] *)
  in_flight : int;
  churn_every : int;  (** completed capsules between tenant churns; 0 = never *)
}

let cache_config = { pattern = [| Cache |]; in_flight = 16; churn_every = 0 }
let mix_config = { pattern = [| Cache; Hh; Hh; Lb |]; in_flight = 4096; churn_every = 32_768 }

(* Loop iterations run during set-up. *)
let warmup = 200_000

(* Pre-generated inputs: a cyclic op stream and the hot key set. *)
let stream_len = 1 lsl 20
let hot_keys = 4096
let churn_period_s = 100.0

type client = Cache_c of Cache_client.t | Hh_c of Hh_client.t | Lb_c of Lb_client.t

type tenant = {
  service : service;
  addr : int;
  mutable fid : int;
  mutable client : client option;
  mutable pending : int option;  (** FID requested by a churn, not yet granted *)
}

(* What the switch saw, in the order it processed it, for the exec
   replays of the traced run. *)
type op =
  | Exec of Runtime.meta * Packet.t
  | Request of Packet.t
  | Release of int
  | Ack of int
  | Privilege of int

type probe = {
  build : Meter.acc;
  inject : Meter.acc;
  switch_step : Meter.acc;
  deliver_step : Meter.acc;
  handler : Meter.acc;
  mutable nested_ns : int;  (** fabric calls made from inside handlers *)
  mutable nested_words : int;
  mutable handler_ns : int;  (** handler time inside the current step *)
  mutable handler_words : int;
  mutable delivered : bool;
  mutable pending_sum : int;
  mutable pending_max : int;
  spans : Meter.spans;
  mutable capture : op list;
  mutable captured : int;
}

let capture_limit = 100_000

type sim = {
  cfg : config;
  engine : Engine.t;
  fabric : Fabric.t;
  controller : Controller.t;
  tel : Telemetry.t;
  tenants : tenant array;
  slot : int array;  (** pattern position -> tenant index *)
  ops : int array;
  keys : Kv.key array;
  values : int array;
  mutable next_op : int;
  mutable next_fid : int;
  mutable epoch : int;  (** settle points so far *)
  mutable in_flight : int;
  mutable injected : int;
  mutable completed : int;
  mutable failed : int;
  mutable drops : int;
  mutable churning : bool;
  mutable next_churn : int;
  mutable churns : int;
  mutable rejected_churns : int;
  mutable digest : int;
  mutable prefix_digest : int;
  mutable recorded : int;
  mutable probe : probe option;
}

let prefix_len = 100_000

let app = function
  | Cache -> Activermt_apps.Cache.service
  | Hh -> Activermt_apps.Heavy_hitter.service
  | Lb -> Activermt_apps.Cheetah_lb.service

let make_client sim service ~fid regions =
  let policy = Allocator.policy (Controller.allocator sim.controller) in
  let ok = function Ok c -> c | Error e -> failwith ("client synthesis failed: " ^ e) in
  match service with
  | Cache -> Cache_c (ok (Cache_client.create params ~policy ~fid ~regions))
  | Hh -> Hh_c (ok (Hh_client.create params ~policy ~fid ~regions))
  | Lb -> Lb_c (ok (Lb_client.create params ~policy ~fid ~regions))

(* ---- timed calls into the layers (plain calls when untraced) ---- *)

let inject sim msg =
  match sim.probe with
  | None -> Fabric.inject sim.fabric msg
  | Some p ->
    let w0 = Meter.minor_words () and t0 = Meter.now_ns () in
    Fabric.inject sim.fabric msg;
    let t1 = Meter.now_ns () and w1 = Meter.minor_words () in
    Meter.add p.inject ~ns:(t1 - t0) ~words:(w1 - w0);
    p.nested_ns <- p.nested_ns + (t1 - t0);
    p.nested_words <- p.nested_words + (w1 - w0);
    Meter.span p.spans "fabric.inject" ~t0 ~t1

(* A node handler: the time spent inside it is taken out of the step that
   ran it; fabric calls it makes are booked to fabric.inject, the rest to
   client.handler. *)
let handler sim f msg =
  match sim.probe with
  | None -> f msg
  | Some p ->
    p.delivered <- true;
    let n0 = p.nested_ns and nw0 = p.nested_words in
    let w0 = Meter.minor_words () and t0 = Meter.now_ns () in
    f msg;
    let t1 = Meter.now_ns () and w1 = Meter.minor_words () in
    p.handler_ns <- p.handler_ns + (t1 - t0);
    p.handler_words <- p.handler_words + (w1 - w0);
    Meter.add p.handler
      ~ns:(t1 - t0 - (p.nested_ns - n0))
      ~words:(w1 - w0 - (p.nested_words - nw0))

let step sim =
  match sim.probe with
  | None -> Engine.step sim.engine
  | Some p ->
    let pending = Engine.pending sim.engine in
    p.pending_sum <- p.pending_sum + pending;
    if pending > p.pending_max then p.pending_max <- pending;
    p.delivered <- false;
    p.handler_ns <- 0;
    p.handler_words <- 0;
    let w0 = Meter.minor_words () and t0 = Meter.now_ns () in
    let fired = Engine.step sim.engine in
    let t1 = Meter.now_ns () and w1 = Meter.minor_words () in
    let ns = t1 - t0 - p.handler_ns and words = w1 - w0 - p.handler_words in
    if p.delivered then begin
      Meter.add p.deliver_step ~ns ~words;
      Meter.span p.spans "engine.deliver_step" ~t0 ~t1
    end
    else begin
      Meter.add p.switch_step ~ns ~words;
      Meter.span p.spans "engine.switch_step" ~t0 ~t1
    end;
    fired

let capture sim op =
  match sim.probe with
  | Some p when p.captured < capture_limit -> (
    p.capture <- op :: p.capture;
    match op with Exec _ -> p.captured <- p.captured + 1 | _ -> ())
  | Some _ | None -> ()

(* ---- the closed loop ---- *)

let build sim tn i ~seq =
  let a = sim.ops.(i) in
  match tn.client with
  | Some (Cache_c c) ->
    let r = a lsr 1 in
    if a land 1 = 1 then Cache_client.populate_packet c ~seq sim.keys.(r) ~value:sim.values.(r)
    else Cache_client.query_packet c ~seq sim.keys.(r)
  | Some (Hh_c h) -> Hh_client.monitor_packet h ~seq sim.keys.(a)
  | Some (Lb_c l) -> Lb_client.syn_packet l ~seq ~salt:a
  | None -> failwith "tenant without a client"

let inject_capsule sim =
  let i = sim.next_op in
  sim.next_op <- (if i + 1 = stream_len then 0 else i + 1);
  let tn = sim.tenants.(sim.slot.(i mod Array.length sim.slot)) in
  let seq = sim.injected in
  let pkt =
    match sim.probe with
    | None -> build sim tn i ~seq
    | Some p ->
      let w0 = Meter.minor_words () and t0 = Meter.now_ns () in
      let pkt = build sim tn i ~seq in
      let t1 = Meter.now_ns () and w1 = Meter.minor_words () in
      Meter.add p.build ~ns:(t1 - t0) ~words:(w1 - w0);
      Meter.span p.spans "client.build" ~t0 ~t1;
      pkt
  in
  (match sim.probe with
  | Some p when p.captured < capture_limit ->
    capture sim (Exec (Runtime.meta ~src:tn.addr ~dst:server (), pkt))
  | Some _ | None -> ());
  sim.injected <- seq + 1;
  sim.in_flight <- sim.in_flight + 1;
  inject sim (Fabric.msg ~src:tn.addr ~dst:server (Fabric.Active pkt))

(* Fold one switch outcome into the reply digest.  Where the capsule
   arrived and from which address stand for the switch's decision
   (RTS, or forwarding to the server). *)
let record sim (msg : Fabric.msg) (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Packet.Exec { args; _ } ->
    let h = Meter.mix (Meter.mix sim.digest pkt.Packet.fid) pkt.Packet.seq in
    let h = Meter.mix (Meter.mix h msg.Fabric.src) msg.Fabric.dst in
    let h = Array.fold_left Meter.mix h args in
    sim.digest <- h;
    sim.recorded <- sim.recorded + 1;
    if sim.recorded = prefix_len then sim.prefix_digest <- h
  | Packet.Request _ | Packet.Response _ | Packet.Bare -> ()

let complete sim =
  sim.in_flight <- sim.in_flight - 1;
  sim.completed <- sim.completed + 1

let reply_key = Kv.key_of_rank 0

let on_server sim msg =
  match msg.Fabric.payload with
  | Fabric.Active ({ Packet.payload = Packet.Exec _; _ } as pkt) ->
    record sim msg pkt;
    inject sim
      (Fabric.msg ~src:server ~dst:msg.Fabric.src
         (Fabric.Kv_reply { key = reply_key; value = pkt.Packet.seq }))
  | Fabric.Active _ | Fabric.Kv_request _ | Fabric.Kv_reply _ | Fabric.Alloc_failed
  | Fabric.Notify_realloc ->
    ()

let control sim tn op pkt =
  capture sim op;
  inject sim (Fabric.msg ~src:tn.addr ~dst:server (Fabric.Active pkt))

let on_granted sim tn ~fid regions =
  if tn.pending = Some fid then begin
    tn.client <- Some (make_client sim tn.service ~fid regions);
    tn.fid <- fid;
    tn.pending <- None
  end
  else if fid = tn.fid then
    (* Regions of a reallocated or expanded tenant, sent after its ack. *)
    tn.client <- Some (make_client sim tn.service ~fid regions)

let on_rejected sim tn =
  if tn.pending <> None then begin
    tn.pending <- None;
    sim.rejected_churns <- sim.rejected_churns + 1
  end

let on_client sim tn msg =
  match msg.Fabric.payload with
  | Fabric.Kv_reply _ -> complete sim
  | Fabric.Active pkt -> (
    match pkt.Packet.payload with
    | Packet.Exec _ ->
      record sim msg pkt;
      complete sim
    | Packet.Response { status = Packet.Granted; regions } ->
      on_granted sim tn ~fid:pkt.Packet.fid regions
    | Packet.Response { status = Packet.Rejected; _ } -> on_rejected sim tn
    | Packet.Request _ | Packet.Bare -> ())
  | Fabric.Alloc_failed -> on_rejected sim tn
  | Fabric.Notify_realloc ->
    (* Extraction is immediate: ack at once; the switch answers with the
       tenant's new regions. *)
    control sim tn (Ack tn.fid) (Negotiate.extraction_done_packet ~fid:tn.fid)
  | Fabric.Kv_request _ -> ()

let rec run_to_idle sim = if step sim then run_to_idle sim

(* Run the engine dry, then move the clock to the next fixed instant so
   the events that follow are scheduled from a reproducible base. *)
let settle sim =
  run_to_idle sim;
  sim.epoch <- sim.epoch + 1;
  let resume = float_of_int sim.epoch *. churn_period_s in
  if Engine.now sim.engine > resume then failwith "control exchange overran its settle period";
  Engine.schedule_at sim.engine ~time:resume ignore;
  run_to_idle sim

(* Request a fresh FID for the tenant's service and, once granted,
   release the old one (make before break: the service never goes
   without a client).  The LB tenant is privileged, as an operator would
   configure it before admitting it. *)
let request_fid sim tn =
  let fid = sim.next_fid in
  sim.next_fid <- fid + 1;
  Fabric.register_fid sim.fabric ~fid ~owner:tn.addr;
  if tn.service = Lb then begin
    capture sim (Privilege fid);
    Controller.grant_privilege sim.controller ~fid
  end;
  tn.pending <- Some fid;
  let request = Negotiate.request_packet ~fid ~seq:0 (app tn.service) in
  control sim tn (Request request) request;
  run_to_idle sim;
  if tn.pending <> None then failwith "allocation request went unanswered"

let churn sim =
  let tn = sim.tenants.(sim.churns mod Array.length sim.tenants) in
  let old = tn.fid in
  request_fid sim tn;
  if tn.fid <> old then begin
    control sim tn (Release old) (Negotiate.release_packet ~fid:old);
    run_to_idle sim
  end;
  if Controller.pending_extraction sim.controller <> [] then
    failwith "reallocation left tenants awaiting extraction";
  sim.churns <- sim.churns + 1;
  settle sim

(* One loop iteration: top up the closed loop, fire one event, account
   runtime drops, and run a churn once the loop has drained for it. *)
let iterate sim =
  if not sim.churning then
    while sim.in_flight < sim.cfg.in_flight do
      inject_capsule sim
    done;
  ignore (step sim);
  let d = Fabric.stats_drops sim.fabric in
  if d <> sim.drops then begin
    sim.failed <- sim.failed + (d - sim.drops);
    sim.in_flight <- sim.in_flight - (d - sim.drops);
    sim.drops <- d
  end;
  if sim.cfg.churn_every > 0 then
    if sim.churning then begin
      if sim.in_flight = 0 then begin
        churn sim;
        sim.churning <- false;
        sim.next_churn <- sim.completed + sim.cfg.churn_every
      end
    end
    else if sim.completed >= sim.next_churn then sim.churning <- true

(* ---- set-up ---- *)

let generate_ops cfg ~seed =
  let rng = Stdx.Prng.create ~seed in
  let zipf = Workload.Zipf.create ~exponent:0.99 ~n:hot_keys (Stdx.Prng.split rng) in
  let n = Array.length cfg.pattern in
  Array.init stream_len (fun i ->
      match cfg.pattern.(i mod n) with
      | Cache ->
        let populate = if Stdx.Prng.int rng 10 = 0 then 1 else 0 in
        (Workload.Zipf.sample zipf lsl 1) lor populate
      | Hh -> Workload.Zipf.sample zipf
      | Lb -> Stdx.Prng.int rng (1 lsl 20))

let setup cfg ~seed ~jit =
  let tel = Telemetry.create () in
  let engine = Engine.create ~telemetry:tel () in
  let controller =
    Controller.create ~mode:`Interactive ~telemetry:tel (Rmt.Device.create params)
  in
  let fabric = Fabric.create ~jit ~telemetry:tel ~engine ~controller () in
  let services =
    List.sort_uniq compare (Array.to_list cfg.pattern) |> Array.of_list
  in
  let tenants =
    Array.mapi
      (fun i service -> { service; addr = 10 + i; fid = 0; client = None; pending = None })
      services
  in
  let slot =
    Array.map
      (fun s ->
        let rec find i = if tenants.(i).service = s then i else find (i + 1) in
        find 0)
      cfg.pattern
  in
  let sim =
    {
      cfg;
      engine;
      fabric;
      controller;
      tel;
      tenants;
      slot;
      ops = generate_ops cfg ~seed;
      keys = Array.init hot_keys Kv.key_of_rank;
      values = Array.init hot_keys Kv.value_of_rank;
      next_op = 0;
      next_fid = 1;
      epoch = 0;
      in_flight = 0;
      injected = 0;
      completed = 0;
      failed = 0;
      drops = 0;
      churning = false;
      next_churn = cfg.churn_every;
      churns = 0;
      rejected_churns = 0;
      digest = 0;
      prefix_digest = 0;
      recorded = 0;
      probe = None;
    }
  in
  Fabric.attach fabric server (handler sim (on_server sim));
  Array.iter (fun tn -> Fabric.attach fabric tn.addr (handler sim (on_client sim tn))) tenants;
  Array.iter
    (fun tn ->
      request_fid sim tn;
      if tn.client = None then failwith "initial admission rejected")
    tenants;
  settle sim;
  for _ = 1 to warmup do
    iterate sim
  done;
  sim

(* ---- measurement ---- *)

type counts = { c_completed : int; c_failed : int; c_churns : int; c_rejected_churns : int }

let counts sim =
  {
    c_completed = sim.completed;
    c_failed = sim.failed;
    c_churns = sim.churns;
    c_rejected_churns = sim.rejected_churns;
  }

type timed = {
  iterations : int;
  work_ns : int;  (** measured, reference-kernel runs excluded *)
  norm_ns : float;  (** at the reference kernel's nominal speed *)
  completed : int;
  failed : int;
  churns : int;
  rejected_churns : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  peak_heap_mb : float;
  live_heap_mb : float;
  clock : Meter.clock;
  jit_stats : int * int * int;  (** hits, misses, compiles in the region *)
  events : int;
  telemetry_updates : int;
}

let telemetry_updates tel =
  List.fold_left
    (fun acc (name, v) ->
      if String.length name >= 4 && String.sub name 0 4 = "jit." then acc else acc + v)
    0 (Telemetry.counters tel)

(* Run the loop for [seconds] of work time, stopping at an iteration
   boundary so a twin can replay exactly as many iterations. *)
let run_timed sim ~seconds =
  let c0 = counts sim in
  let clock = Meter.clock () in
  let gc0 = Gc.quick_stat () in
  let j0 = Jit.stats (Fabric.jit sim.fabric) in
  let ev0 = Telemetry.counter_value sim.tel "sim.events.processed" in
  let up0 = telemetry_updates sim.tel in
  let w0 = Gc.minor_words () -. float_of_int !Meter.reference_words in
  let budget = int_of_float (seconds *. 1e9) in
  let iterations = ref 0 in
  let running = ref true in
  while !running do
    (match sim.probe with
    | Some p when !iterations land 63 = 0 -> Meter.window p.spans "capsule.loop"
    | Some _ | None -> ());
    iterate sim;
    incr iterations;
    if !iterations land 15 = 0 && Meter.tick clock ~units:(sim.completed - c0.c_completed) >= budget
    then running := false
  done;
  Meter.finish clock ~units:(sim.completed - c0.c_completed);
  let w1 = Gc.minor_words () -. float_of_int !Meter.reference_words in
  let gc1 = Gc.quick_stat () in
  let h0, m0, k0, _ = j0 and h1, m1, k1, _ = Jit.stats (Fabric.jit sim.fabric) in
  {
    iterations = !iterations;
    work_ns = clock.Meter.work_ns;
    norm_ns = clock.Meter.norm_ns;
    completed = sim.completed - c0.c_completed;
    failed = sim.failed - c0.c_failed;
    churns = sim.churns - c0.c_churns;
    rejected_churns = sim.rejected_churns - c0.c_rejected_churns;
    minor_words = w1 -. w0;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    peak_heap_mb = Meter.peak_heap_mb clock;
    live_heap_mb = Meter.live_heap_mb ();
    clock;
    jit_stats = (h1 - h0, m1 - m0, k1 - k0);
    events = Telemetry.counter_value sim.tel "sim.events.processed" - ev0;
    telemetry_updates = telemetry_updates sim.tel - up0;
  }

(* Output check: the same inputs through a switch that interprets every
   capsule must produce the same replies, drops and churn outcomes. *)
let twin_check cfg ~seed ~iterations sim =
  let twin = setup cfg ~seed ~jit:false in
  for _ = 1 to iterations do
    iterate twin
  done;
  let problems = ref [] in
  let expect what a b =
    if a <> b then problems := Printf.sprintf "%s: %x vs %x (interpreter twin)" what a b :: !problems
  in
  expect "reply digest" sim.digest twin.digest;
  expect "prefix digest" sim.prefix_digest twin.prefix_digest;
  expect "replies recorded" sim.recorded twin.recorded;
  expect "capsules completed" sim.completed twin.completed;
  expect "capsules failed" sim.failed twin.failed;
  expect "churns" sim.churns twin.churns;
  List.rev !problems

(* ---- per-layer probes (traced run) ---- *)

let new_probe () =
  {
    build = Meter.acc ();
    inject = Meter.acc ();
    switch_step = Meter.acc ();
    deliver_step = Meter.acc ();
    handler = Meter.acc ();
    nested_ns = 0;
    nested_words = 0;
    handler_ns = 0;
    handler_words = 0;
    delivered = false;
    pending_sum = 0;
    pending_max = 0;
    spans = Meter.spans ();
    capture = [];
    captured = 0;
  }

(* Cost of one Engine.schedule + Engine.step pair of no-op events on a
   heap holding [depth] events, with delays like the fabric's. *)
let heap_probe ~depth =
  let e = Engine.create ~telemetry:(Telemetry.create ()) () in
  let rng = Stdx.Prng.create ~seed:7 in
  for _ = 1 to depth do
    Engine.schedule e ~delay:(Stdx.Prng.float rng 25e-6) ignore
  done;
  let n = 200_000 in
  let delays = Array.init n (fun _ -> Stdx.Prng.float rng 25e-6) in
  let t0 = Meter.now_ns () in
  for i = 0 to n - 1 do
    ignore (Engine.step e);
    Engine.schedule e ~delay:delays.(i) ignore
  done;
  Meter.normalized_probe (float_of_int (Meter.now_ns () - t0)) /. float_of_int n

let telemetry_probe tel =
  let n = 200_000 in
  let t0 = Meter.now_ns () in
  for _ = 1 to n do
    Telemetry.incr tel "sim.events.processed"
  done;
  let t1 = Meter.now_ns () in
  for i = 1 to n do
    Telemetry.set_gauge tel "sim.queue_depth" (float_of_int i)
  done;
  let t2 = Meter.now_ns () in
  let per dt = Meter.normalized_probe (float_of_int dt) /. float_of_int n in
  (per (t1 - t0), per (t2 - t1))

let decision_code = function
  | Runtime.Forward d -> 4 * d
  | Runtime.Return_to_sender -> 1
  | Runtime.Dropped _ -> 2

let no_result =
  {
    Runtime.decision = Runtime.Return_to_sender;
    args_out = [||];
    executed = 0;
    passes = 0;
    port_recirculations = 0;
    pipelines = 0;
    quiesced = false;
    consumed_prefix = 0;
    final_mar = 0;
    final_mbr = 0;
    final_mbr2 = 0;
    forks = 0;
  }

(* Replay the captured stream on a twin switch: control operations go to
   the twin controller exactly as the fabric applied them, capsules run
   through [exec] in timed segments.  Returns exec ns, minor words,
   capsules executed and a digest of their results. *)
let replay_exec twin ~exec ~on_release ops =
  let c = twin.controller in
  let tables = Controller.tables c in
  let ns = ref 0 and words = ref 0 and executed = ref 0 and digest = ref 0 in
  let pending = ref [] in
  let flush () =
    let items = Array.of_list (List.rev !pending) in
    pending := [];
    let live = Array.map (fun (_, (p : Packet.t)) -> Table.installed tables ~fid:p.Packet.fid) items in
    let results = Array.make (Array.length items) no_result in
    let w0 = Meter.minor_words () and t0 = Meter.now_ns () in
    Array.iteri (fun i (meta, pkt) -> if live.(i) then results.(i) <- exec ~meta pkt) items;
    let t1 = Meter.now_ns () and w1 = Meter.minor_words () in
    ns := !ns + (t1 - t0);
    words := !words + (w1 - w0);
    Array.iteri
      (fun i (_, (pkt : Packet.t)) ->
        if live.(i) then begin
          incr executed;
          let r = results.(i) in
          let h = Meter.mix (Meter.mix !digest pkt.Packet.fid) pkt.Packet.seq in
          let h = Meter.mix h (decision_code r.Runtime.decision) in
          digest := Array.fold_left Meter.mix h r.Runtime.args_out
        end)
      items
  in
  let flush_if_any () = if !pending <> [] then flush () in
  List.iter
    (function
      | Exec (meta, pkt) -> pending := (meta, pkt) :: !pending
      | Request pkt ->
        flush_if_any ();
        ignore (Controller.handle_request c pkt)
      | Release fid ->
        flush_if_any ();
        ignore (Controller.handle_departure c ~fid);
        on_release fid
      | Ack fid ->
        flush_if_any ();
        Controller.complete_extraction c ~fid
      | Privilege fid ->
        flush_if_any ();
        Controller.grant_privilege c ~fid)
    ops;
  flush_if_any ();
  (!ns, !words, !executed, !digest)

(* ---- the workload entry points ---- *)

let rate (r : timed) = float_of_int r.completed /. (r.norm_ns *. 1e-9)
let measured_rate (r : timed) = float_of_int r.completed /. (float_of_int r.work_ns *. 1e-9)
let words (r : timed) = r.minor_words /. float_of_int (max 1 r.completed)

let common_report (cfg : config) (r : timed) ~setup_s =
  let first, last = Meter.deciles r.clock.Meter.drift in
  let attempted = r.completed + r.failed in
  Meter.
    [
      num "capsules_per_s" (rate r) "capsules/s" "at the reference kernel's nominal speed";
      num "capsules_per_s.measured" (measured_rate r) "capsules/s"
        (Printf.sprintf "%d replies in %.2f s of work" r.completed (float_of_int r.work_ns *. 1e-9));
      spread_line "capsules_per_s.slices" r.clock "capsules/s";
      num "reference_kernel_ns" (Meter.reference_nominal_ns *. float_of_int r.work_ns /. r.norm_ns) "ns"
        "mean time of one kernel run";
      num "capsule_words" (words r) "words/capsule" "";
      num "failed_frac"
        (if attempted = 0 then 0.0 else float_of_int r.failed /. float_of_int attempted)
        "ratio"
        (Printf.sprintf "%d of %d capsules got no reply" r.failed attempted);
      num "setup_s" setup_s "s" "median of 5 set-ups, nominal speed";
      num "top_heap_mb" r.peak_heap_mb "MB" "peak major heap in the timed region";
      num "live_heap_mb" r.live_heap_mb "MB" "after a full major GC at the end of the timed region";
      num "drift.first_decile_per_s" first "capsules/s" "";
      num "drift.last_decile_per_s" last "capsules/s" "";
      num "in_flight" (float_of_int cfg.in_flight) "capsules" "closed loop";
      num "churns" (float_of_int r.churns) "count" (Printf.sprintf "%d rejected" r.rejected_churns);
    ]

let run cfg ~seed ~seconds ~setup_s_of =
  let setup_s, sim = setup_s_of (fun () -> setup cfg ~seed ~jit:true) in
  let r = run_timed sim ~seconds in
  let problems = twin_check cfg ~seed ~iterations:r.iterations sim in
  let report =
    common_report cfg r ~setup_s
    @ [
        ("digest.prefix", Meter.hex sim.prefix_digest, "", Printf.sprintf "first %d replies" prefix_len);
        ("digest.full", Meter.hex sim.digest, "", Printf.sprintf "%d replies" sim.recorded);
      ]
  in
  {
    Meter.problems;
    attempted = r.completed + r.failed;
    failed = r.failed;
    report;
    layers = [];
    e2e =
      [
        ("rate_per_s", rate r);
        ("words_per_unit", words r);
        ("setup_s", setup_s);
        ("live_heap_mb", r.live_heap_mb);
      ];
  }

(* The traced run: half of the time untraced, half traced on a fresh
   set-up, then the probes.  Every ns figure is at the reference kernel's
   nominal speed, so the self times and the remainder add up to the
   traced work time per capsule. *)
let run_traced cfg ~seed ~seconds ~trace_path =
  let half = seconds /. 2.0 in
  let plain = run_timed (setup cfg ~seed ~jit:true) ~seconds:half in
  Gc.full_major ();
  let sim = setup cfg ~seed ~jit:true in
  let p = new_probe () in
  sim.probe <- Some p;
  let r = run_timed sim ~seconds:half in
  sim.probe <- None;
  Meter.write_spans p.spans trace_path;
  let problems = twin_check cfg ~seed ~iterations:r.iterations sim in
  let ops = List.rev p.capture in
  p.capture <- [];
  let jit_twin = setup cfg ~seed ~jit:true in
  let jit = Jit.create ~telemetry:jit_twin.tel (Controller.tables jit_twin.controller) in
  let jit_ns, jit_words, jit_n, jit_digest =
    replay_exec jit_twin ~exec:(fun ~meta pkt -> Jit.run jit ~meta pkt)
      ~on_release:(fun fid -> Jit.invalidate jit ~fid)
      ops
  in
  let jit_ns = Meter.normalized_probe (float_of_int jit_ns) in
  let interp_twin = setup cfg ~seed ~jit:false in
  let rt_ns, _, rt_n, rt_digest =
    replay_exec interp_twin
      ~exec:(fun ~meta pkt -> Runtime.run (Controller.tables interp_twin.controller) ~meta pkt)
      ~on_release:ignore ops
  in
  let rt_ns = Meter.normalized_probe (float_of_int rt_ns) in
  let problems =
    problems
    @
    if jit_digest <> rt_digest || jit_n <> rt_n then
      [
        Printf.sprintf "exec replay: JIT digest %s vs interpreter %s" (Meter.hex jit_digest)
          (Meter.hex rt_digest);
      ]
    else []
  in
  let units = float_of_int (max 1 r.completed) in
  let speed = Meter.speed r.clock in
  let ns x = float_of_int x *. speed /. units in
  let per x = float_of_int x /. units in
  let events_per_capsule = float_of_int r.events /. units in
  let steps = max 1 (p.switch_step.calls + p.deliver_step.calls) in
  let pending_mean = float_of_int p.pending_sum /. float_of_int steps in
  let heap_ns = heap_probe ~depth:(max 1 (int_of_float (Float.round pending_mean))) in
  let incr_ns, gauge_ns = telemetry_probe sim.tel in
  let jit_exec_ns = if jit_n = 0 then 0.0 else jit_ns /. float_of_int jit_n in
  let hits, misses, compiles = r.jit_stats in
  let wall = r.norm_ns /. units in
  let attributed =
    ns p.build.ns +. ns p.inject.ns +. ns p.switch_step.ns +. ns p.deliver_step.ns +. ns p.handler.ns
  in
  let fabric_self =
    ns p.inject.ns +. ns p.switch_step.ns +. ns p.deliver_step.ns -. jit_exec_ns
    -. (heap_ns *. events_per_capsule)
  in
  let first, last = Meter.deciles r.clock.Meter.drift in
  let layers =
    [
      ("client.build_ns", ns p.build.ns);
      ("client.build_words", per p.build.words);
      ("client.handler_ns", ns p.handler.ns);
      ("fabric.inject_ns", ns p.inject.ns);
      ("fabric.inject_words", per p.inject.words);
      ("engine.switch_step_ns", ns p.switch_step.ns);
      ("engine.switch_step_words", per p.switch_step.words);
      ("engine.deliver_step_ns", ns p.deliver_step.ns);
      ("engine.deliver_step_words", per p.deliver_step.words);
      ("engine.events_per_capsule", events_per_capsule);
      ("engine.pending_mean", pending_mean);
      ("engine.pending_max", float_of_int p.pending_max);
      ("engine.heap_ns", heap_ns);
      ("jit.exec_ns", jit_exec_ns);
      ("jit.exec_words", if jit_n = 0 then 0.0 else float_of_int jit_words /. float_of_int jit_n);
      ("runtime.exec_ns", if rt_n = 0 then 0.0 else rt_ns /. float_of_int rt_n);
      ("jit.hit_ratio", if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
      ("jit.compiles", float_of_int compiles);
      ("fabric.self_ns", fabric_self);
      ("telemetry.updates_per_capsule", float_of_int r.telemetry_updates /. units);
      ("telemetry.incr_ns", incr_ns);
      ("telemetry.set_gauge_ns", gauge_ns);
      ("gc.promoted_words_per_capsule", r.promoted_words /. units);
      ("gc.major_collections", float_of_int r.major_collections);
      ("trace_overhead_frac", 1.0 -. (rate r /. rate plain));
      ("wall_ns", wall);
      ("unattributed_ns", wall -. attributed);
      ("drift.last_over_first", if first > 0.0 then last /. first else 0.0);
      ("failed_frac", float_of_int r.failed /. float_of_int (max 1 (r.completed + r.failed)));
    ]
  in
  let report =
    Meter.
      [
        num "capsules_per_s (untraced half)" (rate plain) "capsules/s" "";
        num "capsules_per_s (traced half)" (rate r) "capsules/s" "";
        num "exec replay" (float_of_int jit_n) "capsules" "through Jit.run and Runtime.run twins";
        ("self time per capsule", "", "", "");
        num "  client.build" (ns p.build.ns) "ns" "";
        num "  fabric.inject" (ns p.inject.ns) "ns" "client capsules and server replies";
        num "  engine.switch_step" (ns p.switch_step.ns) "ns" "";
        num "  engine.deliver_step" (ns p.deliver_step.ns) "ns" "handler time excluded";
        num "  client.handler" (ns p.handler.ns) "ns" "";
        num "  unattributed" (wall -. attributed) "ns" "benchmark loop and clock reads";
        num "  = wall" wall "ns" "";
      ]
  in
  {
    Meter.problems;
    attempted = r.completed + r.failed;
    failed = r.failed;
    report;
    layers;
    e2e = [];
  }
