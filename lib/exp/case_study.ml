open Import
module Engine = Netsim.Engine
module Fabric = Netsim.Fabric
module Cache_client = Activermt_client.Cache_client
module Hh_client = Activermt_client.Hh_client
module Negotiate = Activermt_client.Negotiate
module Memsync_driver = Activermt_client.Memsync_driver

type config = {
  n_keys : int;
  zipf_exponent : float;
  request_rate_pps : float;
  populate_rate_pps : float;
  extract_compute_s : float;
  hh_window_s : float;
  refresh_base_s : float;
  seed : int;
}

let default_config =
  {
    n_keys = 300_000;
    zipf_exponent = 1.0;
    request_rate_pps = 20_000.0;
    populate_rate_pps = 100_000.0;
    extract_compute_s = 0.15;
    hh_window_s = 2.0;
    refresh_base_s = 0.1;
    seed = 99;
  }

type tenant_stats = {
  addr : int;
  fid : int;
  arrival_s : float;
  first_hit_s : float option;
  bins_hits : int array;
  bins_total : int array;
  n_buckets : int;
  disruptions : (float * float) list;
}

let hit_rate_window ts ~lo_ms ~hi_ms =
  let hits = ref 0 and total = ref 0 in
  let last = Array.length ts.bins_total - 1 in
  for b = max 0 lo_ms to min last hi_ms do
    hits := !hits + ts.bins_hits.(b);
    total := !total + ts.bins_total.(b)
  done;
  if !total = 0 then 0.0 else float_of_int !hits /. float_of_int !total

type result = { tenants : tenant_stats list; duration_s : float }

type mode = Plain | Monitor | Query

type tenant = {
  t_addr : int;
  t_fid_hh : int;
  t_fid_cache : int;
  t_arrival : float;
  t_use_monitor : bool;
  t_zipf : Zipf.t;
  mutable t_mode : mode;
  mutable t_cc : Cache_client.t option;
  mutable t_hh : Hh_client.t option;
  mutable t_seq : int;
  t_pending_pop : (int, unit) Hashtbl.t;
  mutable t_extract : Memsync_driver.t option;
  mutable t_thresholds : int array;
  mutable t_key0 : int array;
  mutable t_key1 : int array;
  mutable t_refresh : int;
  t_hits : int array;
  t_total : int array;
  mutable t_first_hit : float option;
}

let next_seq t =
  let s = t.t_seq in
  t.t_seq <- s + 1;
  s

type world = {
  cfg : config;
  params : Rmt.Params.t;
  engine : Engine.t;
  fabric : Fabric.t;
  controller : Controller.t;
  server : Fabric.address;
  extractors :
    (Activermt.Packet.fid, int array -> Kv.key option) Hashtbl.t;
  duration : float;
}

let make_world ?(policy = Mutant.Most_constrained) cfg params ~duration =
  let engine = Engine.create () in
  let device = Rmt.Device.create params in
  let controller =
    Controller.create ~mode:`Interactive ~policy
      ~extraction_timeout_s:2.0 device
  in
  let fabric = Fabric.create ~engine ~controller () in
  let server = 1 in
  let extractors = Hashtbl.create 8 in
  let w = { cfg; params; engine; fabric; controller; server; extractors; duration } in
  let serve key src =
    match Kv.rank_of_key key with
    | None -> ()
    | Some rank ->
      Fabric.send fabric
        { Fabric.src = server;
          dst = src;
          payload = Fabric.Kv_reply { key; value = Kv.value_of_rank rank }; trace = None }
  in
  Fabric.attach fabric server (fun msg ->
      match msg.Fabric.payload with
      | Fabric.Kv_request { key } -> serve key msg.Fabric.src
      | Fabric.Active pkt -> (
        match pkt.Activermt.Packet.payload with
        | Activermt.Packet.Exec { args; _ } -> (
          match Hashtbl.find_opt extractors pkt.Activermt.Packet.fid with
          | Some extract -> (
            match extract args with
            | Some key -> serve key msg.Fabric.src
            | None -> ())
          | None -> ())
        | Activermt.Packet.Request _ | Activermt.Packet.Response _
        | Activermt.Packet.Bare ->
          ())
      | Fabric.Kv_reply _ | Fabric.Alloc_failed | Fabric.Notify_realloc -> ());
  w

let record w t ~hit =
  let bin = int_of_float (Engine.now w.engine *. 1000.0) in
  let bin = min bin (Array.length t.t_total - 1) in
  t.t_total.(bin) <- t.t_total.(bin) + 1;
  if hit then begin
    t.t_hits.(bin) <- t.t_hits.(bin) + 1;
    if t.t_first_hit = None then t.t_first_hit <- Some (Engine.now w.engine)
  end

let send_active w t ~fid pkt =
  Fabric.send w.fabric
    { Fabric.src = t.t_addr; dst = w.server; payload = Fabric.Active pkt; trace = None };
  ignore fid

(* -- object request loop ------------------------------------------------ *)

let request_key t = Kv.key_of_rank (Zipf.sample t.t_zipf)

let send_request w t =
  let key = request_key t in
  match t.t_mode with
  | Plain ->
    Fabric.send w.fabric
      { Fabric.src = t.t_addr; dst = w.server; payload = Fabric.Kv_request { key }; trace = None }
  | Monitor -> (
    match t.t_hh with
    | Some hh ->
      send_active w t ~fid:t.t_fid_hh
        (Hh_client.monitor_packet hh ~seq:(next_seq t) key)
    | None -> ())
  | Query -> (
    match t.t_cc with
    | Some cc ->
      send_active w t ~fid:t.t_fid_cache
        (Cache_client.query_packet cc ~seq:(next_seq t) key)
    | None -> ())

let rec request_loop w t =
  if Engine.now w.engine < w.duration then begin
    send_request w t;
    Engine.schedule w.engine ~delay:(1.0 /. w.cfg.request_rate_pps) (fun () ->
        request_loop w t)
  end

(* -- cache population --------------------------------------------------- *)

let populate_objects w t objects =
  match t.t_cc with
  | None -> ()
  | Some cc ->
    let planned = Cache_client.plan_population cc ~objects in
    let interval = 1.0 /. w.cfg.populate_rate_pps in
    List.iteri
      (fun i (key, value) ->
        Engine.schedule w.engine ~delay:(float_of_int i *. interval) (fun () ->
            match t.t_cc with
            | Some cc ->
              let seq = next_seq t in
              Hashtbl.replace t.t_pending_pop seq ();
              send_active w t ~fid:t.t_fid_cache
                (Cache_client.populate_packet cc ~seq key ~value)
            | None -> ()))
      planned

let top_objects n =
  List.init n (fun rank -> (Kv.key_of_rank rank, Kv.value_of_rank rank))

(* Multiplicative refresh schedule: growing prefixes of the popularity
   ranking, starting 100 ms after the grant (Section 6.3). *)
let rec refresh_population w t =
  match t.t_cc with
  | None -> ()
  | Some cc ->
    let k = t.t_refresh in
    let chunk =
      min (Cache_client.n_buckets cc) (1024 * int_of_float (4.0 ** float_of_int k))
    in
    populate_objects w t (top_objects chunk);
    t.t_refresh <- k + 1;
    if chunk < Cache_client.n_buckets cc && Engine.now w.engine < w.duration then
      Engine.schedule w.engine
        ~delay:(w.cfg.refresh_base_s *. (2.0 ** float_of_int k))
        (fun () -> refresh_population w t)

(* -- heavy-hitter extraction (reliable data-plane memsync) -------------- *)

let extraction_send w t ~seq:_ pkt = send_active w t ~fid:t.t_fid_hh pkt

let rec extraction_tick w t =
  match t.t_extract with
  | None -> ()
  | Some driver ->
    ignore
      (Memsync_driver.tick driver ~now:(Engine.now w.engine)
         ~send:(extraction_send w t));
    Engine.schedule w.engine ~delay:0.02 (fun () -> extraction_tick w t)

let start_extraction w t =
  match t.t_hh with
  | None -> ()
  | Some hh ->
    t.t_mode <- Plain;
    let n = Hh_client.n_slots hh in
    let stages =
      [ Hh_client.threshold_stage hh; Hh_client.key0_stage hh;
        Hh_client.key1_stage hh ]
    in
    (* Reads are idempotent and acked via RTS: the driver retransmits on
       timeout, so extraction survives a lossy data plane. *)
    let driver =
      Memsync_driver.create ~fid:t.t_fid_hh ~stages ~count:n ~timeout_s:0.02
        Memsync_driver.Read
    in
    t.t_extract <- Some driver;
    Memsync_driver.start driver ~now:(Engine.now w.engine)
      ~send:(extraction_send w t);
    Engine.schedule w.engine ~delay:0.02 (fun () -> extraction_tick w t)

let finish_extraction w t =
  (* Context switch: release the monitor, request the cache allocation. *)
  send_active w t ~fid:t.t_fid_hh (Negotiate.release_packet ~fid:t.t_fid_hh);
  t.t_hh <- None;
  Engine.schedule w.engine ~delay:1.0e-4 (fun () ->
      send_active w t ~fid:t.t_fid_cache
        (Negotiate.request_packet ~fid:t.t_fid_cache ~seq:(next_seq t)
           Cache.service))

let memsync_reply w t driver ~seq args =
  if Memsync_driver.on_reply driver ~seq ~args && Memsync_driver.is_done driver
  then begin
    (match Memsync_driver.values driver with
    | [| thresholds; key0s; key1s |] ->
      t.t_thresholds <- thresholds;
      t.t_key0 <- key0s;
      t.t_key1 <- key1s
    | _ -> ());
    t.t_extract <- None;
    Engine.schedule w.engine ~delay:w.cfg.extract_compute_s (fun () ->
        finish_extraction w t)
  end

let frequent_objects t =
  Hh_client.frequent_items ~thresholds:t.t_thresholds ~key0s:t.t_key0
    ~key1s:t.t_key1
  |> List.filter_map (fun ((key : Kv.key), _count) ->
         match Kv.rank_of_key key with
         | Some rank -> Some (key, Kv.value_of_rank rank)
         | None -> None)

(* -- allocation protocol ------------------------------------------------ *)

let on_cache_grant w t regions =
  match
    Cache_client.create w.params ~policy:(Controller.allocator w.controller |> Allocator.policy)
      ~fid:t.t_fid_cache ~regions
  with
  | Error e -> failwith ("case study: cache synthesis failed: " ^ e)
  | Ok cc ->
    let fresh = t.t_cc = None in
    t.t_cc <- Some cc;
    t.t_refresh <- 0;
    t.t_mode <- Query;
    if t.t_use_monitor && fresh then
      (* Figure 9a: populate once from the extracted frequent items. *)
      populate_objects w t (frequent_objects t)
    else refresh_population w t

let on_hh_grant w t regions =
  match
    Hh_client.create w.params ~policy:(Controller.allocator w.controller |> Allocator.policy)
      ~fid:t.t_fid_hh ~regions
  with
  | Error e -> failwith ("case study: hh synthesis failed: " ^ e)
  | Ok hh ->
    t.t_hh <- Some hh;
    t.t_mode <- Monitor;
    Engine.schedule w.engine ~delay:w.cfg.hh_window_s (fun () -> start_extraction w t)

let on_realloc_notice w t =
  (* Pause, extract (modeled as client compute), ack; the switch answers
     with our new regions. *)
  t.t_mode <- Plain;
  Engine.schedule w.engine ~delay:w.cfg.extract_compute_s (fun () ->
      send_active w t ~fid:t.t_fid_cache
        (Negotiate.extraction_done_packet ~fid:t.t_fid_cache))

let tenant_handler w t msg =
  match msg.Fabric.payload with
  | Fabric.Kv_reply _ -> record w t ~hit:false
  | Fabric.Alloc_failed -> t.t_mode <- Plain
  | Fabric.Notify_realloc -> on_realloc_notice w t
  | Fabric.Kv_request _ -> ()
  | Fabric.Active pkt -> (
    match pkt.Activermt.Packet.payload with
    | Activermt.Packet.Response { status = Activermt.Packet.Granted; regions } ->
      if pkt.Activermt.Packet.fid = t.t_fid_hh && t.t_use_monitor then
        on_hh_grant w t regions
      else if pkt.Activermt.Packet.fid = t.t_fid_cache then
        on_cache_grant w t regions
    | Activermt.Packet.Response { status = Activermt.Packet.Rejected; _ } ->
      t.t_mode <- Plain
    | Activermt.Packet.Exec { args; _ } -> (
      let seq = pkt.Activermt.Packet.seq in
      match t.t_extract with
      | Some driver when pkt.Activermt.Packet.fid = t.t_fid_hh ->
        memsync_reply w t driver ~seq args
      | Some _ | None ->
        if Hashtbl.mem t.t_pending_pop seq then Hashtbl.remove t.t_pending_pop seq
        else record w t ~hit:true)
    | Activermt.Packet.Request _ | Activermt.Packet.Bare -> ())

let make_tenant w ~addr ~fid_base ~arrival ~use_monitor rng =
  let bins = int_of_float (w.duration *. 1000.0) + 1 in
  let t =
    {
      t_addr = addr;
      t_fid_hh = fid_base;
      t_fid_cache = fid_base + 100;
      t_arrival = arrival;
      t_use_monitor = use_monitor;
      t_zipf = Zipf.create ~exponent:w.cfg.zipf_exponent ~n:w.cfg.n_keys rng;
      t_mode = Plain;
      t_cc = None;
      t_hh = None;
      t_seq = 0;
      t_pending_pop = Hashtbl.create 1024;
      t_extract = None;
      t_thresholds = [||];
      t_key0 = [||];
      t_key1 = [||];
      t_refresh = 0;
      t_hits = Array.make bins 0;
      t_total = Array.make bins 0;
      t_first_hit = None;
    }
  in
  Fabric.attach w.fabric addr (tenant_handler w t);
  Fabric.register_fid w.fabric ~fid:t.t_fid_hh ~owner:addr;
  Fabric.register_fid w.fabric ~fid:t.t_fid_cache ~owner:addr;
  Hashtbl.replace w.extractors t.t_fid_hh (fun args ->
      if Array.length args >= 2 then Some { Kv.k0 = args.(0); k1 = args.(1) }
      else None);
  Hashtbl.replace w.extractors t.t_fid_cache (fun args ->
      if Array.length args >= 3 then Some { Kv.k0 = args.(1); k1 = args.(2) }
      else None);
  (* Arrival: start the request loop and negotiate the first allocation. *)
  Engine.schedule_at w.engine ~time:arrival (fun () ->
      request_loop w t;
      let fid = if use_monitor then t.t_fid_hh else t.t_fid_cache in
      let app = if use_monitor then Heavy_hitter.service else Cache.service in
      send_active w t ~fid (Negotiate.request_packet ~fid ~seq:(next_seq t) app));
  t

(* Post-hoc: zero-hit windows after the tenant first became operational. *)
let find_disruptions t ~duration =
  match t.t_first_hit with
  | None -> []
  | Some first ->
    let bins = Array.length t.t_total in
    let first_bin = int_of_float (first *. 1000.0) in
    let out = ref [] in
    let start = ref (-1) in
    let min_window = 20 in
    for b = first_bin to bins - 1 do
      let dead = t.t_total.(b) > 0 && t.t_hits.(b) = 0 in
      if dead && !start < 0 then start := b
      else if (not dead) && t.t_total.(b) > 0 && !start >= 0 then begin
        if b - !start >= min_window then
          out := (float_of_int !start /. 1000.0, float_of_int b /. 1000.0) :: !out;
        start := -1
      end
    done;
    if !start >= 0 && bins - !start >= min_window then
      out := (float_of_int !start /. 1000.0, duration) :: !out;
    List.rev !out

let stats_of w t =
  {
    addr = t.t_addr;
    fid = t.t_fid_cache;
    arrival_s = t.t_arrival;
    first_hit_s = t.t_first_hit;
    bins_hits = t.t_hits;
    bins_total = t.t_total;
    n_buckets = (match t.t_cc with Some cc -> Cache_client.n_buckets cc | None -> 0);
    disruptions = find_disruptions t ~duration:w.duration;
  }

let run_single ?(config = default_config) params =
  let duration = 8.0 in
  let w = make_world config params ~duration in
  let rng = Prng.create ~seed:config.seed in
  let t =
    make_tenant w ~addr:11 ~fid_base:301 ~arrival:0.0 ~use_monitor:true
      (Prng.split rng)
  in
  Engine.run ~until:duration w.engine;
  { tenants = [ stats_of w t ]; duration_s = duration }

let run_multi ?(config = default_config) ?(n_tenants = 4) ?(stagger_s = 5.0) params =
  let duration = (stagger_s *. float_of_int n_tenants) +. 5.0 in
  let w = make_world config params ~duration in
  let rng = Prng.create ~seed:config.seed in
  let tenants =
    List.init n_tenants (fun i ->
        make_tenant w ~addr:(11 + i) ~fid_base:(301 + i)
          ~arrival:(stagger_s *. float_of_int i)
          ~use_monitor:false (Prng.split rng))
  in
  Engine.run ~until:duration w.engine;
  { tenants = List.map (stats_of w) tenants; duration_s = duration }

(* -- printing ------------------------------------------------------------ *)

let print_timeline ?(window_ms = 100) ts ~duration =
  let bins = int_of_float (duration *. 1000.0) in
  let rows = ref [] in
  let t = ref 0 in
  while !t < bins do
    let cells =
      List.map
        (fun s ->
          Report.float_cell (hit_rate_window s ~lo_ms:!t ~hi_ms:(!t + window_ms - 1)))
        ts
    in
    rows := (!t, cells) :: !rows;
    t := !t + window_ms
  done;
  Report.series
    ~columns:("ms" :: List.map (fun s -> Printf.sprintf "hit_rate_fid%d" s.fid) ts)
    (List.rev !rows)

let print_9a params =
  Report.figure ~id:"Figure 9a"
    ~title:"case study: HH monitor -> context switch -> cache (hit rate over time)";
  let r = run_single params in
  print_timeline r.tenants ~duration:r.duration_s;
  let t = List.hd r.tenants in
  Report.summary
    [
      ( "first cache hit at (s)",
        match t.first_hit_s with Some v -> Report.float_cell v | None -> "never" );
      ("cache buckets", Report.int_cell t.n_buckets);
      ( "stable hit rate (last 2 s)",
        Report.float_cell
          (hit_rate_window t
             ~lo_ms:(int_of_float ((r.duration_s -. 2.0) *. 1000.0))
             ~hi_ms:(int_of_float (r.duration_s *. 1000.0))) );
    ]

let print_9b params =
  Report.figure ~id:"Figure 9b"
    ~title:"case study: four staggered cache tenants (hit rate over time)";
  let r = run_multi params in
  print_timeline ~window_ms:250 r.tenants ~duration:r.duration_s;
  Report.summary
    (List.map
       (fun t ->
         ( Printf.sprintf "tenant fid %d (arrived %.0fs)" t.fid t.arrival_s,
           Printf.sprintf "buckets=%d stable_hit_rate=%.3f" t.n_buckets
             (hit_rate_window t
                ~lo_ms:(int_of_float ((r.duration_s -. 2.0) *. 1000.0))
                ~hi_ms:(int_of_float (r.duration_s *. 1000.0))) ))
       r.tenants)

let print_10 params =
  Report.figure ~id:"Figure 10"
    ~title:"per-arrival zoom: provisioning gaps and the reallocation disruption";
  let r = run_multi params in
  List.iter
    (fun t ->
      Printf.printf "\n- tenant fid %d (arrival %.1fs)\n" t.fid t.arrival_s;
      let lo = int_of_float (t.arrival_s *. 1000.0) in
      let rows =
        List.init 150 (fun i ->
            let b = lo + (i * 10) in
            ( b,
              [ Report.float_cell (hit_rate_window t ~lo_ms:b ~hi_ms:(b + 9)) ] ))
      in
      Report.series ~every:5 ~columns:[ "ms"; "hit_rate(10ms)" ] rows;
      Report.summary
        [
          ( "provisioning gap (arrival -> first hit, s)",
            match t.first_hit_s with
            | Some v -> Report.float_cell (v -. t.arrival_s)
            | None -> "never" );
          ( "disruptions (s)",
            if t.disruptions = [] then "none"
            else
              String.concat "; "
                (List.map
                   (fun (a, b) -> Printf.sprintf "%.3f-%.3f (%.0f ms)" a b ((b -. a) *. 1000.0))
                   t.disruptions) );
        ])
    r.tenants
