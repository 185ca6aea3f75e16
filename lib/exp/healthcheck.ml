open Import
module Slo = Activermt_health.Slo
module Monitor = Activermt_health.Monitor

type config = {
  seed : int;
  fleet_k : int;
  fleet_pods : int;
  fleet_services : int;
  fleet_batch : int;
  fail_switches : int;
  chaos_services : int;
  tenants : int;
  inject_flap_storm : bool;
  storm_flaps : int;
}

let quick_config =
  {
    seed = 9001;
    fleet_k = 8;
    fleet_pods = 6;
    fleet_services = 1500;
    fleet_batch = 256;
    fail_switches = 2;
    chaos_services = 16;
    tenants = 8;
    inject_flap_storm = false;
    storm_flaps = 16;
  }

let default_config =
  { quick_config with fleet_services = 5000; fleet_batch = 512 }

(* Thresholds sit a comfortable margin above the healthy quick-config
   numbers (flap locality ~3.5%, a ~240-eviction designed reclamation
   burst, ~5 s modeled admission p99 dominated by eviction drains) so a
   clean run never pages while genuine regressions still trip. *)
let standing_slos =
  [
    Slo.ratio ~name:"fleet.admission"
      ~description:"fleet admits >= 95% of offered services" ~window:64
      ~good:"fleet.admitted" ~total:"fleet.offered" ~target:0.95 ();
    Slo.ratio ~name:"chaos.completion"
      ~description:"chaos services complete memsync >= 95%" ~window:160
      ~good:"chaos.completed" ~total:"chaos.services" ~target:0.95 ();
    Slo.quantile ~name:"tenant.admit_p99"
      ~description:"tenant admission p99 latency (modeled)" ~window:64
      ~series:"tenant.admit_latency_s" ~q:0.99 ~bound:8.0 ();
    Slo.stat ~name:"tenant.fairness"
      ~description:"Jain index over well-behaved tenants >= 0.9" ~window:64
      ~series:"tenant.jain" ~stat:Slo.Min ~cmp:`Ge ~bound:0.9 ();
    Slo.stat ~name:"route.locality"
      ~description:"route repair touches <= 5% of routed pairs" ~window:64
      ~series:"route.flap_frac" ~stat:Slo.Max ~cmp:`Le ~bound:0.05 ();
  ]

let watchdogs =
  [
    {
      Monitor.wd_name = "route.locality_storm";
      wd_description = "link flap storm: > 4 flaps inside 10 windows";
      wd_window = 10;
      wd_trigger = Monitor.Event_count { event = "topology.flap"; max = 4 };
      wd_severity = Slo.Page;
    };
    {
      Monitor.wd_name = "tenant.preemption_cascade";
      wd_description = "preemptive reclamation evicting far beyond the burst";
      wd_window = 20;
      wd_trigger = Monitor.Series_sum { series = "tenant.evictions"; max = 512.0 };
      wd_severity = Slo.Warn;
    };
    {
      Monitor.wd_name = "fleet.rejection_spike";
      wd_description = "fleet-wide admission rejections spiking";
      wd_window = 20;
      wd_trigger = Monitor.Series_sum { series = "fleet.rejected"; max = 256.0 };
      wd_severity = Slo.Warn;
    };
    {
      Monitor.wd_name = "fleet.jit_churn";
      wd_description = "JIT invalidation churn (mass migration thrash)";
      wd_window = 20;
      wd_trigger =
        Monitor.Series_sum { series = "fleet.jit.invalidations"; max = 512.0 };
      wd_severity = Slo.Warn;
    };
  ]

type result = {
  evaluations : Slo.evaluation list;
  incidents : Monitor.incident list;
  healthy : bool;
  monitor : Monitor.t;
  report : Json.t;
}

let run ?(log = ignore) cfg =
  (* One registry records all three phases.  One virtual clock places
     every fleet-phase window: it ticks one window per admission drain
     round / drill step.  Chaos and tenants record through their own
     modeled clocks (explicit [~at]), so nothing here ever reads wall
     time. *)
  let vclock = ref 0.0 in
  let telemetry = Telemetry.create ~windows:256 ~clock:(fun () -> !vclock) () in
  let mon = Monitor.create ~telemetry () in
  List.iter (Monitor.add_watchdog mon) watchdogs;
  let tracer = Trace.create ~sample:1.0 ~seed:cfg.seed () in
  (* Phase A: mini fleetscale — fat-tree admission, link-flap drill
     (plus the optional injected storm) and a small failure drill. *)
  let topo = Topology.fat_tree ~pods:cfg.fleet_pods ~k:cfg.fleet_k () in
  let fleet =
    Fleet.create ~policy:Placement.Hierarchical
      ~params:Fleet_scale.scenario_params ~telemetry ~tracer topo
  in
  log
    (Printf.sprintf "healthcheck: fat-tree k=%d pods=%d (%d switches), %d services"
       cfg.fleet_k cfg.fleet_pods (Topology.switches topo) cfg.fleet_services);
  let rec admit_chunks todo =
    match todo with
    | [] -> ()
    | _ ->
      let chunk, rest =
        let rec split i acc = function
          | x :: tl when i < cfg.fleet_batch -> split (i + 1) (x :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        split 0 [] todo
      in
      List.iter
        (fun (fid, kind) ->
          Fleet.enqueue_admission fleet ~fid (Harness.app_of_kind kind))
        chunk;
      Telemetry.add telemetry ~by:(List.length chunk) "fleet.offered";
      ignore (Fleet.drain_admissions fleet);
      vclock := !vclock +. 1.0;
      Monitor.check ~at:!vclock mon;
      admit_chunks rest
  in
  admit_chunks (Fleet_scale.arrivals ~n:cfg.fleet_services ~seed:cfg.seed);
  (* Link-flap drill against fully built routes: each transition is one
     [topology.flap] event carrying the flight-recorder trace that
     observed it, plus a [route.flap_frac] locality sample. *)
  Topology.build_all_routes topo;
  let routed = Topology.routed_pairs topo in
  let edge0 = 0 and agg0 = cfg.fleet_k / 2 in
  let flap ~up =
    let s0 = (Topology.stats topo).Topology.pairs_touched in
    ignore (Topology.set_link topo ~a:edge0 ~b:agg0 ~up);
    let touched = (Topology.stats topo).Topology.pairs_touched - s0 in
    let frac = float_of_int touched /. float_of_int (max 1 routed) in
    Telemetry.sample telemetry ~at:!vclock "route.flap_frac" frac;
    let trace_id =
      match
        Trace.start_trace tracer
          ~attrs:
            [
              ("link", Printf.sprintf "%d-%d" edge0 agg0);
              ("up", string_of_bool up);
              ("touched", string_of_int touched);
            ]
          "topology.flap"
      with
      | Some ctx -> Some ctx.Trace.trace_id
      | None -> None
    in
    Monitor.event mon ~t:!vclock ?trace_id "topology.flap";
    frac
  in
  let f_down = flap ~up:false in
  vclock := !vclock +. 1.0;
  let f_up = flap ~up:true in
  Monitor.check ~at:!vclock mon;
  log
    (Printf.sprintf "flap drill: %.4f%% down / %.4f%% up of %d routed pairs"
       (100.0 *. f_down) (100.0 *. f_up) routed);
  if cfg.inject_flap_storm then begin
    (* Breach injection: hammer the same uplink inside one window so the
       flap count blows through the storm watchdog. *)
    vclock := !vclock +. 1.0;
    for i = 1 to cfg.storm_flaps do
      ignore (flap ~up:(i mod 2 = 0))
    done;
    Monitor.check ~at:!vclock mon;
    log (Printf.sprintf "injected flap storm: %d transitions" cfg.storm_flaps)
  end;
  (* Failure drill: a couple of pod-1 switches go down one window apart;
     relocations exercise migration (and its JIT invalidations). *)
  let victims =
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    take cfg.fail_switches (Topology.pod_members topo ~pod:1)
  in
  List.iter
    (fun sw ->
      vclock := !vclock +. 1.0;
      ignore (Fleet.fail_switch fleet ~sw);
      Monitor.check ~at:!vclock mon)
    victims;
  (* Phase B: the chaos protocol stack under 1% loss; completion feeds
     the chaos.completion SLO through the engine's simulated clock. *)
  let chaos_cfg =
    {
      Chaos.default_config with
      Chaos.services = cfg.chaos_services;
      seed = cfg.seed;
    }
  in
  let chaos = Chaos.run ~telemetry chaos_cfg in
  log
    (Printf.sprintf "chaos: %d/%d completed (%.1f%%)" chaos.Chaos.completed
       cfg.chaos_services
       (100.0 *. chaos.Chaos.completion));
  (* Phase C: noisy-neighbor tenancy; admission latency, evictions and
     the Jain index land on the vswitch's modeled clock. *)
  let tenants_cfg =
    { (Tenants.preset ~tenants:cfg.tenants ()) with Tenants.seed = cfg.seed }
  in
  let tn = Tenants.run ~telemetry tenants_cfg in
  log
    (Printf.sprintf "tenants: jain %.3f, admit p99 %.3f s (modeled), %d evictions"
       tn.Tenants.jain_wb tn.Tenants.p99_admit_s tn.Tenants.evictions);
  (* Final verdict at the last fleet-phase instant. *)
  let slos = standing_slos in
  let evaluations = Monitor.evaluate ~at:!vclock mon slos in
  let incidents = Monitor.incidents mon in
  let healthy = Monitor.healthy mon in
  let config_json =
    Json.Obj
      [
        ("seed", Json.Num (float_of_int cfg.seed));
        ("fleet_k", Json.Num (float_of_int cfg.fleet_k));
        ("fleet_pods", Json.Num (float_of_int cfg.fleet_pods));
        ("fleet_services", Json.Num (float_of_int cfg.fleet_services));
        ("fleet_batch", Json.Num (float_of_int cfg.fleet_batch));
        ("fail_switches", Json.Num (float_of_int cfg.fail_switches));
        ("chaos_services", Json.Num (float_of_int cfg.chaos_services));
        ("tenants", Json.Num (float_of_int cfg.tenants));
        ("inject_flap_storm", Json.Bool cfg.inject_flap_storm);
        ("storm_flaps", Json.Num (float_of_int cfg.storm_flaps));
      ]
  in
  let scenario_json =
    Json.Obj
      [
        ("fleet_residents", Json.Num (float_of_int (List.length (Fleet.residents fleet))));
        ("routed_pairs", Json.Num (float_of_int routed));
        ("flap_frac", Json.Num (Float.max f_down f_up));
        ("chaos_completed", Json.Num (float_of_int chaos.Chaos.completed));
        ("chaos_completion", Json.Num chaos.Chaos.completion);
        ("tenant_jain", Json.Num tn.Tenants.jain_wb);
        ("tenant_p99_admit_s", Json.Num tn.Tenants.p99_admit_s);
        ("tenant_evictions", Json.Num (float_of_int tn.Tenants.evictions));
      ]
  in
  let report =
    match Monitor.json_report ~slos:evaluations mon with
    | Json.Obj fields ->
      Json.Obj (("config", config_json) :: ("scenario", scenario_json) :: fields)
    | other -> other
  in
  { evaluations; incidents; healthy; monitor = mon; report }

let summary_lines r =
  let slo_line (ev : Slo.evaluation) =
    Printf.sprintf "SLO %-18s %-4s measured=%.6g threshold=%.6g burn=%.3g/%.3g"
      ev.Slo.ev_slo.Slo.slo_name
      (Slo.status_name ev.Slo.ev_status)
      ev.Slo.ev_measured
      (Slo.threshold_of ev.Slo.ev_slo)
      ev.Slo.ev_burn_slow ev.Slo.ev_burn_fast
  in
  let incident_line (i : Monitor.incident) =
    Printf.sprintf "INCIDENT #%d at t=%.0f %s [%s] measured=%.6g threshold=%.6g traces=[%s]"
      i.Monitor.i_seq i.Monitor.i_at i.Monitor.i_source
      (Slo.status_name i.Monitor.i_severity)
      i.Monitor.i_measured i.Monitor.i_threshold
      (String.concat ","
         (List.map string_of_int i.Monitor.i_trace_ids))
  in
  List.map slo_line r.evaluations
  @ List.map incident_line r.incidents
  @ [
      Printf.sprintf "VERDICT %s (%d pages, %d warns, %d incidents)"
        (if r.healthy then "healthy" else "unhealthy")
        (Monitor.page_count r.monitor)
        (Monitor.warn_count r.monitor)
        (List.length r.incidents);
    ]
