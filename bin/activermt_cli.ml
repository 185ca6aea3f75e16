module Spec = Activermt_compiler.Spec
module Mutant = Activermt_compiler.Mutant
module Allocator = Activermt_alloc.Allocator
module App = Activermt_apps.App
module Telemetry = Activermt_telemetry.Telemetry
module Timeseries = Activermt_telemetry.Timeseries
module Trace = Activermt_telemetry.Trace
module Json = Activermt_telemetry.Json

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1)
    fmt

let read_file path = In_channel.with_open_text path In_channel.input_all

let read_json path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e

(* The --summary-out and --report-out writer. *)
let write_json what json path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string ~pretty:true json);
      output_char oc '\n');
  Printf.printf "wrote %s to %s\n" what path

(* Split an arrival stream into admission epochs of [n]. *)
let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let chunk, rest = take n [] l in
    chunk :: chunks n rest

let write_metrics = function
  | None -> ()
  | Some path ->
    Telemetry.write_json Telemetry.default ~path;
    Printf.printf "wrote telemetry to %s\n" path

let write_series series = function
  | None -> ()
  | Some path ->
    Timeseries.write_json series ~path;
    Printf.printf "wrote %d series to %s\n"
      (List.length (Timeseries.names series))
      path

(* What --metrics-out, --series-out, --trace-out and --trace-sample ask of
   a simulation: a head-sampled flight recorder, a windowed time-series
   registry on the sim's virtual clock, and one step that dumps them with
   the default telemetry registry when the run finishes.  Without
   --trace-out / --series-out they are [Trace.noop] / [Timeseries.noop],
   and the run is bit-identical to a recording-free build. *)
type recorder = {
  tracer : Trace.t;
  series : Timeseries.t;
  finish : unit -> unit;
}

let recorder metrics_out series_out trace_out trace_sample =
  let tracer =
    match trace_out with
    | None -> Trace.noop
    | Some _ -> Trace.create ~sample:trace_sample ()
  in
  let series =
    match series_out with
    | None -> Timeseries.noop
    | Some _ -> Timeseries.create ()
  in
  let finish () =
    write_metrics metrics_out;
    write_series series series_out;
    Option.iter
      (fun path ->
        Trace.write_chrome tracer path;
        Printf.printf "wrote %d trace events to %s\n"
          (List.length (Trace.events tracer))
          path)
      trace_out
  in
  { tracer; series; finish }

(* Every simulation dump carries the jit.* stats lines — even commands
   (or runs) that never execute a capsule — so metric files from runs
   with and without --no-jit stay line-comparable.  Commands that build a
   fabric get the seeding from [Jit.create]; allocsim (control plane
   only) seeds here. *)
let seed_jit_metrics ~enabled =
  List.iter
    (fun c -> Telemetry.incr Telemetry.default ~by:0 c)
    [ "jit.compile"; "jit.hit"; "jit.miss"; "jit.invalidate" ];
  Telemetry.set_gauge Telemetry.default "jit.enabled"
    (if enabled then 1.0 else 0.0)

let params = Rmt.Params.default

let read_program path =
  match Activermt.Program.parse ~name:(Filename.basename path) (read_file path) with
  | Ok p -> p
  | Error e -> die "%s" e

let hex_of_bytes b =
  String.concat " "
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let print_analysis program =
  let spec = Spec.analyze program in
  Printf.printf "instructions: %d\n" spec.Spec.length;
  Printf.printf "memory accesses (0-based): [%s]\n"
    (String.concat "; " (List.map string_of_int (Array.to_list spec.Spec.accesses)));
  Printf.printf "minimum gaps: [%s]\n"
    (String.concat "; " (List.map string_of_int (Array.to_list spec.Spec.gaps)));
  (match spec.Spec.rts with
  | Some r -> Printf.printf "RTS at %d (ingress-constrained)\n" r
  | None -> print_endline "no RTS");
  List.iter
    (fun (policy, name) ->
      Printf.printf "mutants (%s): %d\n" name (Mutant.count params policy spec))
    [ (Mutant.Most_constrained, "most-constrained");
      (Mutant.Least_constrained, "least-constrained") ]

let cmd_asm path =
  let program = read_program path in
  print_string (Activermt.Program.to_assembly program);
  Printf.printf "\nbytecode (%d bytes incl. EOF):\n%s\n"
    (2 * (Activermt.Program.length program + 1))
    (hex_of_bytes (Activermt.Wire.encode_program program));
  print_newline ();
  print_analysis program

and cmd_disasm hex =
  let clean =
    String.concat "" (String.split_on_char ' ' (String.trim hex))
  in
  if String.length clean mod 4 <> 0 then
    die "expected pairs of 2-byte instruction headers";
  let bytes = Bytes.create (String.length clean / 2) in
  (try
     for i = 0 to Bytes.length bytes - 1 do
       Bytes.set_uint8 bytes i (int_of_string ("0x" ^ String.sub clean (2 * i) 2))
     done
   with Failure _ -> die "invalid hex");
  match Activermt.Wire.decode_program bytes ~off:0 with
  | Ok (program, _marks, _end) -> print_string (Activermt.Program.to_assembly program)
  | Error e -> die "%s" e

and cmd_mutants path policy =
  let program = read_program path in
  let spec = Spec.analyze program in
  let mutants = Mutant.enumerate params policy spec in
  Printf.printf "%d mutants (%s)\n" (List.length mutants)
    (Mutant.policy_to_string policy);
  List.iteri
    (fun i m ->
      if i < 50 then
        Printf.printf "  #%d stages=[%s] passes=%d%s\n" i
          (String.concat ";" (List.map string_of_int (Array.to_list m.Mutant.stages)))
          m.Mutant.passes
          (if m.Mutant.port_recirc then " +port-recirc" else ""))
    mutants;
  if List.length mutants > 50 then print_endline "  ..."

and cmd_allocsim spec_str mixed seed batch scheme policy domains no_jit
    { tracer; series; finish } =
  (* allocsim exercises only the control plane; the flag is accepted for
     symmetry with the other sim commands and recorded in the metrics. *)
  seed_jit_metrics ~enabled:(not no_jit);
  (* The series clock ticks one bucket per admission epoch (per arrival
     on the sequential path), so the dump shows admission outcomes over
     epochs rather than one flat bucket. *)
  let vclock = ref 0.0 in
  Timeseries.set_clock series (fun () -> !vclock);
  let alloc = Allocator.create ~scheme ~policy ~domains ~series ~tracer params in
  let next_fid = ref 0 in
  let service_of = function
    | "cache" -> Some Activermt_apps.Cache.service
    | "hh" | "heavy-hitter" -> Some Activermt_apps.Heavy_hitter.service
    | "lb" | "load-balancer" -> Some Activermt_apps.Cheetah_lb.service
    | "counter" | "flow-counter" -> Some Activermt_apps.Counter.service
    | "bloom" | "bloom-filter" -> Some Activermt_apps.Bloom.service
    | _ -> None
  in
  let named =
    String.split_on_char ',' spec_str
    |> List.concat_map (fun name ->
           let name = String.trim name in
           if name = "" then []
           else
             match service_of name with
             | None ->
               Printf.printf "?? unknown app %S (use cache|hh|lb|counter|bloom)\n"
                 name;
               []
             | Some app ->
               incr next_fid;
               [
                 ( name,
                   {
                     Allocator.fid = !next_fid;
                     spec = App.spec app;
                     elastic = app.App.elastic;
                     demand_blocks = app.App.demand_blocks;
                   } );
               ])
  in
  (* --mixed appends a seeded uniform-mix arrival stream (Figure 5b's
     shape) so batch-vs-sequential comparisons exercise enough load to
     see both admissions and rejections. *)
  let generated =
    match mixed with
    | None -> []
    | Some n ->
      let module Churn = Workload.Churn in
      let block_bytes = Rmt.Params.bytes_per_block params in
      Churn.mixed_arrivals ~n (Stdx.Prng.create ~seed)
      |> List.concat_map (fun (e : Churn.epoch) ->
             List.filter_map
               (function
                 | Churn.Arrive { fid = _; kind; _ } ->
                   incr next_fid;
                   Some
                     ( Churn.kind_to_string kind,
                       Experiments.Harness.arrival_of ~fid:!next_fid kind
                         ~block_bytes )
                 | Churn.Depart _ -> None)
               e.Churn.events)
  in
  let arrivals = named @ generated in
  (* Decisions only: the measured compute time is in --metrics-out's
     alloc.admit / alloc.admit_batch histograms, so stdout replays. *)
  let report name fid = function
    | Allocator.Admitted adm ->
      Printf.printf "fid %d (%s): admitted; stages %s; reallocated %d apps\n"
        fid name
        (String.concat ","
           (List.map
              (fun r -> string_of_int r.Allocator.stage)
              adm.Allocator.regions))
        (List.length adm.Allocator.reallocated)
    | Allocator.Rejected r ->
      Printf.printf "fid %d (%s): REJECTED after %d mutants\n" fid name
        r.Allocator.considered_mutants
  in
  if batch = 1 then
    (* The pre-batching sequential path, one admit per arrival: the
       reference side of the batch-decision-identity smoke. *)
    List.iter
      (fun (name, (a : Allocator.arrival)) ->
        let trace =
          Trace.start_trace tracer
            ~attrs:[ ("fid", string_of_int a.Allocator.fid); ("app", name) ]
            "allocsim.arrival"
        in
        report name a.Allocator.fid (Allocator.admit ?trace alloc a);
        vclock := !vclock +. 1.0)
      arrivals
  else begin
    (* Admit each epoch of [batch] arrivals through the batched pipeline. *)
    let epochs = ref 0 in
    let memo_hits = ref 0 and rescored = ref 0 in
    let stage_refills = ref 0 and refills_saved = ref 0 in
    List.iter
      (fun chunk ->
        incr epochs;
        let trace =
          Trace.start_trace tracer
            ~attrs:
              [
                ("epoch", string_of_int !epochs);
                ("batch", string_of_int (List.length chunk));
              ]
            "allocsim.epoch"
        in
        let b = Allocator.admit_batch ?trace alloc (List.map snd chunk) in
        List.iter2
          (fun (name, (a : Allocator.arrival)) o ->
            report name a.Allocator.fid o)
          chunk b.Allocator.outcomes;
        let s = b.Allocator.stats in
        memo_hits := !memo_hits + s.Allocator.memo_hits;
        rescored := !rescored + s.Allocator.rescored;
        stage_refills := !stage_refills + s.Allocator.stage_refills;
        refills_saved := !refills_saved + s.Allocator.refills_saved;
        vclock := !vclock +. 1.0)
      (chunks batch arrivals);
    Printf.printf
      "batch stats: %d epochs of <= %d, %d memo hits, %d rescored, %d stage \
       refills (%d saved)\n"
      !epochs batch !memo_hits !rescored !stage_refills !refills_saved
  end;
  Printf.printf "final utilization: %.3f\n" (Allocator.utilization alloc);
  finish ()

and cmd_churnsim clients batch resident seed summary_out { tracer; series; finish } =
  seed_jit_metrics ~enabled:true;
  let module Churn = Workload.Churn in
  let module Churn_pipeline = Experiments.Churn_pipeline in
  let zcfg =
    { Churn.default_zipf_config with Churn.clients; batch; resident_target = resident }
  in
  (* The pipeline rewires the registry clock to its modeled epoch clock. *)
  let r = Churn_pipeline.run ~tracer ~series ~params ~seed zcfg in
  (* Deterministic stdout: counts and the modeled virtual clock only — no
     wall-clock numbers — so same-seed runs print (and with --summary-out
     / --trace-out, dump) byte-identical artifacts, which the goldens in
     test/golden/ pin. *)
  Printf.printf "churnsim: %d clients, batch %d, resident target %d, seed %d\n"
    clients batch resident seed;
  Printf.printf "epochs %d: admitted %d, rejected %d, rescored %d, memo hits %d\n"
    r.Churn_pipeline.epochs r.Churn_pipeline.admitted r.Churn_pipeline.rejected
    r.Churn_pipeline.rescored r.Churn_pipeline.memo_hits;
  Printf.printf
    "fills: %d stage refills (%d saved); %d departures; %d residents (util %.3f)\n"
    r.Churn_pipeline.stage_refills r.Churn_pipeline.refills_saved
    r.Churn_pipeline.departures r.Churn_pipeline.final_residents
    r.Churn_pipeline.final_utilization;
  Printf.printf
    "modeled: %.6f s span, %.1f arrivals/s; tts p50 %.3f ms, p99 %.3f ms, max %.3f ms\n"
    r.Churn_pipeline.modeled_span_s r.Churn_pipeline.modeled_arrivals_per_sec
    r.Churn_pipeline.p50_tts_ms r.Churn_pipeline.p99_tts_ms
    r.Churn_pipeline.max_tts_ms;
  let num v = Json.Num v in
  let int v = Json.Num (float_of_int v) in
  Option.iter
    (write_json "churn summary"
       (Json.Obj
          [
            ("clients", int clients);
            ("batch", int batch);
            ("resident_target", int resident);
            ("seed", int seed);
            ("epochs", int r.Churn_pipeline.epochs);
            ("admitted", int r.Churn_pipeline.admitted);
            ("rejected", int r.Churn_pipeline.rejected);
            ("rescored", int r.Churn_pipeline.rescored);
            ("memo_hits", int r.Churn_pipeline.memo_hits);
            ("stage_refills", int r.Churn_pipeline.stage_refills);
            ("refills_saved", int r.Churn_pipeline.refills_saved);
            ("departures", int r.Churn_pipeline.departures);
            ("final_residents", int r.Churn_pipeline.final_residents);
            ("final_utilization", num r.Churn_pipeline.final_utilization);
            ("modeled_span_s", num r.Churn_pipeline.modeled_span_s);
            ( "modeled_arrivals_per_sec",
              num r.Churn_pipeline.modeled_arrivals_per_sec );
            ("p50_tts_ms", num r.Churn_pipeline.p50_tts_ms);
            ("p99_tts_ms", num r.Churn_pipeline.p99_tts_ms);
            ("max_tts_ms", num r.Churn_pipeline.max_tts_ms);
          ]))
    summary_out;
  finish ()

and cmd_fleetsim switches topo_kind k ft_pods leaves spines policy arrivals
    batch seed fail_sw pod_fail flap summary_out no_jit { tracer; series; finish } =
  let module Topology = Activermt_fleet.Topology in
  let module Placement = Activermt_fleet.Placement in
  let module Fleet = Activermt_fleet.Fleet in
  let module Churn = Workload.Churn in
  let topo =
    try
      match topo_kind with
      | `Mesh -> Topology.full_mesh ~switches ~latency_s:1e-5
      | `Line -> Topology.line ~switches ~latency_s:1e-5
      | `Star -> Topology.star ~switches ~latency_s:1e-5
      | `Fat_tree -> (
        match ft_pods with
        | Some pods -> Topology.fat_tree ~pods ~k ()
        | None -> Topology.fat_tree ~k ())
      | `Leaf_spine -> Topology.leaf_spine ~leaves ~spines ()
    with Invalid_argument e -> die "%s" e
  in
  (* Fat-tree / leaf-spine fleets derive their own switch count. *)
  let switches = Topology.switches topo in
  (match fail_sw with
  | Some sw when sw < 0 || sw >= switches ->
    die "--fail %d out of range for %d switches" sw switches
  | _ -> ());
  (match pod_fail with
  | Some p when p < 0 || p >= Topology.n_pods topo ->
    die "--pod-fail %d out of range for %d pods" p (Topology.n_pods topo)
  | _ -> ());
  (* One series bucket per admission epoch (per arrival when --batch 1). *)
  let vclock = ref 0.0 in
  Timeseries.set_clock series (fun () -> !vclock);
  let fleet = Fleet.create ~policy ~jit:(not no_jit) ~series ~tracer topo in
  let events =
    List.concat_map
      (fun (e : Churn.epoch) ->
        List.filter_map
          (function
            | Churn.Arrive { fid; kind; _ } -> Some (fid, kind)
            | Churn.Depart _ -> None)
          e.Churn.events)
      (Churn.mixed_arrivals ~n:arrivals (Stdx.Prng.create ~seed))
  in
  let topo_name =
    match topo_kind with
    | `Mesh -> "full mesh"
    | `Line -> "line"
    | `Star -> "star"
    | `Fat_tree -> Printf.sprintf "fat-tree k=%d" k
    | `Leaf_spine -> Printf.sprintf "leaf-spine %dx%d" leaves spines
  in
  Printf.printf
    "fleetsim: %d switches (%s, %d pods), %s placement, %d arrivals, seed %d%s\n"
    switches topo_name (Topology.n_pods topo)
    (Placement.policy_to_string policy)
    arrivals seed
    (if batch > 1 then Printf.sprintf ", batched x%d" batch else "");
  let halfway = List.length events / 2 in
  let fail_drill ~after =
    match fail_sw with
    | Some sw when Fleet.is_up fleet ~sw ->
      let { Fleet.relocated; lost } = Fleet.fail_switch fleet ~sw in
      Printf.printf
        "-- switch %d failed after %d arrivals: %d relocated, %d lost\n" sw
        after (List.length relocated) (List.length lost)
    | _ -> ()
  in
  if batch <= 1 then
    (* The sequential admit path, one placement per arrival. *)
    List.iteri
      (fun i (fid, kind) ->
        if i = halfway then fail_drill ~after:i;
        ignore (Fleet.admit fleet ~fid (Experiments.Harness.app_of_kind kind));
        vclock := !vclock +. 1.0)
      events
  else
    (* Push each epoch of [batch] arrivals through the fleet's
       enqueue/drain admission pipeline; the --fail drill fires before the
       epoch that spans the halfway mark. *)
    ignore
      (List.fold_left
         (fun i chunk ->
           let next = i + List.length chunk in
           if i <= halfway && halfway < next then fail_drill ~after:i;
           List.iter
             (fun (fid, kind) ->
               Fleet.enqueue_admission fleet ~fid
                 (Experiments.Harness.app_of_kind kind))
             chunk;
           ignore (Fleet.drain_admissions fleet);
           vclock := !vclock +. 1.0;
           next)
         0 (chunks batch events));
  (* Link-flap drill against fully built tables: one link of a shortest
     0 -> n-1 path goes down and comes back, and we report how many
     routed (src, dst) pairs each transition's repair touched. *)
  let flap_stats =
    if not flap then None
    else begin
      Topology.build_all_routes topo;
      let routed = Topology.routed_pairs topo in
      match Topology.next_hop topo ~src:0 ~dst:(switches - 1) with
      | None ->
        Printf.printf "link flap: switch 0 cannot reach %d, drill skipped\n"
          (switches - 1);
        None
      | Some b ->
        let s0 = Topology.stats topo in
        ignore (Topology.set_link topo ~a:0 ~b ~up:false);
        let s1 = Topology.stats topo in
        ignore (Topology.set_link topo ~a:0 ~b ~up:true);
        let s2 = Topology.stats topo in
        let down = s1.Topology.pairs_touched - s0.Topology.pairs_touched in
        let up = s2.Topology.pairs_touched - s1.Topology.pairs_touched in
        Printf.printf "link flap 0-%d: %d pairs touched down, %d up, of %d routed\n"
          b down up routed;
        Some (b, down, up, routed)
    end
  in
  (* Rolling pod failure: every live switch of the pod goes down one by
     one, each failure re-placing its residents on the survivors. *)
  let pod_stats =
    match pod_fail with
    | None -> None
    | Some pod ->
      let failed, relocated, lost =
        List.fold_left
          (fun (f, r, l) sw ->
            if Fleet.is_up fleet ~sw then
              let { Fleet.relocated; lost } = Fleet.fail_switch fleet ~sw in
              (f + 1, r + List.length relocated, l + List.length lost)
            else (f, r, l))
          (0, 0, 0)
          (Topology.pod_members topo ~pod)
      in
      Printf.printf
        "-- rolling pod %d failure: %d switches down, %d relocated, %d lost\n"
        pod failed relocated lost;
      Some (failed, relocated, lost)
  in
  (* With tracing on, probe a few resident services from clients homed on
     a different switch: each probe is a head-sampled capsule whose trace
     crosses the inter-switch bridge and executes where the service
     lives, linking data-plane stage events back to the control-plane
     provision span via the [admit.*] attributes. *)
  if Trace.enabled tracer then begin
    let module Memsync = Activermt_apps.Memsync in
    let vflags = { Activermt.Packet.no_flags with virtual_addressing = true } in
    let probed = ref 0 in
    List.iter
      (fun (fid, sw) ->
        if !probed < 8 then
          let alloc =
            Activermt_control.Controller.allocator (Fleet.controller fleet ~sw)
          in
          match Allocator.regions_of alloc ~fid with
          | Some ({ Allocator.stage; _ } :: _) ->
            let home = ref (-1) in
            for s = switches - 1 downto 0 do
              if s <> sw && Fleet.is_up fleet ~sw:s then home := s
            done;
            if !home >= 0 then begin
              incr probed;
              let client = 1000 + fid in
              Fleet.attach_client fleet ~client ~home:!home (fun _ -> ());
              let pkt =
                Activermt.Packet.exec ~flags:vflags ~fid ~seq:0
                  ~args:(Memsync.read_args ~index:0)
                  (Memsync.read_program ~stages:[ stage ])
              in
              Fleet.inject fleet ~client
                (Netsim.Fabric.msg ~src:client ~dst:sw
                   (Netsim.Fabric.Active pkt))
            end
          | Some [] | None -> ())
      (Fleet.residents fleet);
    Netsim.Engine.run (Fleet.engine fleet);
    Printf.printf "trace: probed %d services cross-switch\n" !probed
  end;
  let tel = Telemetry.default in
  if switches <= 64 then begin
    Printf.printf "%-8s %-5s %-10s %-12s\n" "switch" "up" "residents"
      "utilization";
    List.iter
      (fun { Placement.switch; utilization; residents; up } ->
        Printf.printf "%-8d %-5s %-10d %-12.3f\n" switch
          (if up then "yes" else "DOWN")
          residents utilization)
      (Fleet.loads fleet)
  end
  else Printf.printf "(%d switches; per-switch load table suppressed)\n" switches;
  let occupancy =
    match Telemetry.gauge_value tel "fleet.occupancy" with
    | Some v -> v
    | None -> 0.0
  in
  Printf.printf
    "admitted %d  rejected %d  spillover %d  migrated %d  lost %d  occupancy %.3f\n"
    (Telemetry.counter_value tel "fleet.admitted")
    (Telemetry.counter_value tel "fleet.rejected")
    (Telemetry.counter_value tel "fleet.spillover")
    (Telemetry.counter_value tel "fleet.migrated")
    (Telemetry.counter_value tel "fleet.lost")
    occupancy;
  (* Deterministic summary: counts and modeled occupancy only — no wall
     times — so same-seed runs dump byte-identical files. *)
  let int v = Json.Num (float_of_int v) in
  let counter c = int (Telemetry.counter_value tel c) in
  Option.iter
    (write_json "fleet summary"
       (Json.Obj
          ([
             ("topology", Json.Str topo_name);
             ("switches", int switches);
             ("links", int (Topology.n_links topo));
             ("pods", int (Topology.n_pods topo));
             ("policy", Json.Str (Placement.policy_to_string policy));
             ("arrivals", int arrivals);
             ("batch", int batch);
             ("seed", int seed);
             ("admitted", counter "fleet.admitted");
             ("rejected", counter "fleet.rejected");
             ("spillover", counter "fleet.spillover");
             ("migrated", counter "fleet.migrated");
             ("lost", counter "fleet.lost");
             ("adm_epochs", counter "fleet.adm.epochs");
             ("residents", int (List.length (Fleet.residents fleet)));
             ("occupancy", Json.Num occupancy);
           ]
          @ (match flap_stats with
            | None -> []
            | Some (b, down, up, routed) ->
              [
                ("flap_link_peer", int b);
                ("flap_down_touched", int down);
                ("flap_up_touched", int up);
                ("routed_pairs", int routed);
              ])
          @
          match pod_stats with
          | None -> []
          | Some (failed, relocated, lost) ->
            [
              ("pod_failed_switches", int failed);
              ("pod_relocated", int relocated);
              ("pod_lost", int lost);
            ])))
    summary_out;
  for sw = 0 to switches - 1 do
    Activermt.Jit.flush_stats (Netsim.Fabric.jit (Fleet.fabric fleet ~sw))
  done;
  finish ()

and cmd_faultsim services words loss dup corrupt jitter slow_ctl ctl_fail seed
    no_retries no_jit trace { tracer; series; finish } =
  let module Chaos = Experiments.Chaos in
  let module Faults = Netsim.Faults in
  let profile =
    {
      Faults.drop = loss;
      duplicate = dup;
      corrupt;
      jitter_s = jitter;
      flap_period_s = 0.0;
      flap_down_s = 0.0;
      table_update_slowdown = slow_ctl;
      table_update_fail = ctl_fail;
    }
  in
  let cfg =
    {
      Chaos.default_config with
      Chaos.services;
      words;
      seed;
      retries = not no_retries;
      profile;
      jit = not no_jit;
    }
  in
  Printf.printf
    "faultsim: %d services x %d words, seed %d, retries %s, jit %s\n\
     profile: drop %.3f dup %.3f corrupt %.3f jitter %gs ctl x%.1f ctl-fail %.3f\n"
    services words seed
    (if no_retries then "off" else "on")
    (if no_jit then "off" else "on")
    loss dup corrupt jitter slow_ctl ctl_fail;
  (* Chaos records on the simulation engine's clock (explicit ~t). *)
  let r = Chaos.run ~series ~tracer cfg in
  List.iter
    (fun (fid, o) ->
      Printf.printf "  fid %-3d %s\n" fid (Chaos.outcome_to_string o))
    r.Chaos.outcomes;
  Printf.printf
    "completion %.3f (%d/%d)  nego attempts %d (retries %d)  sync packets %d \
     (rtx %d)  fallback words %d\n"
    r.Chaos.completion r.Chaos.completed services r.Chaos.negotiation_attempts
    r.Chaos.negotiation_retries r.Chaos.sync_packets r.Chaos.sync_retransmits
    r.Chaos.fallback_words;
  Printf.printf "faults injected %d  sim time %.3fs\n" r.Chaos.fault_events
    r.Chaos.sim_time_s;
  if trace then
    List.iter
      (fun e -> Format.printf "%a@." Faults.pp_event e)
      (Faults.events r.Chaos.faults);
  finish ()

and cmd_tracequery path trace_id fid switch name_filter assert_cross =
  let raw =
    match Json.member "traceEvents" (read_json path) with
    | Some (Json.Arr l) -> l
    | _ -> die "%s: no traceEvents array" path
  in
  (* Reconstruct events from the Chrome dump: "X" slices carry the span
     triple (numbers) and the attributes (strings) in [args]; "M"
     metadata records are skipped. *)
  let num field obj = Option.bind (Json.member field obj) Json.to_num in
  let events =
    List.filter_map
      (fun ev ->
        match Json.member "ph" ev with
        | Some (Json.Str "X") ->
          let args =
            Option.value (Json.member "args" ev) ~default:(Json.Obj [])
          in
          let iget f =
            match num f args with Some v -> int_of_float v | None -> 0
          in
          let ts = Option.value (num "ts" ev) ~default:0.0 in
          let dur = Option.value (num "dur" ev) ~default:0.0 in
          let attrs =
            match Json.to_obj args with
            | Some kvs ->
              List.filter_map
                (fun (k, v) ->
                  match v with Json.Str s -> Some (k, s) | _ -> None)
                kvs
            | None -> []
          in
          Some
            {
              Trace.trace_id = iget "trace_id";
              span_id = iget "span_id";
              parent_span_id = iget "parent_span_id";
              t_start = ts /. 1e6;
              t_end = (ts +. dur) /. 1e6;
              name =
                (match Json.member "name" ev with
                | Some (Json.Str s) -> s
                | _ -> "");
              attrs;
            }
        | _ -> None)
      raw
  in
  (* Group into whole traces (first-appearance order); each filter keeps
     a trace when *some* event of it satisfies the filter, so the output
     always shows complete causal trees. *)
  let attr k (ev : Trace.event) = List.assoc_opt k ev.Trace.attrs in
  let order = ref [] and groups = Hashtbl.create 64 in
  List.iter
    (fun (ev : Trace.event) ->
      match Hashtbl.find_opt groups ev.Trace.trace_id with
      | Some l -> l := ev :: !l
      | None ->
        Hashtbl.add groups ev.Trace.trace_id (ref [ ev ]);
        order := ev.Trace.trace_id :: !order)
    events;
  let has p evs = List.exists p evs in
  let kept_trace tid evs =
    (match trace_id with None -> true | Some id -> tid = id)
    && (match fid with
       | None -> true
       | Some f -> has (fun e -> attr "fid" e = Some (string_of_int f)) evs)
    && (match switch with
       | None -> true
       | Some s -> has (fun e -> attr "switch" e = Some (string_of_int s)) evs)
    && match name_filter with
       | None -> true
       | Some n -> has (fun (e : Trace.event) -> e.Trace.name = n) evs
  in
  let kept =
    List.filter_map
      (fun tid ->
        let evs = List.rev !(Hashtbl.find groups tid) in
        if kept_trace tid evs then Some evs else None)
      (List.rev !order)
  in
  let kept_events = List.concat kept in
  print_string (Trace.render_tree kept_events);
  Printf.printf "%d of %d traces, %d events\n" (List.length kept)
    (Hashtbl.length groups) (List.length kept_events);
  if assert_cross then begin
    let cross =
      List.exists
        (fun evs ->
          let sws =
            List.sort_uniq compare (List.filter_map (attr "switch") evs)
          in
          List.length sws >= 2)
        kept
    in
    if cross then print_endline "cross-switch: ok"
    else die "no kept trace spans two or more switches"
  end

and cmd_trace path args_str privileged metrics_out =
  let program = read_program path in
  let spec = Spec.analyze program in
  let device = Rmt.Device.create params in
  let tables = Activermt.Table.create device in
  (* Give the program a whole-stage region at each compact access stage. *)
  let mutant = Mutant.identity spec in
  let regions = Array.make params.Rmt.Params.logical_stages None in
  Array.iter
    (fun s ->
      regions.(s) <-
        Some { Activermt.Packet.start_word = 0; n_words = params.Rmt.Params.words_per_stage })
    mutant.Mutant.stages;
  (match Activermt.Table.install ~privileged tables ~fid:1 ~virtual_addressing:true ~regions with
  | Ok () -> ()
  | Error _ -> failwith "trace: table installation failed");
  let args =
    match args_str with
    | None -> [||]
    | Some s ->
      String.split_on_char ',' s
      |> List.map (fun x ->
             match int_of_string_opt (String.trim x) with
             | Some v -> v
             | None -> die "bad argument %S" x)
      |> Array.of_list
  in
  if Array.length args > 4 then
    die "at most 4 arguments fit a capsule, got %d" (Array.length args);
  let pkt = Activermt.Packet.exec ~fid:1 ~seq:0 ~args program in
  let meta = Activermt.Runtime.meta ~src:100 ~dst:200 () in
  let r, events =
    Telemetry.with_span Telemetry.default "cli.trace" (fun () ->
        Activermt.Runtime.trace tables ~meta pkt)
  in
  Telemetry.incr Telemetry.default "cli.trace.packets";
  Telemetry.incr Telemetry.default "cli.trace.passes" ~by:r.Activermt.Runtime.passes;
  Telemetry.incr Telemetry.default "cli.trace.pipelines"
    ~by:r.Activermt.Runtime.pipelines;
  List.iter
    (fun e -> Format.printf "%a@." Activermt.Runtime.pp_trace_event e)
    events;
  Printf.printf "\noutcome: %s\n"
    (match r.Activermt.Runtime.decision with
    | Activermt.Runtime.Forward d -> Printf.sprintf "forwarded to %d" d
    | Activermt.Runtime.Return_to_sender -> "returned to sender"
    | Activermt.Runtime.Dropped _ -> "dropped");
  Printf.printf "passes: %d  pipelines: %d  RTT: %.2f us\n"
    r.Activermt.Runtime.passes r.Activermt.Runtime.pipelines
    (Activermt.Runtime.latency_us params r);
  Printf.printf "args out: [%s]\n"
    (String.concat "; "
       (List.map string_of_int (Array.to_list r.Activermt.Runtime.args_out)));
  write_metrics metrics_out

and cmd_p4gen () =
  print_string (Activermt_p4gen.Emit.emit Activermt_p4gen.Emit.default_config)

and cmd_apps () =
  List.iter
    (fun (app : App.t) ->
      let spec = App.spec app in
      Printf.printf "== %s (%s) ==\n" app.App.name
        (if app.App.elastic then "elastic" else "inelastic");
      Printf.printf "%s\n" (Activermt.Program.to_assembly spec.Spec.program))
    [
      Activermt_apps.Cache.service;
      Activermt_apps.Heavy_hitter.service;
      Activermt_apps.Cheetah_lb.service;
      Activermt_apps.Counter.service;
      Activermt_apps.Bloom.service;
    ]

(* routecheck: drive the incremental ECMP router across the canned
   topologies plus a battery of link flaps and switch failures, checking
   reachability, distances and first-hop sets against the retired
   Floyd-Warshall router ([Topology.all_pairs_reference]) after every
   transition.  Vacuity-guarded: the run fails unless it actually
   compared pairs, applied transitions, and observed multi-path ECMP
   somewhere — a refactor that silently skips the comparison must not
   pass. *)
let cmd_routecheck () =
  let module Topology = Activermt_fleet.Topology in
  let approx a b =
    a = b
    || Float.is_finite a && Float.is_finite b
       && Float.abs (a -. b)
          <= 1e-9 +. (1e-6 *. Float.max (Float.abs a) (Float.abs b))
  in
  let pairs = ref 0 and ecmp_multi = ref 0 and transitions = ref 0 in
  let errors = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr errors;
        Printf.eprintf "FAIL %s\n" s)
      fmt
  in
  let verify name phase topo =
    let n = Topology.switches topo in
    Topology.build_all_routes topo;
    let dist = Topology.all_pairs_reference topo in
    for s = 0 to n - 1 do
      for d = 0 to n - 1 do
        if s <> d then begin
          incr pairs;
          let reach = Topology.connected topo ~src:s ~dst:d in
          if reach <> Float.is_finite dist.(s).(d) then
            fail "%s/%s: %d-%d reachable=%b but oracle says %b" name phase s d
              reach
              (Float.is_finite dist.(s).(d));
          if reach then begin
            let lat = Topology.latency topo ~src:s ~dst:d in
            if not (approx lat dist.(s).(d)) then
              fail "%s/%s: %d-%d distance %g vs oracle %g" name phase s d lat
                dist.(s).(d);
            match Topology.next_hops topo ~src:s ~dst:d with
            | [] ->
              fail "%s/%s: %d-%d reachable but no first hop" name phase s d
            | hops ->
              if List.length hops > 1 then incr ecmp_multi;
              if Topology.next_hop topo ~src:s ~dst:d <> Some (List.hd hops)
              then
                fail "%s/%s: %d-%d next_hop is not the lowest ECMP hop" name
                  phase s d;
              List.iter
                (fun h ->
                  (* Every advertised hop must sit on a shortest path:
                     dist(s,d) = dist(s,h) + dist(h,d).  The s-h leg is
                     a single link, and the canned topologies all use
                     uniform per-link latency, so the direct link is
                     itself a shortest s-h path. *)
                  if not (approx dist.(s).(d) (dist.(s).(h) +. dist.(h).(d)))
                  then
                    fail "%s/%s: %d-%d hop %d is not on a shortest path" name
                      phase s d h)
                hops
          end
        end
      done
    done
  in
  let drill name topo =
    let n = Topology.switches topo in
    verify name "initial" topo;
    (* Flap the first link of a shortest 0 -> n-1 path, down then up,
       re-verifying the repaired tables after each transition. *)
    (match Topology.next_hop topo ~src:0 ~dst:(n - 1) with
    | Some b ->
      ignore (Topology.set_link topo ~a:0 ~b ~up:false);
      incr transitions;
      verify name "link-down" topo;
      ignore (Topology.set_link topo ~a:0 ~b ~up:true);
      incr transitions;
      verify name "link-up" topo
    | None -> ());
    (* Fail and restore a mid-fleet switch (isolate = every incident
       link down), which partitions line-like topologies. *)
    let sw = n / 2 in
    transitions := !transitions + Topology.isolate topo ~sw;
    verify name "isolate" topo;
    transitions := !transitions + Topology.restore topo ~sw;
    verify name "restore" topo;
    let st = Topology.stats topo in
    Printf.printf
      "%-14s %3d switches: %d sssp runs, %d repairs, %d pairs touched, %d flaps\n"
      name n st.Topology.sssp_runs st.Topology.repairs st.Topology.pairs_touched
      st.Topology.flaps
  in
  drill "mesh-6" (Topology.full_mesh ~switches:6 ~latency_s:1e-5);
  drill "line-5" (Topology.line ~switches:5 ~latency_s:1e-5);
  drill "star-7" (Topology.star ~switches:7 ~latency_s:1e-5);
  drill "fat-tree-k4" (Topology.fat_tree ~k:4 ());
  drill "leaf-spine-4x3" (Topology.leaf_spine ~leaves:4 ~spines:3 ());
  Printf.printf
    "routecheck: %d pair checks, %d transitions, %d multi-path pairs\n" !pairs
    !transitions !ecmp_multi;
  if !pairs = 0 then (
    incr errors;
    prerr_endline "FAIL routecheck: no pairs compared (vacuous run)");
  if !transitions = 0 then (
    incr errors;
    prerr_endline "FAIL routecheck: no link transitions applied (vacuous run)");
  if !ecmp_multi = 0 then (
    incr errors;
    prerr_endline "FAIL routecheck: no multi-path ECMP observed (vacuous run)");
  if !errors > 0 then begin
    Printf.eprintf "routecheck: %d failures\n" !errors;
    exit 1
  end;
  print_endline "routecheck: incremental router matches the Floyd-Warshall oracle"

open Cmdliner

let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM.asm")

let policy_arg =
  let pconv =
    Arg.conv
      ( (function
        | "mc" | "most-constrained" -> Ok Mutant.Most_constrained
        | "lc" | "least-constrained" -> Ok Mutant.Least_constrained
        | s -> Error (`Msg ("unknown policy " ^ s))),
        fun fmt p -> Format.pp_print_string fmt (Mutant.policy_to_string p) )
  in
  Arg.value
    (Arg.opt pconv Mutant.Most_constrained (Arg.info [ "policy" ] ~docv:"mc|lc"))

let scheme_arg =
  let sconv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Allocator.scheme_of_string s)),
        fun fmt s -> Format.pp_print_string fmt (Allocator.scheme_to_string s) )
  in
  Arg.value
    (Arg.opt sconv Allocator.Worst_fit
       (Arg.info [ "scheme" ] ~docv:"wf|ff|bf|realloc"))

let cmd_tenantsim tenants hostile_factor seed summary_out { series; finish; _ } =
  seed_jit_metrics ~enabled:true;
  let module Tenants = Experiments.Tenants in
  let cfg = { (Tenants.preset ~tenants ()) with Tenants.hostile_factor; seed } in
  (* The vswitch records on its modeled clock (explicit ~t). *)
  let r = Tenants.run ~telemetry:Telemetry.default ~series cfg in
  (* Deterministic stdout: the whole summary derives from the modeled
     clock and the seeded shuffle (no wall times), so same-config runs
     print — and with --summary-out, dump — byte-identical artifacts. *)
  print_string (Tenants.summary_lines r);
  let num v = Json.Num v in
  let int v = Json.Num (float_of_int v) in
  Option.iter
    (write_json "tenant summary"
       (Json.Obj
          [
            ("tenants", int tenants);
            ("hostile_factor", int hostile_factor);
            ("demand_blocks", int cfg.Tenants.demand_blocks);
            ("services_per_tenant", int cfg.Tenants.services_per_tenant);
            ("seed", int seed);
            ("capacity_blocks", int r.Tenants.capacity_blocks);
            ( "effective_capacity_blocks",
              int r.Tenants.effective_capacity_blocks );
            ("epochs", int r.Tenants.epochs);
            ("granted", int r.Tenants.granted);
            ("denied_quota", int r.Tenants.denied_quota);
            ("denied_capacity", int r.Tenants.denied_capacity);
            ("evictions", int r.Tenants.evictions);
            ("relocations", int r.Tenants.relocations);
            ("deferrals", int r.Tenants.deferrals);
            ("jain_wb", num r.Tenants.jain_wb);
            ("min_retained_wb", num r.Tenants.min_retained_wb);
            ("p50_admit_ms", num (1000.0 *. r.Tenants.p50_admit_s));
            ("p99_admit_ms", num (1000.0 *. r.Tenants.p99_admit_s));
            ("modeled_span_s", num r.Tenants.modeled_span_s);
            ("consistent", int (if r.Tenants.consistent then 1 else 0));
            ( "per_tenant",
              Json.Arr
                (List.map
                   (fun (o : Tenants.tenant_outcome) ->
                     Json.Obj
                       [
                         ("tenant", int o.Tenants.tenant);
                         ("hostile", int (if o.Tenants.hostile then 1 else 0));
                         ("offered_blocks", int o.Tenants.offered_blocks);
                         ("granted_blocks", int o.Tenants.granted_blocks);
                         ("fair_blocks", num o.Tenants.fair_blocks);
                         ("retained", num o.Tenants.retained);
                       ])
                   r.Tenants.per_tenant) );
          ]))
    summary_out;
  finish ()

(* healthcheck: run the health-plane scenario (mini fleetscale + chaos +
   tenants feeding one monitor), print the SLO table and incident log,
   optionally dump the deterministic report / series, and exit non-zero
   when any watchdog or SLO paged. *)
let cmd_healthcheck quick inject_flap_storm report_out series_out =
  let module H = Experiments.Healthcheck in
  let module Monitor = Experiments.Healthcheck.Monitor in
  let cfg =
    {
      (if quick then H.quick_config else H.default_config) with
      H.inject_flap_storm;
    }
  in
  let r = H.run ~log:print_endline cfg in
  List.iter print_endline (H.summary_lines r);
  Option.iter (write_json "health report" r.H.report) report_out;
  write_series (Monitor.series r.H.monitor) series_out;
  if not r.H.healthy then exit 1

(* fleettop: render a static text dashboard from a --series-out dump (or
   a healthcheck --report-out file, whose "series" member is the same
   shape).  Rows align on the newest bucket index across all series;
   sparklines cover the newest --last windows. *)
let cmd_fleettop path last filter =
  let dump =
    let json = read_json path in
    (* A health report embeds the series dump under "series". *)
    let json =
      match Json.member "series" json with
      | Some (Json.Obj _ as s) when Json.member "bucket_s" s <> None -> s
      | _ -> json
    in
    match Timeseries.dump_of_json json with
    | Ok d -> d
    | Error e -> die "%s: %s" path e
  in
  let series =
    match filter with
    | None -> dump.Timeseries.d_series
    | Some f ->
      List.filter
        (fun (name, _, _) ->
          let fl = String.length f and nl = String.length name in
          let rec at i = i + fl <= nl && (String.sub name i fl = f || at (i + 1)) in
          fl = 0 || at 0)
        dump.Timeseries.d_series
  in
  if series = [] then
    die "no series%s in %s"
      (match filter with Some f -> Printf.sprintf " matching %S" f | None -> "")
      path;
  (* Align every row on the registry-wide newest bucket. *)
  let newest =
    List.fold_left
      (fun acc (_, _, ws) ->
        List.fold_left (fun a (w : Timeseries.window) -> max a w.Timeseries.w_index) acc ws)
      0 series
  in
  let levels = [| " "; "_"; "."; ":"; "-"; "="; "+"; "*"; "#" |] in
  let spark values =
    let vmax = Array.fold_left Float.max 0.0 values in
    if vmax <= 0.0 then String.make (Array.length values) ' '
    else
      String.concat ""
        (Array.to_list
           (Array.map
              (fun v ->
                if v <= 0.0 then levels.(0)
                else
                  let l =
                    1 + int_of_float (v /. vmax *. 7.99)
                  in
                  levels.(min 8 l))
              values))
  in
  let row_values ws value_of =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (w : Timeseries.window) ->
        Hashtbl.replace tbl w.Timeseries.w_index (value_of w))
      ws;
    Array.init last (fun i ->
        let idx = newest - last + 1 + i in
        match Hashtbl.find_opt tbl idx with Some v -> v | None -> 0.0)
  in
  Printf.printf "fleettop: %s — bucket %gs, capacity %d, %d series, newest bucket %d\n"
    path dump.Timeseries.d_bucket_s dump.Timeseries.d_capacity
    (List.length series) newest;
  Printf.printf "%-34s %-7s %12s %12s  %s\n" "series" "kind" "total" "last"
    (Printf.sprintf "window[-%d..0]" (last - 1));
  let total_of ws value_of =
    List.fold_left (fun a w -> a +. value_of w) 0.0 ws
  in
  let render_section title rows =
    if rows <> [] then begin
      Printf.printf "-- %s --\n" title;
      List.iter
        (fun (name, kind, ws) ->
          let value_of (w : Timeseries.window) =
            match kind with
            | `Counter -> w.Timeseries.w_sum
            | `Dist -> w.Timeseries.w_max
          in
          let values = row_values ws value_of in
          let lastv = values.(last - 1) in
          let total =
            match kind with
            | `Counter -> total_of ws (fun w -> w.Timeseries.w_sum)
            | `Dist ->
              List.fold_left
                (fun a (w : Timeseries.window) -> Float.max a w.Timeseries.w_max)
                0.0 ws
          in
          Printf.printf "%-34s %-7s %12.6g %12.6g |%s|\n" name
            (match kind with `Counter -> "counter" | `Dist -> "dist")
            total lastv (spark values))
        rows
    end
  in
  let has_prefix p name =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  let is_sw (name, _, _) = has_prefix "fleet.sw." name in
  let is_fleet (name, _, _) = has_prefix "fleet." name in
  let is_tenant (name, _, _) = has_prefix "tenant." name in
  let sw_rows, rest = List.partition is_sw series in
  let fleet_rows, rest = List.partition is_fleet rest in
  let tenant_rows, other_rows = List.partition is_tenant rest in
  render_section "fleet" fleet_rows;
  render_section "per-switch" sw_rows;
  render_section "tenants" tenant_rows;
  render_section "other" other_rows

let asm_cmd =
  Cmd.v (Cmd.info "asm" ~doc:"assemble and analyze an active program")
    Term.(const cmd_asm $ path_arg)

let disasm_cmd =
  let hex = Arg.(required & pos 0 (some string) None & info [] ~docv:"HEX") in
  Cmd.v (Cmd.info "disasm" ~doc:"decode instruction bytes") Term.(const cmd_disasm $ hex)

let mutants_cmd =
  Cmd.v (Cmd.info "mutants" ~doc:"enumerate program mutants")
    Term.(const cmd_mutants $ path_arg $ policy_arg)

let positive_int =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some v when v >= 1 -> Ok v
        | Some v ->
          Error (`Msg (Printf.sprintf "expected a positive integer, got %d" v))
        | None -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))),
      fun fmt v -> Format.pp_print_int fmt v )

(* A float that must pass [ok]; NaN passes no range test.  Printed like
   [Arg.float], so defaults and --help=plain read the same. *)
let float_where expected ok =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* An int in [lo, hi], printed like [Arg.int]. *)
let int_between lo hi =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok v when v >= lo && v <= hi -> Ok v
    | Ok _ ->
      Error (`Msg (Printf.sprintf "expected an integer in [%d, %d], got %S" lo hi s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let probability =
  float_where "a probability in [0, 1]" (fun v -> v >= 0.0 && v <= 1.0)

let factor =
  float_where "a finite factor >= 1" (fun v -> Float.is_finite v && v >= 1.0)

let seconds =
  float_where "a finite number of seconds >= 0" (fun v ->
      Float.is_finite v && v >= 0.0)

let out_file_arg name doc =
  Arg.value
    (Arg.opt (Arg.some Arg.string) None (Arg.info [ name ] ~docv:"FILE" ~doc))

let metrics_out_arg =
  out_file_arg "metrics-out"
    "Dump the telemetry registry (counters, gauges, span histograms) as \
     JSON to $(docv) when the command finishes."

let series_out_arg =
  out_file_arg "series-out"
    "Record windowed time series (fixed-capacity rings of virtual-clock \
     buckets — counts, sums and percentile sketches per window) and dump \
     them as JSON to $(docv) when the command finishes.  Buckets come from \
     each sim's virtual clock, never wall time, so same-seed dumps are \
     byte-identical; render with $(b,fleettop)."

let recorder_arg =
  let trace_out_arg =
    out_file_arg "trace-out"
      "Enable the capsule flight recorder and dump the causal trace as \
       Chrome trace-event JSON (Perfetto-loadable) to $(docv) when the \
       command finishes.  Without this flag tracing is fully disabled and \
       the run is bit-identical to an untraced build."
  in
  let trace_sample_arg =
    Arg.value
      (Arg.opt probability 1.0
         (Arg.info [ "trace-sample" ] ~docv:"RATE"
            ~doc:"Head-sampling probability in [0,1] for new traces \
                  (default 1 = keep everything).  Sampling is seeded and \
                  deterministic: the same run keeps the same traces."))
  in
  Term.(
    const recorder $ metrics_out_arg $ series_out_arg $ trace_out_arg
    $ trace_sample_arg)

let seed_arg default =
  Arg.value (Arg.opt Arg.int default (Arg.info [ "seed" ] ~docv:"SEED"))

(* The OCaml 5 runtime caps a process at 128 domains. *)
let domains_arg =
  Arg.value
    (Arg.opt (int_between 1 128) 1
       (Arg.info [ "domains" ] ~docv:"N"
          ~doc:"Scoring fan-out width (>= 1): mutants are scored on $(docv) \
                domains against a per-arrival occupancy snapshot; decisions \
                are identical at any width."))

let no_jit_arg =
  Arg.value
    (Arg.flag
       (Arg.info [ "no-jit" ]
          ~doc:"Disable the data-plane specialization tier: every capsule \
                is interpreted.  Decisions and results are bit-identical \
                either way; only throughput (and the jit.* metrics) \
                change."))

let allocsim_cmd =
  let spec =
    Arg.(value & pos 0 string "" & info [] ~docv:"cache,hh,lb,...")
  in
  let mixed_arg =
    Arg.value
      (Arg.opt (Arg.some positive_int) None
         (Arg.info [ "mixed" ] ~docv:"N"
            ~doc:"Append $(docv) seeded uniform-mix arrivals (--seed) after \
                  the named apps, enough load to drive the pool to \
                  rejection — the batch-decision-identity smoke's workload."))
  in
  let batch_arg =
    Arg.value
      (Arg.opt positive_int 1
         (Arg.info [ "batch" ] ~docv:"N"
            ~doc:"Admit arrivals in epochs of $(docv) through the batched \
                  pipeline (Allocator.admit_batch).  The default 1 replays \
                  them one at a time through the sequential path; decisions \
                  are identical either way."))
  in
  Cmd.v (Cmd.info "allocsim" ~doc:"replay arrivals against the allocator")
    Term.(
      const cmd_allocsim $ spec $ mixed_arg $ seed_arg 3001 $ batch_arg
      $ scheme_arg $ policy_arg $ domains_arg $ no_jit_arg $ recorder_arg)

let churnsim_cmd =
  let clients_arg =
    Arg.value
      (Arg.opt positive_int 50_000
         (Arg.info [ "clients" ] ~docv:"N"
            ~doc:"Total simulated clients arriving over the run."))
  in
  let batch_arg =
    Arg.value
      (Arg.opt positive_int 64
         (Arg.info [ "batch" ] ~docv:"N" ~doc:"Arrivals per admission epoch."))
  in
  let target_arg =
    Arg.value
      (Arg.opt positive_int 64
         (Arg.info [ "target" ] ~docv:"N"
            ~doc:"Resident target: uniform departures trim the alive set \
                  back to $(docv) after each epoch."))
  in
  let summary_out_arg =
    out_file_arg "summary-out"
      "Write the deterministic churn summary (counts and modeled-clock \
       metrics only, no wall times) as JSON to $(docv); same-seed runs \
       produce byte-identical files."
  in
  Cmd.v
    (Cmd.info "churnsim"
       ~doc:"Zipf client churn through the batched epoch admission pipeline")
    Term.(
      const cmd_churnsim $ clients_arg $ batch_arg $ target_arg $ seed_arg 4242
      $ summary_out_arg $ recorder_arg)

let tenantsim_cmd =
  let tenants_arg =
    Arg.value
      (Arg.opt positive_int 8
         (Arg.info [ "tenants" ] ~docv:"N"
            ~doc:"Equal-weight tenants sharing the switch (tenant 0 is \
                  the noisy neighbor)."))
  in
  let hostile_arg =
    Arg.value
      (Arg.opt positive_int 10
         (Arg.info [ "hostile-factor" ] ~docv:"X"
            ~doc:"Hostile offered load as a multiple of its fair share."))
  in
  let summary_out_arg =
    out_file_arg "summary-out"
      "Write the deterministic scenario summary (modeled-clock metrics \
       only, no wall times) as JSON to $(docv); same-seed runs produce \
       byte-identical files."
  in
  (* No --trace-out: the scenario records no traces. *)
  let recorder_arg =
    Term.(
      const recorder $ metrics_out_arg $ series_out_arg $ const None
      $ const 1.0)
  in
  Cmd.v
    (Cmd.info "tenantsim"
       ~doc:"multi-tenant noisy-neighbor scenario: quotas, WRR admission, \
             preemptive reclamation")
    Term.(
      const cmd_tenantsim $ tenants_arg $ hostile_arg $ seed_arg 7
      $ summary_out_arg $ recorder_arg)

let fleetsim_cmd =
  let module Placement = Activermt_fleet.Placement in
  let switches_arg =
    Arg.value
      (Arg.opt positive_int 4
         (Arg.info [ "switches" ] ~docv:"N"
            ~doc:"Number of switches (mesh/line/star topologies; fat-tree \
                  and leaf-spine derive their own count)."))
  in
  let topo_arg =
    Arg.value
      (Arg.opt
         (Arg.enum
            [
              ("mesh", `Mesh);
              ("line", `Line);
              ("star", `Star);
              ("fat-tree", `Fat_tree);
              ("leaf-spine", `Leaf_spine);
            ])
         `Mesh
         (Arg.info [ "topology" ]
            ~docv:"mesh|line|star|fat-tree|leaf-spine"))
  in
  let k_arg =
    Arg.value
      (Arg.opt positive_int 4
         (Arg.info [ "k"; "arity" ] ~docv:"K"
            ~doc:"Fat-tree arity, even (--topology fat-tree)."))
  in
  let pods_arg =
    Arg.value
      (Arg.opt (Arg.some positive_int) None
         (Arg.info [ "pods" ] ~docv:"N"
            ~doc:"Fat-tree pods built out, 1..K (default $(b,K); \
                  --topology fat-tree)."))
  in
  let leaves_arg =
    Arg.value
      (Arg.opt positive_int 4
         (Arg.info [ "leaves" ] ~docv:"N"
            ~doc:"Leaf switches (--topology leaf-spine)."))
  in
  let spines_arg =
    Arg.value
      (Arg.opt positive_int 2
         (Arg.info [ "spines" ] ~docv:"N"
            ~doc:"Spine switches (--topology leaf-spine)."))
  in
  let policy_arg =
    let pconv =
      Arg.conv
        ( (fun s -> Result.map_error (fun e -> `Msg e) (Placement.policy_of_string s)),
          fun fmt p -> Format.pp_print_string fmt (Placement.policy_to_string p) )
    in
    Arg.value
      (Arg.opt pconv Placement.Least_loaded
         (Arg.info [ "policy" ]
            ~docv:"first-fit|least-loaded|locality|hierarchical"))
  in
  let arrivals_arg =
    Arg.value
      (Arg.opt positive_int 100
         (Arg.info [ "arrivals" ] ~docv:"N" ~doc:"Seeded mixed arrivals to offer."))
  in
  let batch_arg =
    Arg.value
      (Arg.opt positive_int 1
         (Arg.info [ "batch" ] ~docv:"N"
            ~doc:"Admit through the batched epoch pipeline in epochs of \
                  $(docv) (1 = the sequential admit path)."))
  in
  let fail_arg =
    Arg.value
      (Arg.opt (Arg.some Arg.int) None
         (Arg.info [ "fail" ] ~docv:"SWITCH"
            ~doc:"Fail this switch halfway through the arrival sequence; its \
                  resident services are re-placed on the survivors."))
  in
  let pod_fail_arg =
    Arg.value
      (Arg.opt (Arg.some Arg.int) None
         (Arg.info [ "pod-fail" ] ~docv:"POD"
            ~doc:"After admission, fail every switch of this pod one by one \
                  (rolling pod failure), re-placing residents on the \
                  survivors."))
  in
  let flap_arg =
    Arg.(
      value
      & flag
      & info [ "flap" ]
          ~doc:"After admission, take one link down and back up and report \
                how many routed (src, dst) pairs each transition's \
                incremental repair touched.")
  in
  let summary_out_arg =
    out_file_arg "summary-out"
      "Write the deterministic fleet summary (counts and modeled occupancy \
       only, no wall times) as JSON to $(docv); same-seed runs produce \
       byte-identical files."
  in
  Cmd.v
    (Cmd.info "fleetsim"
       ~doc:"replay a service workload against a multi-switch fleet")
    Term.(
      const cmd_fleetsim $ switches_arg $ topo_arg $ k_arg $ pods_arg
      $ leaves_arg $ spines_arg $ policy_arg $ arrivals_arg $ batch_arg
      $ seed_arg 7001 $ fail_arg $ pod_fail_arg $ flap_arg $ summary_out_arg
      $ no_jit_arg $ recorder_arg)

let routecheck_cmd =
  Cmd.v
    (Cmd.info "routecheck"
       ~doc:"check the incremental ECMP router against the Floyd-Warshall \
             oracle across canned topologies, link flaps and switch failures")
    Term.(const cmd_routecheck $ const ())

let faultsim_cmd =
  let prob ?(default = 0.0) name doc =
    Arg.value (Arg.opt probability default (Arg.info [ name ] ~docv:"P" ~doc))
  in
  let services_arg =
    Arg.value
      (Arg.opt positive_int 16
         (Arg.info [ "services" ] ~docv:"N" ~doc:"Concurrent service clients."))
  in
  let words_arg =
    Arg.value
      (Arg.opt positive_int 48
         (Arg.info [ "words" ] ~docv:"N" ~doc:"State words each service writes."))
  in
  let loss_arg = prob ~default:0.01 "loss" "Per-hop packet drop probability." in
  let dup_arg = prob "dup" "Packet duplication probability." in
  let corrupt_arg =
    prob "corrupt" "Byte-corruption probability (rejected by the wire checksum)."
  in
  let jitter_arg =
    Arg.value
      (Arg.opt seconds 0.0
         (Arg.info [ "jitter" ] ~docv:"SECONDS"
            ~doc:"Extra per-delivery delay, uniform in [0,$(docv)) — reorders."))
  in
  let slow_ctl_arg =
    Arg.value
      (Arg.opt factor 1.0
         (Arg.info [ "slow-ctl" ] ~docv:"FACTOR"
            ~doc:"Slow control-plane table updates by $(docv) (>= 1)."))
  in
  let ctl_fail_arg =
    prob "ctl-fail" "Probability a provisioning response is lost after commit."
  in
  let no_retries_arg =
    Arg.(
      value
      & flag
      & info [ "no-retries" ]
          ~doc:"Fire every packet exactly once (the baseline the recovery \
                machinery is measured against).")
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the fault-event trace.")
  in
  Cmd.v
    (Cmd.info "faultsim"
       ~doc:"run the allocation + memsync protocol stack under a seeded fault \
             profile")
    Term.(
      const cmd_faultsim $ services_arg $ words_arg $ loss_arg $ dup_arg
      $ corrupt_arg $ jitter_arg $ slow_ctl_arg $ ctl_fail_arg
      $ seed_arg 0xC4A05 $ no_retries_arg $ no_jit_arg $ trace_arg
      $ recorder_arg)

let tracequery_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.json")
  in
  let trace_id_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-id" ] ~docv:"ID" ~doc:"Show only this trace.")
  in
  let fid_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fid" ] ~docv:"FID"
          ~doc:"Keep traces with an event whose fid attribute is $(docv).")
  in
  let switch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "switch" ] ~docv:"SW"
          ~doc:"Keep traces with an event at switch $(docv).")
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"EVENT"
          ~doc:"Keep traces containing an event named $(docv), e.g. \
                fault.drop.")
  in
  let assert_cross_arg =
    Arg.(
      value
      & flag
      & info [ "assert-cross-switch" ]
          ~doc:"Exit non-zero unless some kept trace has events on two or \
                more distinct switches (CI smoke check).")
  in
  Cmd.v
    (Cmd.info "tracequery"
       ~doc:"filter a Chrome trace dump and print causal event trees")
    Term.(
      const cmd_tracequery $ path $ trace_id_arg $ fid_arg $ switch_arg
      $ name_arg $ assert_cross_arg)

let trace_cmd =
  let args_arg =
    Arg.(value & opt (some string) None & info [ "args" ] ~docv:"a0,a1,a2,a3")
  in
  let priv_arg = Arg.(value & flag & info [ "privileged" ]) in
  Cmd.v (Cmd.info "trace" ~doc:"execute a program on a fresh switch with a stage-by-stage trace")
    Term.(const cmd_trace $ path_arg $ args_arg $ priv_arg $ metrics_out_arg)

let apps_cmd =
  Cmd.v (Cmd.info "apps" ~doc:"print bundled example services")
    Term.(const cmd_apps $ const ())

let p4gen_cmd =
  Cmd.v
    (Cmd.info "p4gen"
       ~doc:"emit the ActiveRMT shared runtime as TNA-style P4-16")
    Term.(const cmd_p4gen $ const ())

let healthcheck_cmd =
  let quick_arg =
    Arg.(
      value
      & flag
      & info [ "quick" ]
          ~doc:"Run the smaller CI-sized scenario (1500 fleet services \
                instead of 5000).")
  in
  let storm_arg =
    Arg.(
      value
      & flag
      & info [ "inject-flap-storm" ]
          ~doc:"Force a breach: flap the pod-0 uplink 16 times inside one \
                window so the route-locality storm watchdog pages (the \
                command then exits non-zero, and the incident links the \
                offending topology.flap trace ids).")
  in
  let report_out_arg =
    out_file_arg "report-out"
      "Write the full deterministic health report (config, scenario \
       summary, SLO evaluations, incident log, series dump) as JSON to \
       $(docv); same-seed runs produce byte-identical files."
  in
  Cmd.v
    (Cmd.info "healthcheck"
       ~doc:"run the fleet health-plane scenario, evaluate SLO burn rates \
             and watchdogs, and exit non-zero on a page")
    Term.(
      const cmd_healthcheck $ quick_arg $ storm_arg $ report_out_arg
      $ series_out_arg)

let fleettop_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SERIES.json")
  in
  (* One character per window; the largest ring any simulator records
     is 256 windows. *)
  let last_arg =
    Arg.value
      (Arg.opt (int_between 1 4096) 48
         (Arg.info [ "last" ] ~docv:"N"
            ~doc:"Sparkline width: the newest $(docv) windows, aligned on \
                  the newest bucket across all series."))
  in
  let filter_arg =
    Arg.value
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "filter" ] ~docv:"SUBSTRING"
            ~doc:"Show only series whose name contains $(docv)."))
  in
  Cmd.v
    (Cmd.info "fleettop"
       ~doc:"render a per-switch / per-tenant text dashboard from a \
             --series-out dump or a healthcheck report")
    Term.(const cmd_fleettop $ path $ last_arg $ filter_arg)

let () =
  let info = Cmd.info "activermt" ~doc:"ActiveRMT tools (SIGCOMM 2023 reproduction)" in
  exit (Cmd.eval (Cmd.group info
       [ asm_cmd; disasm_cmd; mutants_cmd; allocsim_cmd; churnsim_cmd;
         tenantsim_cmd; fleetsim_cmd; routecheck_cmd; faultsim_cmd;
         healthcheck_cmd; fleettop_cmd; tracequery_cmd; trace_cmd; apps_cmd;
         p4gen_cmd ]))
