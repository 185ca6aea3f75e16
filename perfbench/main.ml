(* End-to-end benchmark with a per-layer breakdown.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: capsule-cache, capsule-mix (data plane through the
   simulated fabric) and arrival-churn (control plane).  The untraced
   run (--trace 0) prints the end-to-end metrics; the traced run
   (--trace 1) times every call the benchmark makes into a layer and
   prints the per-layer metrics, writing a sample of its spans as Chrome
   trace-event JSON under perfbench/_out/.  Both check the outputs
   against a twin and exit 1 on a mismatch.  The last line of standard
   output is the result object. *)

let end_to_end =
  [ ("rate_per_s", "1/s"); ("words_per_unit", "words"); ("setup_s", "s"); ("live_heap_mb", "MB") ]

(* Per-layer metrics, per capsule (capsule workloads) or per arrival
   (arrival-churn) unless the unit says otherwise.  A workload that does
   not exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("client.build_ns", "ns");
    ("client.build_words", "words");
    ("client.handler_ns", "ns");
    ("fabric.inject_ns", "ns");
    ("fabric.inject_words", "words");
    ("engine.switch_step_ns", "ns");
    ("engine.switch_step_words", "words");
    ("engine.deliver_step_ns", "ns");
    ("engine.deliver_step_words", "words");
    ("engine.events_per_capsule", "count");
    ("engine.pending_mean", "count");
    ("engine.pending_max", "count");
    ("engine.heap_ns", "ns");
    ("jit.exec_ns", "ns");
    ("jit.exec_words", "words");
    ("runtime.exec_ns", "ns");
    ("jit.hit_ratio", "ratio");
    ("jit.compiles", "count");
    ("fabric.self_ns", "ns");
    ("telemetry.updates_per_capsule", "count");
    ("telemetry.incr_ns", "ns");
    ("telemetry.set_gauge_ns", "ns");
    ("gc.promoted_words_per_capsule", "words");
    ("gc.major_collections", "count");
    ("controller.enqueue_ns", "ns");
    ("controller.drain_ns", "ns");
    ("controller.drain_words", "words");
    ("allocator.admit_batch_ns", "ns");
    ("controller.drain_self_ns", "ns");
    ("controller.depart_ns", "ns");
    ("controller.depart_words", "words");
    ("allocator.depart_ns", "ns");
    ("controller.depart_self_ns", "ns");
    ("controller.expanded_per_depart", "count");
    ("controller.installs_per_epoch", "count");
    ("allocator.memo_hit_ratio", "ratio");
    ("allocator.rescored_frac", "ratio");
    ("allocator.reject_frac", "ratio");
    ("controller.modeled_epoch_ms", "ms");
    ("trace_overhead_frac", "ratio");
    ("wall_ns", "ns");
    ("unattributed_ns", "ns");
    ("drift.last_over_first", "ratio");
    ("failed_frac", "ratio");
  ]

let workloads = [ "capsule-cache"; "capsule-mix"; "arrival-churn" ]
let setups = 5

(* Set up [setups] times, keep the last instance, and report the median
   set-up time at the reference kernel's nominal speed (timed before and
   after each set-up); earlier instances are collected before the next
   starts. *)
let setup_median f =
  let times = Array.make setups 0.0 in
  let last = ref None in
  for i = 0 to setups - 1 do
    last := None;
    Gc.full_major ();
    let r0 = Meter.reference_ns () in
    let t0 = Meter.now_ns () in
    let v = f () in
    let dt = float_of_int (Meter.now_ns () - t0) in
    let ref_ns = (r0 +. Meter.reference_ns ()) /. 2.0 in
    times.(i) <- Meter.normalize ~ns:dt ~ref_ns *. 1e-9;
    last := Some v
  done;
  (Meter.median times, Option.get !last)

let usage () =
  prerr_endline
    "usage: main.exe --workload capsule-cache|capsule-mix|arrival-churn --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      if !seed = None then usage ();
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      if !seconds = None then usage ();
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some t, Some tr when List.mem w workloads && t > 0.0 -> (w, s, t, tr)
  | _ -> usage ()

let () =
  let workload, seed, seconds, traced = parse Sys.argv in
  let trace_path = Printf.sprintf "perfbench/_out/trace-%s-seed%d.json" workload seed in
  Printf.printf "== perfbench %s seed=%d seconds=%g trace=%b ==\n%!" workload seed seconds traced;
  let r =
    match (workload, traced) with
    | "capsule-cache", false -> Capsule.run Capsule.cache_config ~seed ~seconds ~setup_s_of:setup_median
    | "capsule-mix", false -> Capsule.run Capsule.mix_config ~seed ~seconds ~setup_s_of:setup_median
    | "capsule-cache", true -> Capsule.run_traced Capsule.cache_config ~seed ~seconds ~trace_path
    | "capsule-mix", true -> Capsule.run_traced Capsule.mix_config ~seed ~seconds ~trace_path
    | "arrival-churn", false -> Arrival.run ~seed ~seconds ~setup_s_of:setup_median
    | _ -> Arrival.run_traced ~seed ~seconds ~trace_path
  in
  List.iter Meter.print_line r.Meter.report;
  let metrics =
    if traced then begin
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name per_layer) then failwith ("undeclared per-layer metric " ^ name))
        r.Meter.layers;
      print_endline "per-layer metrics:";
      List.map
        (fun (name, unit_) ->
          let v = Option.value ~default:0.0 (List.assoc_opt name r.Meter.layers) in
          Meter.print_line (Meter.num name v unit_ "");
          (name, unit_, v))
        per_layer
    end
    else List.map (fun (name, unit_) -> (name, unit_, List.assoc name r.Meter.e2e)) end_to_end
  in
  if traced then Printf.printf "spans: %s\n" trace_path;
  List.iteri
    (fun i p -> if i < 10 then Printf.printf "OUTPUT CHECK FAILED: %s\n" p)
    r.Meter.problems;
  let correct = r.Meter.problems = [] in
  print_endline
    (Meter.result_line ~correct ~attempted:(max 1 r.Meter.attempted) ~failed:r.Meter.failed metrics);
  if not correct then exit 1
