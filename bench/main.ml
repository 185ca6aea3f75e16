(* Regenerate every figure of the paper's evaluation (Section 6) plus the
   Section 5 resource comparison.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig5a fig9b  # a subset
     dune exec bench/main.exe -- --quick      # reduced trials/epochs
     dune exec bench/main.exe -- --quick alloc --metrics-out m.json

   --metrics-out FILE dumps the process-wide telemetry registry
   (counters, gauges, span histograms — see docs/TELEMETRY.md) as JSON
   after the selected experiments finish.  A section whose gates fail
   does not stop the ones after it: the run lists the failed sections
   last and exits 1.

   Output is plain text series (see lib/exp/report.ml); EXPERIMENTS.md
   records the headline numbers against the paper's.  The BENCH_alloc.json
   sections (alloc ... health) are declared in bench/section.ml's shape
   and listed in bench/sections.ml. *)

module E = Experiments
module Section = Activermt_bench.Section

type experiment = { name : string; info : string; run : quick:bool -> Section.result list }

(* A paper figure: plain text series, no gates. *)
let figure name info run = { name; info; run = (fun ~quick -> run ~quick; []) }

let params = Rmt.Params.default

let experiments =
  [
    figure "fig5a" "allocation time, pure workloads, mc vs lc"
      (fun ~quick ->
        let n = if quick then 100 else 500 in
        E.Fig5.run_5a ~n ~every:(n / 25) params);
    figure "fig5b" "allocation time, mixed workload, 10 trials, EWMA"
      (fun ~quick ->
        let n = if quick then 100 else 500 in
        let trials = if quick then 3 else 10 in
        E.Fig5.run_5b ~n ~trials ~every:(n / 25) params);
    figure "fig6" "memory utilization vs. arrivals, pure workloads"
      (fun ~quick ->
        let n = if quick then 100 else 500 in
        E.Fig6.run ~n ~every:(n / 25) params);
    figure "fig7" "online churn: utilization/concurrency/reallocation/fairness"
      (fun ~quick ->
        let epochs = if quick then 200 else 1000 in
        let trials = if quick then 3 else 10 in
        E.Fig7.run ~epochs ~trials ~every:(epochs / 20) E.Fig7.all params);
    figure "fig8a" "provisioning time breakdown per arrival"
      (fun ~quick ->
        let epochs = if quick then 100 else 300 in
        E.Fig8.run_8a ~epochs ~every:10 params);
    figure "fig8b" "processing latency vs. program length"
      (fun ~quick -> E.Fig8.run_8b ~packets:(if quick then 200 else 1000) params);
    figure "fig9a" "case study: monitor -> context switch -> cache"
      (fun ~quick:_ -> E.Case_study.print_9a params);
    figure "fig9b" "case study: four staggered cache tenants"
      (fun ~quick:_ -> E.Case_study.print_9b params);
    figure "fig10" "per-arrival zoom: provisioning gaps and disruption"
      (fun ~quick:_ -> E.Case_study.print_10 params);
    figure "fig11" "allocation schemes wf/ff/bf/realloc (boxplots)"
      (fun ~quick ->
        let trials = if quick then 3 else 10 in
        E.Fig11.run ~epochs:100 ~trials params);
    figure "fig12" "allocation time vs. block granularity"
      (fun ~quick -> E.Fig12.run ~n:(if quick then 50 else 100) params);
    figure "capacity" "Section 5 resource overheads and concurrency"
      (fun ~quick:_ -> E.Capacity.run params);
    figure "baseline" "comparisons: NetVRM-style allocator; monolithic-P4 deployment"
      (fun ~quick ->
        E.Baseline.run_netvrm ~n:(if quick then 100 else 400) params;
        E.Baseline.run_deployment ~changes:(if quick then 20 else 50) params);
    figure "ablation" "design-knob ablations: mutant budget, TCAM capacity"
      (fun ~quick ->
        let n = if quick then 50 else 150 in
        E.Ablation.run_mutant_limit ~n params;
        E.Ablation.run_tcam ~n:(if quick then 150 else 600) params;
        E.Ablation.run_bandwidth ~n:(if quick then 80 else 150) params);
    figure "extended" "beyond-paper: five-service churn workload"
      (fun ~quick ->
        E.Extended.run
          ~epochs:(if quick then 100 else 300)
          ~trials:(if quick then 2 else 5)
          params);
  ]
  @ List.map
      (fun (s : Section.t) -> { name = s.name; info = s.info; run = Section.bench s })
      Activermt_bench.Sections.all

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let metrics_out = ref None in
  let rec strip_metrics = function
    | [] -> []
    | "--metrics-out" :: path :: rest ->
      metrics_out := Some path;
      strip_metrics rest
    | "--metrics-out" :: [] ->
      prerr_endline "--metrics-out requires a FILE argument";
      exit 2
    | a :: rest when String.length a > 14 && String.sub a 0 14 = "--metrics-out=" ->
      metrics_out := Some (String.sub a 14 (String.length a - 14));
      strip_metrics rest
    | a :: rest -> a :: strip_metrics rest
  in
  let args = strip_metrics args in
  let wanted = List.filter (fun a -> a <> "--quick") args in
  let selected =
    if wanted = [] then experiments
    else begin
      List.iter
        (fun w ->
          if not (List.exists (fun e -> e.name = w) experiments) then begin
            Printf.eprintf "unknown experiment %S; available:\n" w;
            List.iter (fun e -> Printf.eprintf "  %-10s %s\n" e.name e.info) experiments;
            exit 2
          end)
        wanted;
      List.filter (fun e -> List.mem e.name wanted) experiments
    end
  in
  Printf.printf "ActiveRMT evaluation harness (%s mode, %d experiments)\n"
    (if quick then "quick" else "full")
    (List.length selected);
  (* Build and drop one device before anything is timed: its register
     file is the largest allocation here, and without it the first
     section of a fresh process reads alloc's pure p99 about twice as
     high as the runs that recorded bench/baseline_alloc.json, which
     built a device at start-up. *)
  ignore (Sys.opaque_identity (Rmt.Device.create params));
  let failed = Section.run_all ~quick (List.map (fun e -> (e.name, e.run)) selected) in
  (match !metrics_out with
  | None -> ()
  | Some path ->
    let module Telemetry = Activermt_telemetry.Telemetry in
    Telemetry.write_json Telemetry.default ~path;
    Printf.printf "wrote telemetry to %s\n" path);
  if failed <> [] then begin
    List.iter (fun (name, n) -> Printf.eprintf "%s bench: %d gate(s) failed\n" name n) failed;
    exit 1
  end
