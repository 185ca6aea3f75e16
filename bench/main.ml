(* Regenerate every figure of the paper's evaluation (Section 6) plus the
   Section 5 resource comparison, and run the Bechamel micro-benchmarks.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig5a fig9b  # a subset
     dune exec bench/main.exe -- --quick      # reduced trials/epochs
     dune exec bench/main.exe -- --quick alloc --metrics-out m.json

   --metrics-out FILE dumps the process-wide telemetry registry
   (counters, gauges, span histograms — see docs/TELEMETRY.md) as JSON
   after the selected experiments finish.

   Output is plain text series (see lib/exp/report.ml); EXPERIMENTS.md
   records the headline numbers against the paper's.  The BENCH_alloc.json
   sections (alloc ... health) are declared in bench/section.ml's shape
   and listed in bench/sections.ml. *)

module E = Experiments
module Section = Activermt_bench.Section

type experiment = { name : string; info : string; run : quick:bool -> unit }

let params = Rmt.Params.default

let experiments =
  [
    {
      name = "fig5a";
      info = "allocation time, pure workloads, mc vs lc";
      run =
        (fun ~quick ->
          let n = if quick then 100 else 500 in
          E.Fig5.run_5a ~n ~every:(n / 25) params);
    };
    {
      name = "fig5b";
      info = "allocation time, mixed workload, 10 trials, EWMA";
      run =
        (fun ~quick ->
          let n = if quick then 100 else 500 in
          let trials = if quick then 3 else 10 in
          E.Fig5.run_5b ~n ~trials ~every:(n / 25) params);
    };
    {
      name = "fig6";
      info = "memory utilization vs. arrivals, pure workloads";
      run =
        (fun ~quick ->
          let n = if quick then 100 else 500 in
          E.Fig6.run ~n ~every:(n / 25) params);
    };
    {
      name = "fig7";
      info = "online churn: utilization/concurrency/reallocation/fairness";
      run =
        (fun ~quick ->
          let epochs = if quick then 200 else 1000 in
          let trials = if quick then 3 else 10 in
          E.Fig7.run ~epochs ~trials ~every:(epochs / 20) E.Fig7.all params);
    };
    {
      name = "fig8a";
      info = "provisioning time breakdown per arrival";
      run =
        (fun ~quick ->
          let epochs = if quick then 100 else 300 in
          E.Fig8.run_8a ~epochs ~every:10 params);
    };
    {
      name = "fig8b";
      info = "processing latency vs. program length";
      run = (fun ~quick -> E.Fig8.run_8b ~packets:(if quick then 200 else 1000) params);
    };
    {
      name = "fig9a";
      info = "case study: monitor -> context switch -> cache";
      run = (fun ~quick:_ -> E.Case_study.print_9a params);
    };
    {
      name = "fig9b";
      info = "case study: four staggered cache tenants";
      run = (fun ~quick:_ -> E.Case_study.print_9b params);
    };
    {
      name = "fig10";
      info = "per-arrival zoom: provisioning gaps and disruption";
      run = (fun ~quick:_ -> E.Case_study.print_10 params);
    };
    {
      name = "fig11";
      info = "allocation schemes wf/ff/bf/realloc (boxplots)";
      run =
        (fun ~quick ->
          let trials = if quick then 3 else 10 in
          E.Fig11.run ~epochs:100 ~trials params);
    };
    {
      name = "fig12";
      info = "allocation time vs. block granularity";
      run = (fun ~quick -> E.Fig12.run ~n:(if quick then 50 else 100) params);
    };
    {
      name = "capacity";
      info = "Section 5 resource overheads and concurrency";
      run = (fun ~quick:_ -> E.Capacity.run params);
    };
    {
      name = "baseline";
      info = "comparisons: NetVRM-style allocator; monolithic-P4 deployment";
      run =
        (fun ~quick ->
          E.Baseline.run_netvrm ~n:(if quick then 100 else 400) params;
          E.Baseline.run_deployment ~changes:(if quick then 20 else 50) params);
    };
    {
      name = "ablation";
      info = "design-knob ablations: mutant budget, TCAM capacity";
      run =
        (fun ~quick ->
          let n = if quick then 50 else 150 in
          E.Ablation.run_mutant_limit ~n params;
          E.Ablation.run_tcam ~n:(if quick then 150 else 600) params;
          E.Ablation.run_bandwidth ~n:(if quick then 80 else 150) params);
    };
    {
      name = "extended";
      info = "beyond-paper: five-service churn workload";
      run =
        (fun ~quick ->
          E.Extended.run
            ~epochs:(if quick then 100 else 300)
            ~trials:(if quick then 2 else 5)
            params);
    };
  ]
  @ List.map
      (fun (s : Section.t) -> { name = s.name; info = s.info; run = Section.bench s })
      Activermt_bench.Sections.all
  @ [
      { name = "micro"; info = "Bechamel microbenchmarks"; run = (fun ~quick:_ -> Micro.run ()) };
    ]

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
  List.iter
    (fun e ->
      let t0 = Sys.time () in
      e.run ~quick;
      Printf.printf "\n[%s done in %.1fs cpu]\n" e.name (Sys.time () -. t0))
    selected;
  match !metrics_out with
  | None -> ()
  | Some path ->
    let module Telemetry = Activermt_telemetry.Telemetry in
    Telemetry.write_json Telemetry.default ~path;
    Printf.printf "wrote telemetry to %s\n" path
