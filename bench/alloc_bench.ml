(* Admit-throughput benchmark behind the allocation fast path
   (BENCH_alloc.json): replay pure and mixed arrival workloads against a
   fresh allocator and report arrivals/sec plus p50/p99 per-admit compute
   time.  The [baseline] block holds the numbers measured on the
   pre-fast-path sequential implementation (same machine, same seeded
   workloads, commit 2da735c) so the JSON always carries the before/after
   comparison the trajectory is judged on.

   Each workload runs against its own telemetry registry, so the
   JSON also carries the per-phase span breakdown (alloc.snapshot /
   alloc.enumerate / alloc.score / alloc.fill) that attributes where the
   admit time goes. *)

module Allocator = Activermt_alloc.Allocator
module App = Activermt_apps.App
module Stats = Stdx.Stats
module Telemetry = Activermt_telemetry.Telemetry
module Trace = Activermt_telemetry.Trace
module Json = Activermt_telemetry.Json

let params = Rmt.Params.default

let arrival_of ~fid kind =
  let app = Experiments.Harness.app_of_kind kind in
  {
    Allocator.fid;
    spec = App.spec app;
    elastic = app.App.elastic;
    demand_blocks = Array.copy app.App.demand_blocks;
  }

let arrivals_of_trace trace =
  List.concat_map
    (fun (e : Workload.Churn.epoch) ->
      List.filter_map
        (function
          | Workload.Churn.Arrive { fid; kind; _ } -> Some (arrival_of ~fid kind)
          | Workload.Churn.Depart _ -> None)
        e.Workload.Churn.events)
    trace

type run_stats = {
  workload : string;
  arrivals : int;
  admitted : int;
  wall_s : float;
  p50_ms : float;
  p99_ms : float;
  tel : Telemetry.t;  (* this configuration's registry: spans + counters *)
}

let throughput s = float_of_int s.arrivals /. s.wall_s

let measure ~workload arrivals =
  let tel = Telemetry.create () in
  let alloc = Allocator.create ~telemetry:tel params in
  let times = ref [] in
  let admitted = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun a ->
      match Allocator.admit alloc a with
      | Allocator.Admitted adm ->
        incr admitted;
        times := adm.Allocator.compute_time_s :: !times
      | Allocator.Rejected r -> times := r.Allocator.compute_time_s :: !times)
    arrivals;
  let wall_s = Unix.gettimeofday () -. t0 in
  let ms p = 1000.0 *. Stats.percentile !times p in
  {
    workload;
    arrivals = List.length arrivals;
    admitted = !admitted;
    wall_s;
    p50_ms = ms 50.0;
    p99_ms = ms 99.0;
    tel;
  }

let pure_trace ~n = Workload.Churn.arrivals_sequence Workload.Churn.Cache ~n

let mixed_trace ~n =
  Workload.Churn.mixed_arrivals ~n (Stdx.Prng.create ~seed:3001)

(* Measured on the seed implementation (two-pass enumeration, per-mutant
   Pool.slots/hashtable scoring, single core) with this same benchmark at
   n = 500 before the fast path landed. *)
let baseline =
  [
    ("pure", 7383.1, 0.104, 0.366);
    ("mixed", 414.0, 0.068, 12.299);
  ]

(* The per-admit phase spans recorded by the allocator, in hot-path
   order.  alloc.enumerate only fires on mutant-cache misses. *)
let phase_names =
  [ "alloc.admit"; "alloc.enumerate"; "alloc.snapshot"; "alloc.score"; "alloc.fill" ]

let json_of_phase (s : Telemetry.hist_summary) =
  Json.Obj
    [
      ("count", Json.Num (float_of_int s.Telemetry.count));
      ("total_ms", Json.Num (1000.0 *. s.Telemetry.sum));
      ("p50_ms", Json.Num (1000.0 *. s.Telemetry.p50));
      ("p99_ms", Json.Num (1000.0 *. s.Telemetry.p99));
      ("max_ms", Json.Num (1000.0 *. s.Telemetry.max));
    ]

let json_of_stats s =
  let phases =
    List.filter_map
      (fun name ->
        Option.map
          (fun sum -> (name, json_of_phase sum))
          (Telemetry.hist_summary s.tel name))
      phase_names
  in
  let counters =
    List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) (Telemetry.counters s.tel)
  in
  Json.Obj
    [
      ("workload", Json.Str s.workload);
      ("arrivals", Json.Num (float_of_int s.arrivals));
      ("admitted", Json.Num (float_of_int s.admitted));
      ("arrivals_per_sec", Json.Num (Float.round (10.0 *. throughput s) /. 10.0));
      ("p50_ms", Json.Num s.p50_ms);
      ("p99_ms", Json.Num s.p99_ms);
      ("phases", Json.Obj phases);
      ("counters", Json.Obj counters);
    ]

(* Flight-recorder overhead on the admit path: the same mixed workload
   with tracing off (a [Trace.noop] tracer — the default every component
   ships with), head-sampled at 1%, and fully sampled.  The "off" figure
   must stay within noise of the untraced runs above; the sampled figures
   quantify what --trace-out costs.  No gate reads it. *)
let measure_traced ~tracer arrivals =
  let alloc = Allocator.create ~telemetry:(Telemetry.create ()) ~tracer params in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (a : Allocator.arrival) ->
      let trace =
        Trace.start_trace tracer
          ~attrs:[ ("fid", string_of_int a.Allocator.fid) ]
          "bench.arrival"
      in
      ignore (Allocator.admit ?trace alloc a))
    arrivals;
  Unix.gettimeofday () -. t0

(* A single 500-arrival replay finishes in tens of milliseconds, so one
   sample is dominated by scheduler noise; best-of-N isolates the real
   per-arrival cost the overhead comparison is after. *)
let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    best := Float.min !best (f ())
  done;
  !best

let trace_section mixed =
  let n = List.length mixed in
  let reps = 5 in
  let t_off = best_of reps (fun () -> measure_traced ~tracer:Trace.noop mixed) in
  let sampled = Trace.create ~sample:0.01 () in
  let t_sampled =
    best_of reps (fun () ->
        Trace.reset sampled;
        measure_traced ~tracer:sampled mixed)
  in
  let full = Trace.create ~sample:1.0 () in
  let t_full =
    best_of reps (fun () ->
        Trace.reset full;
        measure_traced ~tracer:full mixed)
  in
  let tput t = Float.round (10.0 *. (float_of_int n /. t)) /. 10.0 in
  let overhead t = Float.round (1000.0 *. ((t -. t_off) /. t_off)) /. 10.0 in
  Printf.printf
    "trace overhead (mixed):  off %9.1f arrivals/s   1%% sampled %9.1f \
     (%+.1f%%)   full %9.1f (%+.1f%%)\n"
    (tput t_off) (tput t_sampled) (overhead t_sampled) (tput t_full)
    (overhead t_full);
  let cfg t tracer =
    Json.Obj
      [
        ("arrivals_per_sec", Json.Num (tput t));
        ("overhead_pct", Json.Num (overhead t));
        ("events", Json.Num (float_of_int (Trace.length tracer)));
      ]
  in
  Json.Obj
    [
      ("workload", Json.Str "mixed");
      ("arrivals", Json.Num (float_of_int n));
      ("off_arrivals_per_sec", Json.Num (tput t_off));
      ("sampled_1pct", cfg t_sampled sampled);
      ("full", cfg t_full full);
    ]

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

(* Environment stamp so comparisons are apples-to-apples: a regression
   gate should only trust records produced by the same code on a
   comparable machine.  The writer adds the mode ("quick"). *)
let json_meta ~n =
  Json.Obj
    [
      ("git_commit", Json.Str (git_commit ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("recommended_domains", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("arrivals_per_workload", Json.Num (float_of_int n));
    ]

let json_of_baseline (w, tput, p50, p99) =
  Json.Obj
    [
      ("workload", Json.Str w);
      ("arrivals_per_sec", Json.Num tput);
      ("p50_ms", Json.Num p50);
      ("p99_ms", Json.Num p99);
    ]

let print_stats s =
  Printf.printf
    "%-24s %5d arrivals (%d admitted)  %9.1f arrivals/s  p50 %.3f ms  p99 %.3f ms\n"
    s.workload s.arrivals s.admitted (throughput s) s.p50_ms s.p99_ms;
  List.iter
    (fun name ->
      match Telemetry.hist_summary s.tel name with
      | None -> ()
      | Some h ->
        Printf.printf
          "    %-18s count %5d  total %8.1f ms  p50 %.4f ms  p99 %.4f ms\n"
          name h.Telemetry.count (1000.0 *. h.Telemetry.sum)
          (1000.0 *. h.Telemetry.p50) (1000.0 *. h.Telemetry.p99))
    phase_names

let run ~quick =
  let n = if quick then 150 else 500 in
  Printf.printf "== Allocation fast path: admit throughput (n=%d) ==\n" n;
  let pure = arrivals_of_trace (pure_trace ~n) in
  let mixed = arrivals_of_trace (mixed_trace ~n) in
  let stats = [ measure ~workload:"pure" pure; measure ~workload:"mixed" mixed ] in
  List.iter print_stats stats;
  List.iter
    (fun (w, tput, p50, p99) ->
      Printf.printf "%-24s (seed implementation)  %9.1f arrivals/s  p50 %.3f ms  p99 %.3f ms\n"
        (w ^ "/baseline") tput p50 p99)
    baseline;
  (match List.find_opt (fun s -> s.workload = "mixed") stats with
  | Some s ->
    let base = List.assoc "mixed" (List.map (fun (w, t, _, _) -> (w, t)) baseline) in
    Printf.printf "mixed speedup vs seed baseline: %.1fx\n" (throughput s /. base)
  | None -> ());
  let trace = trace_section mixed in
  [
    json_meta ~n;
    trace;
    Json.Arr (List.map json_of_baseline baseline);
    Json.Arr (List.map json_of_stats stats);
  ]

(* Records match per workload. *)
let section =
  {
    Section.name = "alloc";
    info = "admit throughput for the allocation fast path (BENCH_alloc.json)";
    keys = [ "meta"; "trace"; "baseline_seq"; "fastpath" ];
    run;
    metrics =
      (fun file ->
        List.map
          (fun r -> (Section.str "workload" r, Section.nums [ "arrivals_per_sec"; "p99_ms" ] r))
          (Section.items "fastpath" file));
    gates =
      [
        Section.gate "arrivals_per_sec" (Max_drop 0.3);
        Section.gate "p99_ms" (Max_growth 2.0);
      ];
  }
