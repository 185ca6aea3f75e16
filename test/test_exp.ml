(* Tests for the experiment machinery itself: the report formatter, the
   NetVRM-style baseline, and smoke runs of the figure drivers at tiny
   sizes (they must run, stay deterministic and uphold their own
   invariants — full-size outputs are the bench harness's job). *)

module Netvrm = Activermt_alloc.Netvrm
module Harness = Experiments.Harness
module Churn = Workload.Churn

let params = Rmt.Params.default

(* -- NetVRM-style baseline ------------------------------------------------ *)

let test_netvrm_page_rounding () =
  let t = Netvrm.create params in
  (match Netvrm.admit t ~fid:1 ~app_type:"cache" ~demand_blocks:3 with
  | Netvrm.Granted { pages; page_blocks; waste_blocks } ->
    Alcotest.(check int) "one page" 1 pages;
    Alcotest.(check int) "rounded to 4" 4 page_blocks;
    Alcotest.(check int) "one block wasted" 1 waste_blocks
  | _ -> Alcotest.fail "grant");
  match Netvrm.admit t ~fid:2 ~app_type:"cache" ~demand_blocks:16 with
  | Netvrm.Granted { page_blocks = 16; waste_blocks = 0; _ } -> ()
  | _ -> Alcotest.fail "power-of-two demand wastes nothing"

let test_netvrm_unregistered () =
  let t = Netvrm.create params in
  match Netvrm.admit t ~fid:1 ~app_type:"firewall" ~demand_blocks:1 with
  | Netvrm.Rejected_unregistered -> ()
  | _ -> Alcotest.fail "unregistered app type needs a recompile"

let test_netvrm_capacity () =
  (* Usable pool is 45% of 256 = 115 blocks per stage. *)
  let t = Netvrm.create params in
  let admitted = ref 0 in
  (try
     for fid = 1 to 100 do
       match Netvrm.admit t ~fid ~app_type:"cache" ~demand_blocks:8 with
       | Netvrm.Granted _ -> incr admitted
       | Netvrm.Rejected_capacity -> raise Exit
       | Netvrm.Rejected_unregistered -> Alcotest.fail "registered"
     done
   with Exit -> ());
  Alcotest.(check int) "14 x 8 = 112 <= 115" 14 !admitted;
  Alcotest.(check bool) "gross below availability" true
    (Netvrm.gross_utilization t <= 0.451)

let test_netvrm_vs_activermt_concurrency () =
  (* The headline comparison: same cache arrivals, ActiveRMT fits many
     more instances. *)
  let netvrm = Netvrm.create params in
  let alloc = Activermt_alloc.Allocator.create params in
  let n_net = ref 0 and n_armt = ref 0 in
  for fid = 1 to 500 do
    (match Netvrm.admit netvrm ~fid ~app_type:"cache" ~demand_blocks:1 with
    | Netvrm.Granted _ -> incr n_net
    | _ -> ());
    match
      Activermt_alloc.Allocator.admit alloc
        (Harness.arrival_of ~fid Churn.Cache ~block_bytes:1024)
    with
    | Activermt_alloc.Allocator.Admitted _ -> incr n_armt
    | Activermt_alloc.Allocator.Rejected _ -> ()
  done;
  Alcotest.(check bool) "order-of-magnitude advantage" true
    (!n_armt >= 2 * !n_net)

(* -- Report formatting ---------------------------------------------------- *)

let capture f =
  let buf = Buffer.create 256 in
  let old = Unix.dup Unix.stdout in
  let r, w = Unix.pipe () in
  Unix.dup2 w Unix.stdout;
  f ();
  flush stdout;
  Unix.dup2 old Unix.stdout;
  Unix.close w;
  Unix.close old;
  let bytes = Bytes.create 65536 in
  let n = Unix.read r bytes 0 65536 in
  Unix.close r;
  Buffer.add_subbytes buf bytes 0 n;
  Buffer.contents buf

let test_report_series_decimation () =
  let out =
    capture (fun () ->
        Experiments.Report.series ~every:3 ~columns:[ "i"; "v" ]
          (List.init 10 (fun i -> (i, [ string_of_int (i * i) ]))))
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  (* header + rows 0,3,6,9 (9 is also the last). *)
  Alcotest.(check int) "header + 4 rows" 5 (List.length lines);
  Alcotest.(check bool) "last row kept" true (List.mem "9\t81" lines)

let test_report_cells () =
  Alcotest.(check string) "float" "0.5" (Experiments.Report.float_cell 0.5);
  Alcotest.(check string) "int" "42" (Experiments.Report.int_cell 42)

(* -- Harness drivers smoke ------------------------------------------------ *)

let test_harness_deterministic () =
  let mk () =
    let rng = Stdx.Prng.create ~seed:77 in
    let trace = Churn.generate Churn.default_config ~epochs:30 rng in
    (Harness.run ~params trace).Harness.epochs
    |> List.map (fun e -> (e.Harness.utilization, e.Harness.residents))
  in
  Alcotest.(check bool) "same run twice" true (mk () = mk ())

let test_case_study_zipf_controls_hit_rate () =
  (* A heavier-tailed workload must lower the stable hit rate. *)
  let run exponent =
    let config =
      {
        Experiments.Case_study.default_config with
        Experiments.Case_study.request_rate_pps = 2000.0;
        zipf_exponent = exponent;
        hh_window_s = 0.5;
      }
    in
    let r = Experiments.Case_study.run_single ~config params in
    let t = List.hd r.Experiments.Case_study.tenants in
    Experiments.Case_study.hit_rate_window t ~lo_ms:6000 ~hi_ms:8000
  in
  let skewed = run 1.2 and flat = run 0.8 in
  Alcotest.(check bool) "skew helps the cache" true (skewed > flat)

let () =
  Alcotest.run "exp"
    [
      ( "netvrm baseline",
        [
          Alcotest.test_case "page rounding" `Quick test_netvrm_page_rounding;
          Alcotest.test_case "unregistered" `Quick test_netvrm_unregistered;
          Alcotest.test_case "capacity" `Quick test_netvrm_capacity;
          Alcotest.test_case "concurrency gap" `Quick test_netvrm_vs_activermt_concurrency;
        ] );
      ( "report",
        [
          Alcotest.test_case "series decimation" `Quick test_report_series_decimation;
          Alcotest.test_case "cells" `Quick test_report_cells;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "harness deterministic" `Quick test_harness_deterministic;
          Alcotest.test_case "zipf controls hit rate" `Slow
            test_case_study_zipf_controls_hit_rate;
        ] );
    ]
