(* The gates every BENCH_alloc.json section declares, exercised with the
   committed baseline (bench/baseline_alloc.json) on both sides.  No
   benchmark runs.

   Per gate: the gated value moved to its bound passes, and moved one
   float step past it fails that gate and no other.  A relative bound
   moves with the baseline, so the baseline value is first re-centred on
   the candidate value; otherwise an absolute gate on the same metric
   that is stricter at the committed numbers (device mixed speedup >= 5
   against 70 % of 6.56) would trip first. *)

module Json = Activermt_telemetry.Json
module Section = Activermt_bench.Section

let sections = Activermt_bench.Sections.all
let baseline = Section.load "baseline_alloc.json"

let update key f = function
  | Json.Obj fs -> Json.Obj (List.map (fun (k, v) -> (k, if k = key then f v else v)) fs)
  | j -> j

let set field v = function
  | Json.Obj fs -> Json.Obj (List.remove_assoc field fs @ [ (field, v) ])
  | j -> j

let remove keys = function
  | Json.Obj fs -> Json.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) fs)
  | j -> j

let first (s : Section.t) = List.hd s.keys

(* What the writer would make of the same numbers: every section stamped
   with its mode, and fleetscale carrying [orphans], which the committed
   baseline predates. *)
let candidate =
  List.fold_left
    (fun file s -> update (first s) (set "quick" (Json.Bool true)) file)
    (update "fleetscale" (set "orphans" (Json.Num 0.0)) baseline)
    sections

let failures = List.filter Section.failed
let show (r : Section.result) = String.concat " " [ r.section; r.row; r.detail ]
let shows = Alcotest.(list string)
let metric rows row m = Option.bind (List.assoc_opt row rows) (List.assoc_opt m)

let update_row rows row f = List.map (fun (r, ms) -> (r, if r = row then f ms else ms)) rows
let set_metric rows row m v = update_row rows row (fun ms -> (m, v) :: List.remove_assoc m ms)

let gate_case (s : Section.t) (g : Section.gate) () =
  let quick = not g.full_only in
  let cand = s.metrics candidate in
  List.iter
    (fun row ->
      let v = Option.get (metric cand row g.metric) in
      let base =
        match g.bound with
        | Max_drop x -> set_metric (s.metrics baseline) row g.metric (v /. (1.0 -. x))
        | Max_growth x -> set_metric (s.metrics baseline) row g.metric (v /. x)
        | _ -> s.metrics baseline
      in
      let l = Option.get (Section.limit g.bound ~baseline:(metric base row g.metric)) in
      (match g.bound with
      | Max_drop _ | Max_growth _ ->
        Alcotest.(check (float (1e-9 *. Float.abs v))) (row ^ " re-centred bound") v l
      | _ -> ());
      let edge, past =
        match g.bound with
        | At_least _ | Max_drop _ -> (l, Float.pred l)
        | Above _ -> (Float.succ l, l)
        | At_most _ | Max_growth _ | Equal _ -> (l, Float.succ l)
        | Below _ -> (Float.pred l, l)
      in
      let run candidate = failures (Section.check s ~quick ~baseline:(Some base) ~candidate) in
      let at_gate (r : Section.result) = r.row = row && Option.get r.gate == g in
      Alcotest.check shows (row ^ " at the bound") []
        (List.map show (run (set_metric cand row g.metric edge)));
      (match run (set_metric cand row g.metric past) with
      | [ r ] ->
        Alcotest.(check bool) (row ^ " past the bound") true (at_gate r && r.verdict = Fail)
      | rs ->
        Alcotest.check shows (row ^ " past the bound") [ "one failure" ] (List.map show rs));
      let missing = run (update_row cand row (List.remove_assoc g.metric)) in
      Alcotest.(check bool) (row ^ " missing") true
        (List.exists at_gate missing
        && List.for_all
             (fun (r : Section.result) ->
               r.verdict = Missing && r.row = row && (Option.get r.gate).metric = g.metric)
             missing))
    (if g.rows = [] then List.map fst cand else g.rows)

let bound_name = function
  | Section.At_least x -> Printf.sprintf "at least %g" x
  | Above x -> Printf.sprintf "above %g" x
  | At_most x -> Printf.sprintf "at most %g" x
  | Below x -> Printf.sprintf "below %g" x
  | Equal x -> Printf.sprintf "equal %g" x
  | Max_drop x -> Printf.sprintf "drop at most %g" x
  | Max_growth x -> Printf.sprintf "growth at most %gx" x

let gate_cases =
  List.concat_map
    (fun (s : Section.t) ->
      List.map
        (fun (g : Section.gate) ->
          let name =
            Printf.sprintf "%s %s %s%s" s.name g.metric (bound_name g.bound)
              (if g.full_only then " full only" else "")
          in
          Alcotest.test_case name `Quick (gate_case s g))
        s.gates)
    sections

let against candidate = Section.compare sections ~baseline ~candidate

let reports (s : Section.t) p results =
  List.exists (fun (r : Section.result) -> r.section = s.name && p r) results

let test_clean () =
  let results = against candidate in
  Alcotest.check shows "no failures" [] (List.map show (failures results));
  List.iter
    (fun (s : Section.t) ->
      Alcotest.(check bool) (s.name ^ " checked") true
        (reports s (fun r -> r.verdict = Pass) results))
    sections

let test_missing_metric () =
  let results = against (update "churn" (remove [ "batch_speedup" ]) candidate) in
  Alcotest.check shows "both batch_speedup gates missing"
    [ "churn  absent from candidate"; "churn  absent from candidate" ]
    (List.map show (failures results));
  Alcotest.check shows "the unstamped baseline lacks only fleetscale orphans"
    [ "fleetscale  absent from candidate" ]
    (List.map show (failures (against baseline)))

let test_missing_section () =
  List.iter
    (fun (s : Section.t) ->
      let results = against (remove s.keys candidate) in
      Alcotest.check shows (s.name ^ " missing does not fail") []
        (List.map show (failures results));
      Alcotest.(check bool) (s.name ^ " missing is reported") true
        (reports s (fun r -> r.verdict = Info) results))
    sections

let test_mode_mismatch () =
  List.iter
    (fun (s : Section.t) ->
      let results = against (update (first s) (set "quick" (Json.Bool false)) candidate) in
      Alcotest.check shows (s.name ^ " mismatch fails")
        [ s.name ^ "  mode mismatch: not compared" ]
        (List.map show (failures results));
      Alcotest.(check bool) (s.name ^ " not compared") false
        (reports s (fun r -> r.gate <> None) results))
    sections

let dummy (s : Section.t) = List.map (fun k -> Json.Obj [ ("dummy", Json.Str k) ]) s.keys

let test_writer_keeps_others () =
  List.iter
    (fun (s : Section.t) ->
      let path = Filename.temp_file "bench_alloc" ".json" in
      Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string baseline));
      Section.write ~path ~quick:true s (dummy s);
      let written = Section.load path in
      Sys.remove path;
      let keys = function Json.Obj fs -> List.map fst fs | _ -> [] in
      Alcotest.(check (list string)) (s.name ^ " key order") (keys baseline) (keys written);
      List.iter
        (fun k ->
          let expect =
            if not (List.mem k s.keys) then Json.member k baseline
            else
              let body = Json.Obj [ ("dummy", Json.Str k) ] in
              Some (if k = first s then set "quick" (Json.Bool true) body else body)
          in
          Alcotest.(check bool) (s.name ^ " writes " ^ k) true (Json.member k written = expect))
        (keys baseline))
    sections

let test_writer_reverse_order () =
  let path = Filename.temp_file "bench_alloc" ".json" in
  Sys.remove path;
  List.iter (fun s -> Section.write ~path ~quick:true s (dummy s)) (List.rev sections);
  let written = Section.load path in
  Sys.remove path;
  let sorted = function Json.Obj fs -> List.sort compare (List.map fst fs) | _ -> [] in
  Alcotest.(check (list string)) "all keys" (sorted baseline) (sorted written)

(* bench/main.exe's loop over two small fake sections, the first of
   which fails its gate: the second still runs and writes its key, and
   only the first is reported failed.  They write BENCH_alloc.json in a
   directory of their own. *)
let fake name value ran =
  {
    Section.name;
    info = "fake";
    keys = [ name ];
    run =
      (fun ~quick:_ ->
        ran := true;
        [ Json.Obj [ ("value", Json.Num value) ] ]);
    metrics = (fun file -> [ ("", Section.nums [ "value" ] (Section.member name file)) ]);
    gates = [ Section.gate "value" (Section.At_least 1.0) ];
  }

let test_failing_section_runs_the_next () =
  let cwd = Sys.getcwd () and dir = Filename.temp_dir "bench_main" "" in
  Sys.chdir dir;
  let ran_a = ref false and ran_b = ref false in
  let a = fake "fake_a" 0.0 ran_a and b = fake "fake_b" 2.0 ran_b in
  let failed =
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () ->
        Section.run_all ~quick:true
          (List.map (fun (s : Section.t) -> (s.name, Section.bench s)) [ a; b ]))
  in
  let path = Filename.concat dir Section.path in
  let written = Section.load path in
  Sys.remove path;
  Sys.rmdir dir;
  Alcotest.(check (list (pair string int))) "only the first failed" [ ("fake_a", 1) ] failed;
  Alcotest.(check (list bool)) "both ran" [ true; true ] [ !ran_a; !ran_b ];
  Alcotest.(check (list bool)) "both written" [ true; true ]
    (List.map (fun k -> Json.member k written <> None) [ "fake_a"; "fake_b" ])

let () =
  Alcotest.run "bench"
    [
      ("gates", gate_cases);
      ( "compare",
        [
          Alcotest.test_case "baseline against itself" `Quick test_clean;
          Alcotest.test_case "missing metric fails" `Quick test_missing_metric;
          Alcotest.test_case "missing section is reported" `Quick test_missing_section;
          Alcotest.test_case "mode mismatch fails" `Quick test_mode_mismatch;
        ] );
      ( "writer",
        [
          Alcotest.test_case "keeps other sections" `Quick test_writer_keeps_others;
          Alcotest.test_case "reverse order keeps every key" `Quick test_writer_reverse_order;
        ] );
      ( "main",
        [
          Alcotest.test_case "a failing section runs the next" `Quick
            test_failing_section_runs_the_next;
        ] );
    ]
