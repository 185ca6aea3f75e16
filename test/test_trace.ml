(* The capsule flight recorder: context chaining, bounding/eviction,
   seeded sampling, deterministic Chrome export, tree rendering. *)

module Trace = Activermt_telemetry.Trace
module Json = Activermt_telemetry.Json

(* -- causal chaining ------------------------------------------------------ *)

let test_chaining () =
  let t = Trace.create () in
  let root =
    match Trace.start_trace t ~attrs:[ ("fid", "7") ] "capsule.inject" with
    | Some c -> c
    | None -> Alcotest.fail "sample=1 must keep every trace"
  in
  let hop = Trace.instant t root "sim.hop" in
  let exec = Trace.instant t hop ~attrs:[ ("switch", "2") ] "device.exec" in
  Alcotest.(check bool) "same trace" true
    (root.Trace.trace_id = hop.Trace.trace_id
    && hop.Trace.trace_id = exec.Trace.trace_id);
  let evs = Trace.events t in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let by_name name = List.find (fun e -> e.Trace.name = name) evs in
  Alcotest.(check int) "root has no parent" 0
    (by_name "capsule.inject").Trace.parent_span_id;
  Alcotest.(check int) "hop hangs off root" root.Trace.span_id
    (by_name "sim.hop").Trace.parent_span_id;
  Alcotest.(check int) "exec hangs off hop" hop.Trace.span_id
    (by_name "device.exec").Trace.parent_span_id;
  Alcotest.(check (list (pair string string))) "attrs preserved"
    [ ("fid", "7") ]
    (by_name "capsule.inject").Trace.attrs

let test_with_span_records_on_exception () =
  let t = Trace.create () in
  let root = Trace.start_trace t "root" in
  (try
     Trace.with_span t root "boom" (fun _ -> failwith "kaput")
   with Failure _ -> ());
  Alcotest.(check bool) "span recorded despite exception" true
    (List.exists (fun e -> e.Trace.name = "boom") (Trace.events t))

(* -- bounding ------------------------------------------------------------- *)

let test_bounded_evicts_oldest_traces () =
  let t = Trace.create ~capacity:64 () in
  let roots =
    List.init 100 (fun i ->
        match Trace.start_trace t (Printf.sprintf "t%d" i) with
        | Some c -> c.Trace.trace_id
        | None -> Alcotest.fail "unsampled")
  in
  Alcotest.(check bool) "length bounded" true (Trace.length t <= 64);
  Alcotest.(check bool) "something evicted" true (Trace.evicted t > 0);
  let surviving =
    List.sort_uniq compare
      (List.map (fun e -> e.Trace.trace_id) (Trace.events t))
  in
  let first = List.hd roots and last = List.nth roots 99 in
  Alcotest.(check bool) "oldest trace gone" false (List.mem first surviving);
  Alcotest.(check bool) "newest trace survives" true (List.mem last surviving);
  (* Eviction is whole-trace: survivors form a suffix of the id sequence. *)
  let min_surviving = List.hd surviving in
  Alcotest.(check bool) "survivors are a contiguous suffix" true
    (List.for_all (fun id -> id >= min_surviving) surviving
    && List.length surviving = last - min_surviving + 1)

let test_reset () =
  let t = Trace.create () in
  let a =
    match Trace.start_trace t "a" with Some c -> c | None -> assert false
  in
  Trace.reset t;
  Alcotest.(check int) "empty after reset" 0 (List.length (Trace.events t));
  Alcotest.(check int) "evicted zeroed" 0 (Trace.evicted t);
  let b =
    match Trace.start_trace t "b" with Some c -> c | None -> assert false
  in
  Alcotest.(check bool) "ids keep advancing across reset" true
    (b.Trace.trace_id > a.Trace.trace_id)

(* -- sampling ------------------------------------------------------------- *)

let keep_pattern ~sample ~seed n =
  let t = Trace.create ~sample ~seed () in
  List.init n (fun _ -> Trace.start_trace t "x" <> None)

let test_sampling_deterministic () =
  let a = keep_pattern ~sample:0.5 ~seed:42 200 in
  let b = keep_pattern ~sample:0.5 ~seed:42 200 in
  Alcotest.(check (list bool)) "same seed, same decisions" a b;
  let kept = List.length (List.filter Fun.id a) in
  Alcotest.(check bool) "roughly half kept" true (kept > 50 && kept < 150);
  Alcotest.(check bool) "different seed differs" true
    (keep_pattern ~sample:0.5 ~seed:43 200 <> a)

let test_sampling_extremes () =
  Alcotest.(check bool) "sample=0 keeps nothing" true
    (List.for_all not (keep_pattern ~sample:0.0 ~seed:1 50));
  Alcotest.(check bool) "sample=1 keeps everything" true
    (List.for_all Fun.id (keep_pattern ~sample:1.0 ~seed:1 50))

let test_noop () =
  Alcotest.(check bool) "noop disabled" false (Trace.enabled Trace.noop);
  Alcotest.(check bool) "noop never samples" true
    (Trace.start_trace Trace.noop "x" = None);
  Alcotest.(check int) "noop stores nothing" 0
    (List.length (Trace.events Trace.noop))

(* -- Chrome export -------------------------------------------------------- *)

let test_chrome_export () =
  let t = Trace.create () in
  let now = ref 1.0 in
  Trace.set_clock t (fun () -> !now);
  let root =
    match Trace.start_trace t ~attrs:[ ("switch", "3") ] "capsule.inject" with
    | Some c -> c
    | None -> assert false
  in
  now := 2.0;
  ignore (Trace.instant t root ~attrs:[ ("switch", "1") ] "sim.hop");
  let json =
    match Json.of_string (Trace.dump_chrome t) with
    | Ok j -> j
    | Error e -> Alcotest.failf "dump does not parse: %s" e
  in
  let evs =
    match Option.bind (Json.member "traceEvents" json) Json.to_arr with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let ph e = Option.bind (Json.member "ph" e) Json.to_str in
  let xs = List.filter (fun e -> ph e = Some "X") evs in
  let ms = List.filter (fun e -> ph e = Some "M") evs in
  Alcotest.(check int) "two slices" 2 (List.length xs);
  (* One process_name metadata record per distinct pid (switches 3, 1). *)
  Alcotest.(check int) "process metadata per switch" 2 (List.length ms);
  let inject =
    List.find
      (fun e -> Json.member "name" e = Some (Json.Str "capsule.inject"))
      xs
  in
  Alcotest.(check (option (float 1e-6))) "ts is clock in microseconds"
    (Some 1e6)
    (Option.bind (Json.member "ts" inject) Json.to_num);
  Alcotest.(check (option (float 1e-6))) "pid is the switch attr" (Some 3.0)
    (Option.bind (Json.member "pid" inject) Json.to_num);
  let args = Option.get (Json.member "args" inject) in
  Alcotest.(check (option string)) "attr in args" (Some "3")
    (Option.bind (Json.member "switch" args) Json.to_str);
  Alcotest.(check bool) "span triple in args" true
    (Json.member "trace_id" args <> None
    && Json.member "span_id" args <> None
    && Json.member "parent_span_id" args <> None)

let test_chrome_deterministic () =
  let dump () =
    let t = Trace.create ~sample:0.5 ~seed:99 () in
    for i = 0 to 20 do
      match Trace.start_trace t ~attrs:[ ("i", string_of_int i) ] "root" with
      | Some c -> ignore (Trace.instant t c "child")
      | None -> ()
    done;
    Trace.dump_chrome t
  in
  Alcotest.(check string) "same run, same bytes" (dump ()) (dump ())

(* -- tree rendering ------------------------------------------------------- *)

let test_render_tree () =
  let t = Trace.create () in
  let root =
    match Trace.start_trace t "capsule.inject" with
    | Some c -> c
    | None -> assert false
  in
  let hop = Trace.instant t root "sim.hop" in
  ignore (Trace.instant t hop ~attrs:[ ("cause", "loss_rate") ] "fault.drop");
  let out = Trace.render_tree (Trace.events t) in
  let contains needle =
    let nl = String.length needle and l = String.length out in
    let rec go i = i + nl <= l && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "root at depth 1" true (contains "\n  capsule.inject");
  Alcotest.(check bool) "hop nested under root" true (contains "\n    sim.hop");
  Alcotest.(check bool) "drop nested under hop" true
    (contains "\n      fault.drop");
  Alcotest.(check bool) "attrs rendered" true (contains "cause=loss_rate")

let () =
  Alcotest.run "trace"
    [
      ( "causality",
        [
          Alcotest.test_case "context chaining" `Quick test_chaining;
          Alcotest.test_case "with_span on exception" `Quick
            test_with_span_records_on_exception;
        ] );
      ( "bounding",
        [
          Alcotest.test_case "oldest-trace eviction" `Quick
            test_bounded_evicts_oldest_traces;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "deterministic" `Quick test_sampling_deterministic;
          Alcotest.test_case "extremes" `Quick test_sampling_extremes;
          Alcotest.test_case "noop" `Quick test_noop;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json shape" `Quick test_chrome_export;
          Alcotest.test_case "byte-identical dumps" `Quick
            test_chrome_deterministic;
          Alcotest.test_case "render tree" `Quick test_render_tree;
        ] );
    ]
