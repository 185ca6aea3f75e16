(* arrival-churn: the pure control plane.  One switch, no Fabric.  The
   input is Workload.Churn.zipf_churn with its default configuration
   (batches of 64, resident target 64, exponent 0.99 over the five
   extended kinds), turned into allocation-request packets before timing.
   Each epoch enqueues its arrivals, drains them as one batched epoch,
   then handles the epoch's departures.  Allocator scoring, table installs
   and register snapshot/restore do all the work; about a tenth of the
   arrivals are rejected, so rejection-path cost shows. *)

module Controller = Activermt_control.Controller
module Cost_model = Activermt_control.Cost_model
module Allocator = Activermt_alloc.Allocator
module Spec = Activermt_compiler.Spec
module Negotiate = Activermt_client.Negotiate
module Telemetry = Activermt_telemetry.Telemetry
module Packet = Activermt.Packet
module Table = Activermt.Table
module Churn = Workload.Churn

let params = Rmt.Params.default

(* Epochs run during set-up, and epochs whose decisions and modeled cost
   are digested for cross-version comparison. *)
let warmup_epochs = 8
let prefix_epochs = 16

let app_of_kind = function
  | Churn.Cache -> Activermt_apps.Cache.service
  | Churn.Heavy_hitter -> Activermt_apps.Heavy_hitter.service
  | Churn.Load_balancer -> Activermt_apps.Cheetah_lb.service
  | Churn.Flow_counter -> Activermt_apps.Counter.service
  | Churn.Bloom_filter -> Activermt_apps.Bloom.service

type epoch = { requests : Packet.t array; departs : int array }

let generate ~seed =
  let rng = Stdx.Prng.create ~seed in
  Churn.zipf_churn Churn.default_zipf_config rng
  |> Seq.map (fun (e : Churn.epoch) ->
         let requests =
           List.filter_map
             (function
               | Churn.Arrive { fid; kind; _ } ->
                 Some (Negotiate.request_packet ~fid ~seq:0 (app_of_kind kind))
               | Churn.Depart _ -> None)
             e.Churn.events
         in
         let departs =
           List.filter_map
             (function Churn.Depart { fid } -> Some fid | Churn.Arrive _ -> None)
             e.Churn.events
         in
         { requests = Array.of_list requests; departs = Array.of_list departs })
  |> Array.of_seq

(* The allocator's view of a request, built as the controller builds it. *)
let arrival_of (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Packet.Request req ->
    {
      Allocator.fid = pkt.Packet.fid;
      spec = Spec.of_request req;
      elastic = pkt.Packet.flags.Packet.elastic;
      demand_blocks =
        Array.of_list
          (List.map (fun a -> max 1 a.Packet.demand_blocks) req.Packet.accesses);
    }
  | Packet.Response _ | Packet.Exec _ | Packet.Bare -> invalid_arg "arrival_of: not a request"

type probe = {
  enqueue : Meter.acc;
  drain : Meter.acc;
  depart : Meter.acc;
  spans : Meter.spans;
}

type run = {
  inputs : epoch array;
  controller : Controller.t;
  mutable next : int;  (** next epoch to run *)
  decisions : Buffer.t;  (** 'A'dmitted / 'R'ejected / 'B'ad per arrival, in order *)
  departed : (int, unit) Hashtbl.t;
  mutable digest : int;
  mutable prefix_digest : int;
  mutable arrivals : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable failed : int;
  mutable departures : int;
  mutable expanded : int;
  mutable installs : int;
  mutable epochs : int;
  mutable batch_size : int;
  mutable memo_hits : int;
  mutable rescored : int;
  mutable modeled_prefix_s : float;
  epoch_ms : Meter.samples;
  depart_us : Meter.samples;
  mutable probe : probe option;
}

let timed acc spans name f =
  let w0 = Meter.minor_words () and t0 = Meter.now_ns () in
  let r = f () in
  let t1 = Meter.now_ns () and w1 = Meter.minor_words () in
  Meter.add acc ~ns:(t1 - t0) ~words:(w1 - w0);
  Meter.span spans name ~t0 ~t1;
  r

let run_epoch run =
  let e = run.inputs.(run.next) in
  run.next <- run.next + 1;
  let c = run.controller in
  (match run.probe with
  | None -> Array.iter (fun p -> Controller.enqueue_request c p) e.requests
  | Some p ->
    Meter.window p.spans "arrival.epoch";
    Array.iter
      (fun pkt -> timed p.enqueue p.spans "controller.enqueue" (fun () -> Controller.enqueue_request c pkt))
      e.requests);
  let t0 = Meter.now_ns () in
  let epochs =
    match run.probe with
    | None -> Controller.drain c
    | Some p -> timed p.drain p.spans "controller.drain" (fun () -> Controller.drain c)
  in
  Meter.push run.epoch_ms (float_of_int (Meter.now_ns () - t0) *. 1e-6);
  List.iter
    (fun (er : Controller.epoch_result) ->
      run.epochs <- run.epochs + 1;
      run.installs <- run.installs + er.Controller.installs;
      (match er.Controller.batch with
      | Some b ->
        run.batch_size <- run.batch_size + b.Allocator.batch_size;
        run.memo_hits <- run.memo_hits + b.Allocator.memo_hits;
        run.rescored <- run.rescored + b.Allocator.rescored
      | None -> ());
      (* The modeled table-write, snapshot and notify time is a pure
         function of the decisions; the measured allocation time is not. *)
      let t = er.Controller.epoch_timing in
      if run.epochs <= prefix_epochs then
        run.modeled_prefix_s <-
          run.modeled_prefix_s +. (Cost_model.total t -. t.Cost_model.allocation_s);
      List.iter
        (fun r ->
          run.arrivals <- run.arrivals + 1;
          let fid, code =
            match r with
            | Ok (p : Controller.provision) ->
              run.admitted <- run.admitted + 1;
              (p.Controller.fid, 'A')
            | Error (`Rejected _) ->
              run.rejected <- run.rejected + 1;
              (-1, 'R')
            | Error (`Bad_packet _) ->
              run.failed <- run.failed + 1;
              (-1, 'B')
          in
          Buffer.add_char run.decisions code;
          run.digest <- Meter.mix (Meter.mix run.digest fid) (Char.code code))
        er.Controller.results;
      if run.epochs = prefix_epochs then run.prefix_digest <- run.digest)
    epochs;
  (* Requests the drain did not answer count as failed. *)
  let answered = List.fold_left (fun n er -> n + List.length er.Controller.results) 0 epochs in
  run.failed <- run.failed + (Array.length e.requests - answered);
  Array.iter
    (fun fid ->
      let t0 = Meter.now_ns () in
      let _, expanded =
        match run.probe with
        | None -> Controller.handle_departure c ~fid
        | Some p ->
          timed p.depart p.spans "controller.depart" (fun () -> Controller.handle_departure c ~fid)
      in
      Meter.push run.depart_us (float_of_int (Meter.now_ns () - t0) *. 1e-3);
      Hashtbl.replace run.departed fid ();
      run.departures <- run.departures + 1;
      run.expanded <- run.expanded + List.length expanded)
    e.departs

let setup ~seed =
  let inputs = generate ~seed in
  let run =
    {
      inputs;
      controller = Controller.create ~telemetry:(Telemetry.create ()) (Rmt.Device.create params);
      next = 0;
      decisions = Buffer.create 4096;
      departed = Hashtbl.create 4096;
      digest = 0;
      prefix_digest = 0;
      arrivals = 0;
      admitted = 0;
      rejected = 0;
      failed = 0;
      departures = 0;
      expanded = 0;
      installs = 0;
      epochs = 0;
      batch_size = 0;
      memo_hits = 0;
      rescored = 0;
      modeled_prefix_s = 0.0;
      epoch_ms = Meter.samples ();
      depart_us = Meter.samples ();
      probe = None;
    }
  in
  for _ = 1 to warmup_epochs do
    run_epoch run
  done;
  run

type snapshot = {
  s_arrivals : int;
  s_admitted : int;
  s_rejected : int;
  s_failed : int;
  s_departures : int;
  s_expanded : int;
  s_installs : int;
  s_epochs : int;
  s_batch_size : int;
  s_memo_hits : int;
  s_rescored : int;
  s_epoch_samples : int;
  s_depart_samples : int;
}

let snapshot run =
  {
    s_arrivals = run.arrivals;
    s_admitted = run.admitted;
    s_rejected = run.rejected;
    s_failed = run.failed;
    s_departures = run.departures;
    s_expanded = run.expanded;
    s_installs = run.installs;
    s_epochs = run.epochs;
    s_batch_size = run.batch_size;
    s_memo_hits = run.memo_hits;
    s_rescored = run.rescored;
    s_epoch_samples = run.epoch_ms.Meter.len;
    s_depart_samples = run.depart_us.Meter.len;
  }

type timed = {
  work_ns : int;
  norm_ns : float;
  d : snapshot;  (** counter deltas over the timed region *)
  minor_words : float;
  major_collections : int;
  clock : Meter.clock;
  live_heap_mb : float;
  epoch_ms : float array;  (** at the reference kernel's nominal speed *)
  depart_us : float array;
  exhausted : bool;
}

(* Rescale the latency samples taken since index [from] by a slice's
   speed factor. *)
let rescale (s : Meter.samples) ~from factor =
  for i = from to s.Meter.len - 1 do
    s.Meter.data.(i) <- s.Meter.data.(i) *. factor
  done

(* Run whole epochs until [seconds] of work time have passed; each epoch
   is one slice of the clock. *)
let run_timed run ~seconds =
  let s0 = snapshot run in
  let clock = Meter.clock () in
  let gc0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () -. float_of_int !Meter.reference_words in
  let budget = int_of_float (seconds *. 1e9) in
  while clock.Meter.work_ns < budget && run.next < Array.length run.inputs do
    let e0 = run.epoch_ms.Meter.len and d0 = run.depart_us.Meter.len in
    run_epoch run;
    let factor = Meter.close_slice clock ~now:(Meter.now_ns ()) ~units:(run.arrivals - s0.s_arrivals) in
    rescale run.epoch_ms ~from:e0 factor;
    rescale run.depart_us ~from:d0 factor
  done;
  let w1 = Gc.minor_words () -. float_of_int !Meter.reference_words in
  let gc1 = Gc.quick_stat () in
  let s1 = snapshot run in
  let sub a b = Array.sub a.Meter.data b (a.Meter.len - b) in
  {
    work_ns = clock.Meter.work_ns;
    norm_ns = clock.Meter.norm_ns;
    d =
      {
        s_arrivals = s1.s_arrivals - s0.s_arrivals;
        s_admitted = s1.s_admitted - s0.s_admitted;
        s_rejected = s1.s_rejected - s0.s_rejected;
        s_failed = s1.s_failed - s0.s_failed;
        s_departures = s1.s_departures - s0.s_departures;
        s_expanded = s1.s_expanded - s0.s_expanded;
        s_installs = s1.s_installs - s0.s_installs;
        s_epochs = s1.s_epochs - s0.s_epochs;
        s_batch_size = s1.s_batch_size - s0.s_batch_size;
        s_memo_hits = s1.s_memo_hits - s0.s_memo_hits;
        s_rescored = s1.s_rescored - s0.s_rescored;
        s_epoch_samples = s1.s_epoch_samples - s0.s_epoch_samples;
        s_depart_samples = s1.s_depart_samples - s0.s_depart_samples;
      };
    minor_words = w1 -. w0;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    clock;
    live_heap_mb = Meter.live_heap_mb ();
    epoch_ms = sub run.epoch_ms s0.s_epoch_samples;
    depart_us = sub run.depart_us s0.s_depart_samples;
    exhausted = run.next >= Array.length run.inputs;
  }

(* Output check: a bare allocator fed the same epochs must make the same
   decisions and end with the same placements, and the controller's tables
   must agree with its allocator.  In the traced run the same replay
   times Allocator.admit_batch and Allocator.depart per call. *)
let twin_replay run ~from_epoch ~timing =
  let twin = Allocator.create ~telemetry:(Telemetry.create ()) params in
  let admit = Meter.acc () and depart = Meter.acc () in
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  let i = ref 0 in
  for k = 0 to run.next - 1 do
    let e = run.inputs.(k) in
    let arrivals = Array.to_list (Array.map arrival_of e.requests) in
    let timed_here = timing && k >= from_epoch in
    let w0 = Meter.minor_words () and t0 = Meter.now_ns () in
    let batch = Allocator.admit_batch twin arrivals in
    let t1 = Meter.now_ns () and w1 = Meter.minor_words () in
    if timed_here then Meter.add admit ~ns:(t1 - t0) ~words:(w1 - w0);
    List.iter
      (fun o ->
        let code = match o with Allocator.Admitted _ -> 'A' | Allocator.Rejected _ -> 'R' in
        if !i >= Buffer.length run.decisions || Buffer.nth run.decisions !i <> code then
          problem (Printf.sprintf "arrival %d: controller and allocator twin disagree" !i);
        incr i)
      batch.Allocator.outcomes;
    Array.iter
      (fun fid ->
        let w0 = Meter.minor_words () and t0 = Meter.now_ns () in
        ignore (Allocator.depart twin ~fid);
        let t1 = Meter.now_ns () and w1 = Meter.minor_words () in
        if timed_here then Meter.add depart ~ns:(t1 - t0) ~words:(w1 - w0))
      e.departs
  done;
  if !i <> Buffer.length run.decisions then problem "allocator twin saw a different arrival count";
  let alloc = Controller.allocator run.controller in
  let tables = Controller.tables run.controller in
  let residents = Allocator.resident alloc in
  if residents <> Allocator.resident twin then problem "resident sets differ from the allocator twin";
  List.iter
    (fun fid ->
      if Allocator.regions_of alloc ~fid <> Allocator.regions_of twin ~fid then
        problem (Printf.sprintf "fid %d placed differently by the allocator twin" fid);
      if not (Table.installed tables ~fid) then
        problem (Printf.sprintf "resident fid %d has no tables installed" fid))
    residents;
  Hashtbl.iter
    (fun fid () ->
      if (not (Allocator.is_resident alloc ~fid)) && Table.installed tables ~fid then
        problem (Printf.sprintf "departed fid %d still has tables installed" fid))
    run.departed;
  List.iter
    (fun fid ->
      if not (Allocator.is_resident alloc ~fid) then
        problem (Printf.sprintf "fid %d installed but not resident" fid))
    (Table.fids tables);
  Allocator.shutdown twin;
  (List.rev !problems, admit, depart)

let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let tail_line name samples unit_ =
  let n = Array.length samples in
  match Meter.tail_level n with
  | Some p ->
    Meter.num name (Meter.pct (Meter.sorted samples) p) unit_ (Printf.sprintf "p%g of %d samples" p n)
  | None -> (name, "n/a", unit_, Printf.sprintf "only %d samples" n)


let rate (r : timed) = float_of_int r.d.s_arrivals /. (r.norm_ns *. 1e-9)
let measured_rate (r : timed) = float_of_int r.d.s_arrivals /. (float_of_int r.work_ns *. 1e-9)
let words (r : timed) = r.minor_words /. float_of_int (max 1 r.d.s_arrivals)

let report run (r : timed) ~setup_s =
  let first, last = Meter.deciles r.clock.Meter.drift in
  Meter.
    [
      num "arrivals_per_s" (rate r) "arrivals/s" "at the reference kernel's nominal speed";
      num "arrivals_per_s.measured" (measured_rate r) "arrivals/s"
        (Printf.sprintf "%d arrivals (%d admitted, %d rejected) in %.2f s of work%s" r.d.s_arrivals
           r.d.s_admitted r.d.s_rejected
           (float_of_int r.work_ns *. 1e-9)
           (if r.exhausted then "; inputs exhausted" else ""));
      spread_line "arrivals_per_s.epochs" r.clock "arrivals/s";
      num "reference_kernel_ns" (Meter.reference_nominal_ns *. float_of_int r.work_ns /. r.norm_ns) "ns"
        "mean time of one kernel run";
      num "arrival_words" (words r) "words/arrival" "";
      num "epoch_p50_ms" (Meter.median r.epoch_ms) "ms"
        (Printf.sprintf "%d single-epoch drains" (Array.length r.epoch_ms));
      tail_line "epoch_tail_ms" r.epoch_ms "ms";
      num "depart_p50_us" (Meter.median r.depart_us) "us"
        (Printf.sprintf "%d departures" (Array.length r.depart_us));
      tail_line "depart_tail_us" r.depart_us "us";
      num "failed_frac" (frac r.d.s_failed r.d.s_arrivals) "ratio"
        (Printf.sprintf "%d of %d requests unanswered or malformed" r.d.s_failed r.d.s_arrivals);
      num "allocator.reject_frac" (frac r.d.s_rejected r.d.s_arrivals) "ratio" "decisions, not failures";
      num "setup_s" setup_s "s" "median of 5 set-ups, nominal speed";
      num "top_heap_mb" (Meter.peak_heap_mb r.clock) "MB" "peak major heap in the timed region";
      num "live_heap_mb" r.live_heap_mb "MB" "after a full major GC at the end of the timed region";
      num "drift.first_decile_per_s" first "arrivals/s" "";
      num "drift.last_decile_per_s" last "arrivals/s" "";
      num "controller.modeled_epoch_ms" (run.modeled_prefix_s *. 1e3 /. float_of_int prefix_epochs)
        "ms" (Printf.sprintf "mean over the first %d epochs, allocation time excluded" prefix_epochs);
      ("digest.prefix", Meter.hex run.prefix_digest, "", Printf.sprintf "first %d epochs" prefix_epochs);
      ("digest.full", Meter.hex run.digest, "", Printf.sprintf "%d arrivals" run.arrivals);
    ]

let run ~seed ~seconds ~setup_s_of =
  let setup_s, run = setup_s_of (fun () -> setup ~seed) in
  let r = run_timed run ~seconds in
  let problems, _, _ = twin_replay run ~from_epoch:0 ~timing:false in
  {
    Meter.problems;
    attempted = r.d.s_arrivals;
    failed = r.d.s_failed;
    report = report run r ~setup_s;
    layers = [];
    e2e =
      [
        ("rate_per_s", rate r);
        ("words_per_unit", words r);
        ("setup_s", setup_s);
        ("live_heap_mb", r.live_heap_mb);
      ];
  }

let run_traced ~seed ~seconds ~trace_path =
  let half = seconds /. 2.0 in
  let plain = run_timed (setup ~seed) ~seconds:half in
  Gc.full_major ();
  let run = setup ~seed in
  let p =
    { enqueue = Meter.acc (); drain = Meter.acc (); depart = Meter.acc (); spans = Meter.spans () }
  in
  let from_epoch = run.next in
  run.probe <- Some p;
  let r = run_timed run ~seconds:half in
  run.probe <- None;
  Meter.write_spans p.spans trace_path;
  let problems, admit, depart = twin_replay run ~from_epoch ~timing:true in
  let units = float_of_int (max 1 r.d.s_arrivals) in
  let speed = Meter.speed r.clock in
  let per x = float_of_int x /. units in
  let ns x = float_of_int x *. speed /. units in
  let twin_ns x = Meter.normalized_probe (float_of_int x) /. units in
  let admit_ns = twin_ns admit.ns and allocator_depart_ns = twin_ns depart.ns in
  let wall = r.norm_ns /. units in
  let attributed = ns p.enqueue.ns +. ns p.drain.ns +. ns p.depart.ns in
  let first, last = Meter.deciles r.clock.Meter.drift in
  let layers =
    [
      ("controller.enqueue_ns", ns p.enqueue.ns);
      ("controller.drain_ns", ns p.drain.ns);
      ("controller.drain_words", per p.drain.words);
      ("allocator.admit_batch_ns", admit_ns);
      ("controller.drain_self_ns", ns p.drain.ns -. admit_ns);
      ("controller.depart_ns", ns p.depart.ns);
      ("controller.depart_words", per p.depart.words);
      ("allocator.depart_ns", allocator_depart_ns);
      ("controller.depart_self_ns", ns p.depart.ns -. allocator_depart_ns);
      ("controller.expanded_per_depart", frac r.d.s_expanded r.d.s_departures);
      ("controller.installs_per_epoch", frac r.d.s_installs r.d.s_epochs);
      ("allocator.memo_hit_ratio", frac r.d.s_memo_hits r.d.s_batch_size);
      ("allocator.rescored_frac", frac r.d.s_rescored r.d.s_batch_size);
      ("allocator.reject_frac", frac r.d.s_rejected r.d.s_arrivals);
      ("controller.modeled_epoch_ms", run.modeled_prefix_s *. 1e3 /. float_of_int prefix_epochs);
      ("gc.major_collections", float_of_int r.major_collections);
      ("trace_overhead_frac", 1.0 -. (rate r /. rate plain));
      ("wall_ns", wall);
      ("unattributed_ns", wall -. attributed);
      ("drift.last_over_first", if first > 0.0 then last /. first else 0.0);
      ("failed_frac", frac r.d.s_failed r.d.s_arrivals);
    ]
  in
  let report =
    Meter.
      [
        num "arrivals_per_s (untraced half)" (rate plain) "arrivals/s" "";
        num "arrivals_per_s (traced half)" (rate r) "arrivals/s" "";
        ("self time per arrival", "", "", "");
        num "  controller.enqueue" (ns p.enqueue.ns) "ns" "";
        num "  controller.drain" (ns p.drain.ns) "ns"
          (Printf.sprintf "of which allocator.admit_batch %.0f ns" admit_ns);
        num "  controller.depart" (ns p.depart.ns) "ns"
          (Printf.sprintf "of which allocator.depart %.0f ns" allocator_depart_ns);
        num "  unattributed" (wall -. attributed) "ns" "benchmark loop and clock reads";
        num "  = wall" wall "ns" "";
      ]
  in
  {
    Meter.problems;
    attempted = r.d.s_arrivals;
    failed = r.d.s_failed;
    report;
    layers;
    e2e = [];
  }
