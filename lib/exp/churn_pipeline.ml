open Import

type result = {
  clients : int;
  batch : int;
  epochs : int;
  admitted : int;
  rejected : int;
  rescored : int;
  memo_hits : int;
  stage_refills : int;
  refills_saved : int;
  departures : int;
  final_residents : int;
  final_utilization : float;
  p50_tts_ms : float;
  p99_tts_ms : float;
  max_tts_ms : float;
  modeled_span_s : float;
  modeled_arrivals_per_sec : float;
  admit_wall_s : float;
  arrivals_per_sec : float;
}

let calibration_epochs = 20
let offered_fraction = 0.9

(* Modeled control-plane duration of one committed epoch: the estimated
   entries of every touched app (Cost_model.estimated_entries), one
   batched write session, snapshot words for the reallocated residents.
   Allocation compute time is deliberately excluded so the modeled clock —
   and everything derived from it, including the p99 time-to-service CI
   artifacts — is bit-identical across machines and reruns. *)
let modeled_epoch_s ~logical_stages ~apps_touched ~words =
  if apps_touched = 0 then 0.0
  else
    Cost_model.total
      (Cost_model.breakdown_batched Cost_model.default ~allocation_s:0.0
         ~entries_updated:
           (Cost_model.estimated_entries ~logical_stages ~apps:apps_touched)
         ~words_snapshotted:words ~notifications:apps_touched)

let run ?(telemetry = Telemetry.default) ?(tracer = Trace.noop)
    ?(clock = Sys.time) ~params ~seed (zcfg : Churn.zipf_config) =
  let alloc = Allocator.create ~telemetry ~tracer params in
  let block_bytes = Rmt.Params.bytes_per_block params in
  let wpb = Rmt.Params.words_per_block params in
  let n_stages = params.Rmt.Params.logical_stages in
  let rng = Prng.create ~seed in
  let trace = Churn.zipf_churn zcfg rng in
  let tts = ref [] in
  let admitted = ref 0 in
  let rejected = ref 0 in
  let rescored = ref 0 in
  let memo_hits = ref 0 in
  let stage_refills = ref 0 in
  let refills_saved = ref 0 in
  let departures = ref 0 in
  let n_epochs = ref 0 in
  let admit_wall = ref 0.0 in
  (* Virtual clock: [now] is modeled control-plane time; [arrival_clock]
     spaces arrivals at the offered rate.  The rate is adaptive — the
     cumulative mean modeled service time per offered arrival, recomputed
     every epoch after a short calibration window — so the offered load
     tracks [offered_fraction] of what the control plane actually
     sustains at steady state instead of the unloaded (empty-pool) rate
     of the first few epochs.  Still a pure function of modeled values:
     bit-identical across machines and reruns. *)
  let now = ref 0.0 in
  (* The allocator's windowed counts (alloc.admitted/rejected) record
     through the registry clock; wire it to the modeled epoch clock. *)
  Telemetry.set_clock telemetry (fun () -> !now);
  let arrival_clock = ref 0.0 in
  let arrivals_offered = ref 0 in
  let inter_arrival = ref 0.0 in
  let calibrated = ref false in
  let words_of_realloc reallocated =
    List.fold_left
      (fun acc fid -> acc + (Allocator.app_blocks alloc ~fid * wpb))
      0 reallocated
  in
  let process_epoch (e : Churn.epoch) =
    incr n_epochs;
    let arrivals =
      List.filter_map
        (function
          | Churn.Arrive { fid; kind; _ } ->
            Some (Harness.arrival_of ~fid kind ~block_bytes)
          | Churn.Depart _ -> None)
        e.Churn.events
    in
    let k = List.length arrivals in
    let ectx =
      Trace.start_trace tracer
        ~attrs:
          [
            ("epoch", string_of_int e.Churn.index);
            ("batch", string_of_int k);
          ]
        "churn.epoch"
    in
    let t0 = clock () in
    let batch = Allocator.admit_batch ?trace:ectx alloc arrivals in
    admit_wall := !admit_wall +. (clock () -. t0);
    let s = batch.Allocator.stats in
    admitted := !admitted + s.Allocator.batch_admitted;
    rejected := !rejected + s.Allocator.batch_rejected;
    rescored := !rescored + s.Allocator.rescored;
    memo_hits := !memo_hits + s.Allocator.memo_hits;
    stage_refills := !stage_refills + s.Allocator.stage_refills;
    refills_saved := !refills_saved + s.Allocator.refills_saved;
    (* Modeled admission-epoch duration (one batched commit). *)
    let apps_touched =
      s.Allocator.batch_admitted + List.length batch.Allocator.batch_reallocated
    in
    let d_admit =
      modeled_epoch_s ~logical_stages:n_stages ~apps_touched
        ~words:(words_of_realloc batch.Allocator.batch_reallocated)
    in
    (* Arrival times and time-to-service.  During calibration the offered
       rate is unknown, so members arrive at epoch start and wait exactly
       one epoch; afterwards members arrive [inter_arrival] apart and the
       epoch starts once its last member is in. *)
    let calibrating = !n_epochs <= calibration_epochs in
    if not calibrating then begin
      inter_arrival :=
        !now /. (offered_fraction *. float_of_int (max 1 !arrivals_offered));
      if not !calibrated then begin
        calibrated := true;
        arrival_clock := !now
      end
    end;
    let epoch_start =
      if calibrating || k = 0 then !now
      else begin
        let last_arrival =
          !arrival_clock +. (float_of_int (k - 1) *. !inter_arrival)
        in
        Float.max !now last_arrival
      end
    in
    let epoch_end = epoch_start +. d_admit in
    List.iteri
      (fun j outcome ->
        match outcome with
        | Allocator.Rejected _ -> ()
        | Allocator.Admitted _ ->
          let arrive =
            if calibrating then epoch_start
            else !arrival_clock +. (float_of_int j *. !inter_arrival)
          in
          tts := (epoch_end -. arrive) :: !tts)
      batch.Allocator.outcomes;
    if not calibrating then
      arrival_clock := !arrival_clock +. (float_of_int k *. !inter_arrival);
    arrivals_offered := !arrivals_offered + k;
    now := epoch_end;
    Telemetry.add telemetry ~at:!now ~by:k "churn.offered";
    Telemetry.add telemetry ~at:!now ~by:s.Allocator.batch_admitted "churn.admitted";
    Telemetry.add telemetry ~at:!now ~by:s.Allocator.batch_rejected "churn.rejected";
    (* Departures drain sequentially after the admission commit; their
       (coalesced) table work advances the clock but does not delay the
       epoch's admissions.  Touched fids are deduplicated across the
       epoch's departures — a resident that expands after several
       departures is still written once in the epoch's batched session. *)
    let dep_touched = Hashtbl.create 16 in
    let dep_expanded = Hashtbl.create 16 in
    List.iter
      (function
        | Churn.Arrive _ -> ()
        | Churn.Depart { fid } ->
          incr departures;
          let expanded = Allocator.depart alloc ~fid in
          Hashtbl.replace dep_touched fid ();
          List.iter
            (fun f ->
              Hashtbl.replace dep_touched f ();
              Hashtbl.replace dep_expanded f ())
            expanded)
      e.Churn.events;
    if Hashtbl.length dep_touched > 0 then begin
      let dep_words =
        Hashtbl.fold
          (fun f () acc ->
            if Allocator.is_resident alloc ~fid:f then
              acc + (Allocator.app_blocks alloc ~fid:f * wpb)
            else acc)
          dep_expanded 0
      in
      now :=
        !now
        +. modeled_epoch_s ~logical_stages:n_stages
             ~apps_touched:(Hashtbl.length dep_touched) ~words:dep_words
    end
  in
  Seq.iter process_epoch trace;
  let tts_ms = List.rev_map (fun s -> s *. 1000.0) !tts in
  let p50, p99, mx =
    match tts_ms with
    | [] -> (0.0, 0.0, 0.0)
    | l ->
      ( Stats.percentile l 50.0,
        Stats.percentile l 99.0,
        List.fold_left Float.max neg_infinity l )
  in
  {
    clients = zcfg.Churn.clients;
    batch = zcfg.Churn.batch;
    epochs = !n_epochs;
    admitted = !admitted;
    rejected = !rejected;
    rescored = !rescored;
    memo_hits = !memo_hits;
    stage_refills = !stage_refills;
    refills_saved = !refills_saved;
    departures = !departures;
    final_residents = List.length (Allocator.resident alloc);
    final_utilization = Allocator.utilization alloc;
    p50_tts_ms = p50;
    p99_tts_ms = p99;
    max_tts_ms = mx;
    modeled_span_s = !now;
    modeled_arrivals_per_sec =
      (if !now > 0.0 then float_of_int zcfg.Churn.clients /. !now else 0.0);
    admit_wall_s = !admit_wall;
    arrivals_per_sec =
      (if !admit_wall > 0.0 then float_of_int zcfg.Churn.clients /. !admit_wall
       else 0.0);
  }
