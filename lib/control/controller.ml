open Import

type commit_mode = [ `Auto | `Interactive ]

type provision_phase =
  | Committed
  | Awaiting_extraction of { impacted : Activermt.Packet.fid list }

type provision = {
  fid : Activermt.Packet.fid;
  response : Activermt.Packet.t;
  reallocated : Activermt.Packet.fid list;
  phase : provision_phase;
  timing : Cost_model.breakdown;
}

type pending = {
  new_fid : Activermt.Packet.fid;
  mutable waiting : Activermt.Packet.fid list;
  mutable deadline_s : float;
}

type t = {
  device : Rmt.Device.t;
  tables : Activermt.Table.t;
  allocator : Allocator.t;
  cost : Cost_model.t;
  mode : commit_mode;
  extraction_timeout_s : float;
  virtual_flags : (Activermt.Packet.fid, bool) Hashtbl.t;
  privileged : (Activermt.Packet.fid, unit) Hashtbl.t;
  pass_limits : (Activermt.Packet.fid, int) Hashtbl.t;
  mutable pending : pending option;
  queue : Activermt.Packet.t Queue.t;
  mutable epoch_counter : int;
  tel : Telemetry.t;
  tracer : Trace.t;
  admit_traces : (Activermt.Packet.fid, Trace.ctx) Hashtbl.t;
      (* the control.provision span that admitted each resident FID, so
         data-plane execution events can link back to it *)
}

let create ?scheme ?policy ?(cost = Cost_model.default) ?(mode = `Auto)
    ?(extraction_timeout_s = 1.0) ?(telemetry = Telemetry.default)
    ?(tracer = Trace.noop) device =
  {
    device;
    tables = Activermt.Table.create device;
    allocator =
      Allocator.create ?scheme ?policy ~telemetry ~tracer
        (Rmt.Device.params device);
    cost;
    mode;
    extraction_timeout_s;
    tel = telemetry;
    tracer;
    admit_traces = Hashtbl.create 32;
    virtual_flags = Hashtbl.create 32;
    privileged = Hashtbl.create 8;
    pass_limits = Hashtbl.create 8;
    pending = None;
    queue = Queue.create ();
    epoch_counter = 0;
  }

let tables t = t.tables
let allocator t = t.allocator
let device t = t.device

let zero_regions t ~fid =
  match Activermt.Table.regions_of t.tables ~fid with
  | None -> ()
  | Some regions ->
    Array.iteri
      (fun stage reg ->
        match reg with
        | None -> ()
        | Some { Activermt.Packet.start_word; n_words } ->
          let st = Rmt.Device.stage t.device stage in
          Rmt.Register_array.zero_range st.Rmt.Device.regs ~lo:start_word
            ~hi:(start_word + n_words - 1))
      regions

(* Install (or re-install in place) an app's tables from the allocator's
   current placement.  The allocator's TCAM headroom estimate is
   conservative, so installation cannot fail; an error here is an internal
   invariant violation. *)
let install_current t ~fid ~virtual_addressing =
  match Allocator.regions_response t.allocator ~fid with
  | None -> Activermt.Table.remove t.tables ~fid
  | Some regions -> (
    match
      Activermt.Table.install t.tables ~fid ~virtual_addressing
        ~privileged:(Hashtbl.mem t.privileged fid)
        ?max_passes:(Hashtbl.find_opt t.pass_limits fid)
        ~regions
    with
    | Ok () -> ()
    | Error (`Tcam_capacity s) ->
      failwith (Printf.sprintf "Controller: TCAM overflow at stage %d" s))

(* Apply one stage's moves, each [(src, dst, len)] in words.  Regions
   within a stage are disjoint before and after a reallocation and keep
   their relative order — inelastic slots never move, elastic slots are
   repacked in arrival order — so running the left moves in ascending and
   then the right moves in descending destination order reads every
   source before anything overwrites it. *)
let move_stage t ~stage moves =
  let moves = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) moves in
  let rec check = function
    | (s1, d1, l1) :: ((s2, d2, _) :: _ as rest) ->
      if s1 + l1 > s2 || d1 + l1 > d2 then
        failwith
          (Printf.sprintf "Controller: relocation reorders regions at stage %d" stage);
      check rest
    | [ _ ] | [] -> ()
  in
  check moves;
  let regs = (Rmt.Device.stage t.device stage).Rmt.Device.regs in
  let move (src, dst, len) = Rmt.Register_array.move regs ~src ~dst ~len in
  let left, right = List.partition (fun (src, dst, _) -> dst < src) moves in
  List.iter move left;
  List.iter move (List.rev right)

(* Relocate the register state of apps the allocator just moved
   (Section 4.3).  In [`Auto] mode each app's first [min old new] words
   per stage move in place from its installed (old) region to its
   allocated (new) one; destinations are disjoint, so the result is what
   copying every old region out and back would leave.  Must run before
   the apps' tables are reinstalled, since the old regions are read from
   them, and before new apps' regions are zeroed.  Returns the old
   regions' words, which the cost model charges as the snapshot. *)
let relocate t fids =
  let moves = Array.make (Rmt.Device.params t.device).Rmt.Params.logical_stages [] in
  let words = ref 0 in
  List.iter
    (fun fid ->
      match Activermt.Table.regions_of t.tables ~fid with
      | None -> ()
      | Some old_regions ->
        let new_regions =
          match t.mode with
          | `Auto -> Allocator.regions_response t.allocator ~fid
          | `Interactive -> None
        in
        Array.iteri
          (fun stage reg ->
            match reg with
            | None -> ()
            | Some { Activermt.Packet.start_word = src; n_words } -> (
              words := !words + n_words;
              match new_regions with
              | None -> ()
              | Some nr -> (
                match nr.(stage) with
                | Some { Activermt.Packet.start_word = dst; n_words = n_new }
                  when dst <> src ->
                  moves.(stage) <- (src, dst, min n_words n_new) :: moves.(stage)
                | Some _ | None -> ())))
          old_regions)
    fids;
  Array.iteri (fun stage ms -> if ms <> [] then move_stage t ~stage ms) moves;
  !words

let virtual_of t fid =
  Option.value ~default:true (Hashtbl.find_opt t.virtual_flags fid)

let commit_app t ~fid =
  install_current t ~fid ~virtual_addressing:(virtual_of t fid);
  Activermt.Table.unquiesce t.tables ~fid

let commit_new_app t ~fid =
  install_current t ~fid ~virtual_addressing:(virtual_of t fid);
  zero_regions t ~fid;
  Activermt.Table.unquiesce t.tables ~fid

let response_packet t ~fid ~flags ~granted =
  let n = (Rmt.Device.params t.device).Rmt.Params.logical_stages in
  let regions =
    if granted then
      Option.value
        ~default:(Array.make n None)
        (Allocator.regions_response t.allocator ~fid)
    else Array.make n None
  in
  {
    Activermt.Packet.fid;
    seq = 0;
    flags;
    payload =
      Activermt.Packet.Response
        {
          status = (if granted then Activermt.Packet.Granted else Activermt.Packet.Rejected);
          regions;
        };
  }

(* Operator-facing policy knobs (Section 7.2): privilege is never taken
   from the packet, only from switch-side configuration. *)
let grant_privilege t ~fid =
  Hashtbl.replace t.privileged fid ();
  if Activermt.Table.installed t.tables ~fid then
    install_current t ~fid ~virtual_addressing:(virtual_of t fid)

let revoke_privilege t ~fid =
  Hashtbl.remove t.privileged fid;
  if Activermt.Table.installed t.tables ~fid then
    install_current t ~fid ~virtual_addressing:(virtual_of t fid)

let limit_recirculation t ~fid ~max_passes =
  if max_passes <= 0 then invalid_arg "Controller.limit_recirculation";
  Hashtbl.replace t.pass_limits fid max_passes;
  if Activermt.Table.installed t.tables ~fid then
    install_current t ~fid ~virtual_addressing:(virtual_of t fid)

let regions_packet t ~fid =
  if Allocator.is_resident t.allocator ~fid then
    Some
      (response_packet t ~fid
         ~flags:
           {
             Activermt.Packet.no_flags with
             virtual_addressing = virtual_of t fid;
           }
         ~granted:true)
  else None

(* What a request asks of the allocator: nothing (malformed, or a retry
   for a FID already resident), or one arrival. *)
let classify t (pkt : Activermt.Packet.t) =
  match pkt.Activermt.Packet.payload with
  | Activermt.Packet.Response _ | Activermt.Packet.Exec _ | Activermt.Packet.Bare ->
    `Bad "not an allocation request"
  | Activermt.Packet.Request req ->
    let fid = pkt.Activermt.Packet.fid in
    if Allocator.is_resident t.allocator ~fid then `Resident
    else
      `Arrival
        {
          Allocator.fid;
          spec = Spec.of_request req;
          elastic = pkt.Activermt.Packet.flags.Activermt.Packet.elastic;
          demand_blocks =
            Array.of_list
              (List.map
                 (fun a -> max 1 a.Activermt.Packet.demand_blocks)
                 req.Activermt.Packet.accesses);
        }

(* Idempotent re-request (dedup by FID): the response to an earlier
   request was lost in flight, or the request itself was duplicated by
   the network.  Answer from the existing allocation — never allocate
   twice for one FID.  Zero-work timing: no allocator or table work
   happened. *)
let duplicate ?trace t (pkt : Activermt.Packet.t) =
  let fid = pkt.Activermt.Packet.fid in
  Telemetry.incr t.tel "control.dup_requests";
  Option.iter
    (fun c ->
      ignore
        (Trace.instant t.tracer c
           ~attrs:[ ("fid", string_of_int fid) ]
           "control.dup_request"))
    trace;
  {
    fid;
    response = response_packet t ~fid ~flags:pkt.Activermt.Packet.flags ~granted:true;
    reallocated = [];
    phase = Committed;
    timing =
      Cost_model.breakdown t.cost ~allocation_s:0.0 ~entries_updated:0
        ~apps_touched:0 ~words_snapshotted:0 ~notifications:1;
  }

(* Move the reallocated apps' register state, then (re)install every
   reallocated and admitted app once, in one table-write session.
   Returns the words moved and the table entries written. *)
let commit t ~reallocated ~admitted =
  let words =
    Telemetry.with_span t.tel "control.snapshot" (fun () -> relocate t reallocated)
  in
  Activermt.Table.reset_update_stats t.tables;
  Telemetry.with_span t.tel "control.table_update" (fun () ->
      List.iter (fun fid -> commit_app t ~fid) reallocated;
      List.iter (fun fid -> commit_new_app t ~fid) admitted);
  let stats = Activermt.Table.update_stats t.tables in
  (words, stats.Activermt.Table.entries_added + stats.Activermt.Table.entries_removed)

let finish_pending_if_done t =
  match t.pending with
  | Some p when p.waiting = [] ->
    commit_new_app t ~fid:p.new_fid;
    t.pending <- None
  | Some _ | None -> ()

(* Commit the pending admission without waiting for more acks: apps
   still extracting move to their new placement, losing what they did
   not extract, and the new app commits. *)
let force_pending t =
  match t.pending with
  | None -> ()
  | Some p ->
    List.iter (fun fid -> commit_app t ~fid) p.waiting;
    p.waiting <- [];
    finish_pending_if_done t

let handle_request ?trace t (pkt : Activermt.Packet.t) =
  match classify t pkt with
  | `Bad msg -> Error (`Bad_packet msg)
  | `Resident -> Ok (duplicate ?trace t pkt)
  | `Arrival arrival ->
    (* Admission is serialized: an admission still awaiting extraction
       completes before the next one is allocated. *)
    force_pending t;
    let fid = arrival.Allocator.fid in
    let flags = pkt.Activermt.Packet.flags in
    Telemetry.span_begin t.tel "control.provision";
    Trace.with_span t.tracer trace
      ~attrs:[ ("fid", string_of_int fid) ]
      "control.provision"
    @@ fun tctx ->
    (match
       Telemetry.with_span t.tel "control.allocation" (fun () ->
           Allocator.admit ?trace:tctx t.allocator arrival)
     with
    | Allocator.Rejected r ->
      Telemetry.add t.tel "control.rejections";
      Telemetry.span_end t.tel (* control.provision *);
      Error (`Rejected r)
    | Allocator.Admitted adm ->
      Hashtbl.replace t.virtual_flags fid flags.Activermt.Packet.virtual_addressing;
      let realloc_fids = List.map fst adm.Allocator.reallocated in
      let words, entries, phase =
        match (t.mode, realloc_fids) with
        | `Interactive, (_ :: _ as impacted) ->
          (* Old tables stay in place so impacted clients can extract;
             the table work happens at commit time but is charged to this
             event, estimated from the impacted set. *)
          let words =
            Telemetry.with_span t.tel "control.snapshot" (fun () -> relocate t impacted)
          in
          Telemetry.with_span t.tel "control.table_update" (fun () ->
              List.iter (fun f -> Activermt.Table.quiesce t.tables ~fid:f) impacted;
              Activermt.Table.quiesce t.tables ~fid);
          t.pending <-
            Some { new_fid = fid; waiting = impacted; deadline_s = t.extraction_timeout_s };
          let n = (Rmt.Device.params t.device).Rmt.Params.logical_stages in
          let entries = 2 * (n + 3) * (List.length impacted + 1) in
          (words, entries, Awaiting_extraction { impacted })
        | (`Auto | `Interactive), _ ->
          let words, entries = commit t ~reallocated:realloc_fids ~admitted:[ fid ] in
          (words, entries, Committed)
      in
      Telemetry.add t.tel "control.provisions";
      let timing =
        Cost_model.breakdown t.cost ~allocation_s:adm.Allocator.compute_time_s
          ~entries_updated:entries
          ~apps_touched:(List.length realloc_fids + 1)
          ~words_snapshotted:words
          ~notifications:(List.length realloc_fids + 1)
      in
      Telemetry.span_end t.tel (* control.provision *);
      (match tctx with
      | None -> ()
      | Some c ->
        ignore
          (Trace.instant t.tracer c
             ~attrs:[ ("words", string_of_int words) ]
             "control.snapshot");
        ignore
          (Trace.instant t.tracer c
             ~attrs:
               [
                 ("entries", string_of_int entries);
                 ("reallocated", string_of_int (List.length realloc_fids));
               ]
             "control.table_update");
        Hashtbl.replace t.admit_traces fid c);
      Ok
        {
          fid;
          response = response_packet t ~fid ~flags ~granted:true;
          reallocated = realloc_fids;
          phase;
          timing;
        })

(* --- Async provision queue: enqueue + epoch drain ------------------- *)

type epoch_result = {
  epoch_index : int;
  results :
    (provision, [ `Rejected of Allocator.rejected | `Bad_packet of string ]) result
    list;
  epoch_timing : Cost_model.breakdown;
  installs : int;
  batch : Allocator.batch_stats option;
}

let enqueue_request t pkt =
  Telemetry.incr t.tel "control.enqueued";
  Queue.add pkt t.queue

let queue_depth t = Queue.length t.queue

(* One admission epoch over up to [max_batch] queued requests: score the
   fresh arrivals together through [Allocator.admit_batch], then commit
   the whole epoch through a single batched table-write session — each
   touched app's tables are (re)installed exactly once, so [Table.epoch]
   bumps once per app per epoch and the JIT invalidates once, not k
   times. *)
let drain_epoch t slots =
  let epoch_index = t.epoch_counter in
  t.epoch_counter <- epoch_index + 1;
  Telemetry.incr t.tel "control.epochs";
  Telemetry.span_begin t.tel "control.epoch";
  let ectx =
    Trace.start_trace t.tracer
      ~attrs:
        [
          ("epoch", string_of_int epoch_index);
          ("batch", string_of_int (List.length slots));
        ]
      "control.epoch"
  in
  let t_epoch_start = Trace.now t.tracer in
  (* A second arrival for the same FID within the epoch is an intra-epoch
     echo, resolved from its primary's outcome: the allocator sees each
     FID at most once. *)
  let seen = Hashtbl.create 16 in
  let arrivals_rev = ref [] in
  let classes =
    List.map
      (fun pkt ->
        match classify t pkt with
        | `Arrival a -> (
          match Hashtbl.find_opt seen a.Allocator.fid with
          | Some i -> (pkt, `Echo i)
          | None ->
            let i = Hashtbl.length seen in
            Hashtbl.replace seen a.Allocator.fid i;
            arrivals_rev := a :: !arrivals_rev;
            (pkt, `Fresh i))
        | (`Bad _ | `Resident) as cls -> (pkt, cls))
      slots
  in
  let batch =
    Telemetry.with_span t.tel "control.allocation" (fun () ->
        Allocator.admit_batch ?trace:ectx t.allocator (List.rev !arrivals_rev))
  in
  let outcomes = Array.of_list batch.Allocator.outcomes in
  (* Record the virtual-addressing choice of every admitted arrival before
     any table install reads it. *)
  let admitted_fids =
    List.filter_map
      (fun (pkt, cls) ->
        match cls with
        | `Fresh i -> (
          match outcomes.(i) with
          | Allocator.Admitted _ ->
            let fid = pkt.Activermt.Packet.fid in
            Hashtbl.replace t.virtual_flags fid
              pkt.Activermt.Packet.flags.Activermt.Packet.virtual_addressing;
            Some fid
          | Allocator.Rejected _ -> None)
        | `Bad _ | `Resident | `Echo _ -> None)
      classes
  in
  let realloc_fids = List.map fst batch.Allocator.batch_reallocated in
  let words, entries = commit t ~reallocated:realloc_fids ~admitted:admitted_fids in
  let installs = List.length realloc_fids + List.length admitted_fids in
  let epoch_timing =
    Cost_model.breakdown_batched t.cost
      ~allocation_s:batch.Allocator.stats.Allocator.batch_compute_time_s
      ~entries_updated:entries ~words_snapshotted:words ~notifications:installs
  in
  Telemetry.add t.tel ~by:(List.length admitted_fids) "control.provisions";
  Telemetry.add t.tel ~by:batch.Allocator.stats.Allocator.batch_rejected
    "control.rejections";
  (match ectx with
  | None -> ()
  | Some c ->
    List.iter
      (fun fid ->
        let pctx =
          Trace.span t.tracer c
            ~attrs:[ ("fid", string_of_int fid) ]
            ~t_start:t_epoch_start ~t_end:(Trace.now t.tracer) "control.provision"
        in
        Hashtbl.replace t.admit_traces fid pctx)
      admitted_fids);
  let results =
    List.map
      (fun (pkt, cls) ->
        match cls with
        | `Bad msg -> Error (`Bad_packet msg)
        | `Resident -> Ok (duplicate t pkt)
        | `Echo i -> (
          match outcomes.(i) with
          | Allocator.Rejected r -> Error (`Rejected r)
          | Allocator.Admitted _ -> Ok (duplicate t pkt))
        | `Fresh i -> (
          match outcomes.(i) with
          | Allocator.Rejected r -> Error (`Rejected r)
          | Allocator.Admitted adm ->
            let fid = pkt.Activermt.Packet.fid in
            Ok
              {
                fid;
                response =
                  response_packet t ~fid ~flags:pkt.Activermt.Packet.flags ~granted:true;
                reallocated = List.map fst adm.Allocator.reallocated;
                phase = Committed;
                timing = epoch_timing;
              }))
      classes
  in
  Telemetry.span_end t.tel (* control.epoch *);
  { epoch_index; results; epoch_timing; installs; batch = Some batch.Allocator.stats }

let drain ?(max_batch = 64) t =
  (match t.mode with
  | `Auto -> ()
  | `Interactive ->
    invalid_arg "Controller.drain: the provision queue needs an `Auto controller");
  if max_batch <= 0 then invalid_arg "Controller.drain: max_batch must be positive";
  Telemetry.sample t.tel "control.queue_depth" (float_of_int (Queue.length t.queue));
  let epochs = ref [] in
  while not (Queue.is_empty t.queue) do
    let slots = ref [] in
    let n = ref 0 in
    while (not (Queue.is_empty t.queue)) && !n < max_batch do
      slots := Queue.pop t.queue :: !slots;
      incr n
    done;
    epochs := drain_epoch t (List.rev !slots) :: !epochs
  done;
  List.rev !epochs

let handle_departure ?trace t ~fid =
  Trace.with_span t.tracer trace
    ~attrs:[ ("fid", string_of_int fid) ]
    "control.departure"
  @@ fun tctx ->
  Activermt.Table.remove t.tables ~fid;
  Hashtbl.remove t.admit_traces fid;
  Hashtbl.remove t.virtual_flags fid;
  (* A service departing mid-extraction no longer blocks the pending
     admission. *)
  (match t.pending with
  | Some p when List.mem fid p.waiting ->
    p.waiting <- List.filter (fun f -> f <> fid) p.waiting;
    finish_pending_if_done t
  | Some _ | None -> ());
  Activermt.Table.reset_update_stats t.tables;
  Telemetry.incr t.tel "control.departures";
  let t0 = Unix.gettimeofday () in
  let expanded =
    Telemetry.with_span t.tel "control.allocation" (fun () ->
        Allocator.depart ?trace:tctx t.allocator ~fid)
  in
  let alloc_s = Unix.gettimeofday () -. t0 in
  let expanded_fids = List.map fst expanded in
  let words =
    Telemetry.with_span t.tel "control.snapshot" (fun () -> relocate t expanded_fids)
  in
  Telemetry.with_span t.tel "control.table_update" (fun () ->
      List.iter
        (fun f -> install_current t ~fid:f ~virtual_addressing:(virtual_of t f))
        expanded_fids);
  let stats = Activermt.Table.update_stats t.tables in
  let timing =
    Cost_model.breakdown t.cost ~allocation_s:alloc_s
      ~entries_updated:(stats.Activermt.Table.entries_added + stats.Activermt.Table.entries_removed)
      ~apps_touched:(List.length expanded_fids + 1)
      ~words_snapshotted:words
      ~notifications:(List.length expanded_fids)
  in
  (timing, expanded_fids)


let complete_extraction t ~fid =
  match t.pending with
  | None -> ()
  | Some p ->
    if List.mem fid p.waiting then begin
      p.waiting <- List.filter (fun f -> f <> fid) p.waiting;
      commit_app t ~fid;
      finish_pending_if_done t
    end

let pending_extraction t =
  match t.pending with None -> [] | Some p -> p.waiting

let expire t ~elapsed_s =
  match t.pending with
  | None -> ()
  | Some p ->
    p.deadline_s <- p.deadline_s -. elapsed_s;
    if p.deadline_s <= 0.0 then force_pending t

let read_region t ~fid ~stage =
  match Activermt.Table.regions_of t.tables ~fid with
  | None -> None
  | Some regions -> (
    match regions.(stage) with
    | None -> None
    | Some { Activermt.Packet.start_word; n_words } ->
      let st = Rmt.Device.stage t.device stage in
      Some
        (Rmt.Register_array.snapshot_range st.Rmt.Device.regs ~lo:start_word
           ~hi:(start_word + n_words - 1)))

let write_region_word t ~fid ~stage ~index ~value =
  match Activermt.Table.regions_of t.tables ~fid with
  | None -> false
  | Some regions -> (
    match regions.(stage) with
    | None -> false
    | Some { Activermt.Packet.start_word; n_words } ->
      if index < 0 || index >= n_words then false
      else begin
        let st = Rmt.Device.stage t.device stage in
        Rmt.Register_array.set st.Rmt.Device.regs (start_word + index) value;
        true
      end)

let admit_trace t ~fid = Hashtbl.find_opt t.admit_traces fid
