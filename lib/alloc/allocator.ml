open Import

type scheme = Worst_fit | Best_fit | First_fit | Min_realloc

let scheme_to_string = function
  | Worst_fit -> "worst-fit"
  | Best_fit -> "best-fit"
  | First_fit -> "first-fit"
  | Min_realloc -> "min-realloc"

let scheme_of_string = function
  | "worst-fit" | "wf" -> Ok Worst_fit
  | "best-fit" | "bf" -> Ok Best_fit
  | "first-fit" | "ff" -> Ok First_fit
  | "min-realloc" | "realloc" -> Ok Min_realloc
  | s -> Error (Printf.sprintf "unknown allocation scheme %S" s)

type arrival = {
  fid : int;
  spec : Spec.t;
  elastic : bool;
  demand_blocks : int array;
}

type stage_range = { stage : int; range : Pool.range }

type admitted = {
  fid : int;
  mutant : Mutant.t;
  regions : stage_range list;
  reallocated : int list;
  considered_mutants : int;
  feasible_mutants : int;
  compute_time_s : float;
}

type rejected = { considered_mutants : int; compute_time_s : float }
type outcome = Admitted of admitted | Rejected of rejected

type batch_stats = {
  batch_size : int;
  batch_admitted : int;
  batch_rejected : int;
  memo_hits : int;
  rescored : int;
  stage_refills : int;
  refills_saved : int;
  batch_compute_time_s : float;
}

type batch = {
  outcomes : outcome list;
  batch_reallocated : int list;
  stats : batch_stats;
}

type moves = { mutable cells : int array; mutable n : int }

(* A resident's placement is kept per stage, in words (block-aligned), and
   a refill repoints only the stages it moved. *)
type app = {
  app_fid : int;
  app_mutant : Mutant.t;
  app_demand : (int * int) list;  (* merged (stage, blocks) *)
  app_regions : Activermt.Packet.region option array;
  mutable rank : int;  (* position in [t.apps]' iteration order *)
  mutable listed : int;  (* the last report that listed the app *)
}

type spec_key = {
  k_length : int;
  k_accesses : int array;
  k_gaps : int array;
  k_rts : int option;
}

type t = {
  params : Rmt.Params.t;
  scheme : scheme;
  policy : Mutant.policy;
  mutant_limit : int;
  pools : Pool.t array;
  apps : (int, app) Hashtbl.t;
  mutants_cache : (spec_key, Mutant.t array) Hashtbl.t;
      (* mutant sets depend only on the program shape, so the controller
         enumerates each shape once (clients cache them likewise) *)
  demand_arrays_cache : (spec_key * int array, (int array * int array) array) Hashtbl.t;
      (* per-mutant merged (stages, demands) arrays are pure in (shape,
         demand) — batched admission reuses them across every epoch
         instead of rebuilding them per scored mutant *)
  tel : Telemetry.t;
  tracer : Trace.t;
  wpb : int;  (* words per block *)
  mutable ranked : bool;  (* every app's [rank] is current *)
  mutable report : int;  (* the report being collected *)
  mutable moved : app list;  (* the apps it lists so far *)
  stage_moves : moves array;  (* the current call's moves, by stage *)
}

let create ?(scheme = Worst_fit) ?(policy = Mutant.Most_constrained)
    ?(mutant_limit = 4096) ?(telemetry = Telemetry.default) ?(tracer = Trace.noop)
    params =
  {
    params;
    scheme;
    policy;
    mutant_limit;
    pools =
      Array.init params.Rmt.Params.logical_stages (fun _ ->
          Pool.create ~total_blocks:params.Rmt.Params.blocks_per_stage);
    apps = Hashtbl.create 256;
    mutants_cache = Hashtbl.create 16;
    demand_arrays_cache = Hashtbl.create 32;
    tel = telemetry;
    tracer;
    wpb = Rmt.Params.words_per_block params;
    ranked = false;
    report = 0;
    moved = [];
    stage_moves =
      Array.init params.Rmt.Params.logical_stages (fun _ -> { cells = [||]; n = 0 });
  }

let mutants_of t (spec : Spec.t) =
  let key =
    {
      k_length = spec.Spec.length;
      k_accesses = spec.Spec.accesses;
      k_gaps = spec.Spec.gaps;
      k_rts = spec.Spec.rts;
    }
  in
  match Hashtbl.find_opt t.mutants_cache key with
  | Some ms ->
    Telemetry.incr t.tel "alloc.enumerate.hit";
    ms
  | None ->
    Telemetry.incr t.tel "alloc.enumerate.miss";
    let ms =
      Telemetry.with_span t.tel "alloc.enumerate" (fun () ->
          Array.of_list
            (Mutant.enumerate ~limit:t.mutant_limit t.params t.policy spec))
    in
    Hashtbl.replace t.mutants_cache key ms;
    ms

(* Per-mutant merged (stages, demands) arrays, pure in (shape, demand):
   batched admission reuses them across every epoch instead of rebuilding
   them for each of the thousands of mutants scored per arrival.  The key
   copies the demand array so a caller mutating its own array can't
   corrupt the cache. *)
let demand_arrays_of t key ~demand_blocks (mutants : Mutant.t array) =
  match Hashtbl.find_opt t.demand_arrays_cache (key, demand_blocks) with
  | Some arrs -> arrs
  | None ->
    let arrs =
      Array.map (fun m -> Mutant.demand_by_stage_arrays m ~demand_blocks) mutants
    in
    Hashtbl.replace t.demand_arrays_cache (key, Array.copy demand_blocks) arrs;
    arrs

let policy t = t.policy
let shutdown (_ : t) = ()
let resident t = Hashtbl.fold (fun fid _ acc -> fid :: acc) t.apps []
let is_resident t ~fid = Hashtbl.mem t.apps fid

let layout_regions t app =
  let out = ref [] in
  for s = Array.length app.app_regions - 1 downto 0 do
    match app.app_regions.(s) with
    | None -> ()
    | Some r ->
      let range =
        {
          Pool.first_block = r.Activermt.Packet.start_word / t.wpb;
          n_blocks = r.Activermt.Packet.n_words / t.wpb;
        }
      in
      out := { stage = s; range } :: !out
  done;
  !out

let regions_of t ~fid = Option.map (layout_regions t) (Hashtbl.find_opt t.apps fid)

let placement t ~fid =
  match Hashtbl.find_opt t.apps fid with
  | None -> None
  | Some app -> Some app.app_regions

let layout_blocks t app =
  Array.fold_left
    (fun acc -> function Some r -> acc + (r.Activermt.Packet.n_words / t.wpb) | None -> acc)
    0 app.app_regions

let app_blocks t ~fid =
  match Hashtbl.find_opt t.apps fid with None -> 0 | Some app -> layout_blocks t app

let utilization t =
  let used = Array.fold_left (fun acc p -> acc + Pool.used_blocks p) 0 t.pools in
  let total =
    Array.length t.pools * t.params.Rmt.Params.blocks_per_stage
  in
  float_of_int used /. float_of_int total

let stage_used_blocks t = Array.map Pool.used_blocks t.pools

let total_blocks t =
  Array.length t.pools * t.params.Rmt.Params.blocks_per_stage

let resident_blocks t =
  Hashtbl.fold (fun fid app acc -> (fid, layout_blocks t app) :: acc) t.apps []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* A conservative per-stage cap on resident apps derived from TCAM
   capacity: a protection range of width w bits expands to at most 2w - 2
   prefixes, so capacity / (2w - 2) apps always fit and installation can
   never fail after admission. *)
let max_apps_per_stage t =
  let w = t.params.Rmt.Params.mar_bits in
  max 1 (t.params.Rmt.Params.tcam_entries_per_stage / ((2 * w) - 2))

(* Per-admit snapshot of every pool's occupancy as flat int arrays
   (struct-of-arrays): O(stages) to build from the pools' O(1) counters,
   after which per-mutant feasibility and cost are pure array lookups with
   zero allocation; the snapshot is never written during scoring. *)
type snapshot = {
  snap_fungible : int array;
  snap_slots : int array;  (* resident count per stage *)
  snap_elastic : int array;  (* elastic resident count per stage *)
  snap_max_hole : int array;  (* largest pinned-zone hole; -1 = not computed *)
}

let snapshot t ~elastic =
  let n = Array.length t.pools in
  {
    snap_fungible = Array.init n (fun s -> Pool.fungible_blocks t.pools.(s));
    snap_slots = Array.init n (fun s -> Pool.n_slots t.pools.(s));
    snap_elastic = Array.init n (fun s -> Pool.n_elastic t.pools.(s));
    (* Hole scans are O(blocks) per stage; only inelastic placement ever
       consults them. *)
    snap_max_hole =
      (if elastic then Array.make n (-1)
       else Array.init n (fun s -> Pool.max_hole t.pools.(s)));
  }

let feasible_snap snap ~max_apps ~elastic stages demands =
  let ok = ref true in
  let k = Array.length stages in
  let j = ref 0 in
  while !ok && !j < k do
    let s = stages.(!j) and d = demands.(!j) in
    ok :=
      snap.snap_slots.(s) + 1 <= max_apps
      && d > 0
      && (if elastic then snap.snap_fungible.(s) >= d
          else snap.snap_max_hole.(s) >= d || snap.snap_fungible.(s) >= d);
    incr j
  done;
  !ok

(* The same predicate read directly off the live pool counters.  Within
   an epoch, commits only consume space (no departures), so a mutant that
   scored feasible against the epoch's shared snapshot needs exactly this
   re-check before its commit: a failure means an earlier arrival in the
   batch took the space (a conflict). *)
let feasible_live t ~max_apps ~elastic stages demands =
  let ok = ref true in
  let k = Array.length stages in
  let j = ref 0 in
  while !ok && !j < k do
    let s = stages.(!j) and d = demands.(!j) in
    let pool = t.pools.(s) in
    ok :=
      Pool.n_slots pool + 1 <= max_apps
      && d > 0
      && (if elastic then Pool.fungible_blocks pool >= d
          else
            (* Counter check first: [fungible_blocks] is O(1) while
               [max_hole] rescans the block map whenever a commit has
               dirtied the pool.  Reordering a disjunction cannot change
               the result. *)
            Pool.fungible_blocks pool >= d || Pool.max_hole pool >= d);
    incr j
  done;
  !ok

(* Per-stage costs follow the paper's f(x) = g(x) . C with C >= 0, so
   using additional stages is never free: worst-fit charges a stage by how
   much of it is *not* fungible, best-fit by how much is. *)
let cost_snap snap ~scheme ~total_blocks stages =
  match scheme with
  | First_fit -> 0.0
  | Worst_fit ->
    let c = ref 0 in
    Array.iter (fun s -> c := !c + total_blocks - snap.snap_fungible.(s)) stages;
    float_of_int !c
  | Best_fit ->
    let c = ref 0 in
    Array.iter (fun s -> c := !c + snap.snap_fungible.(s)) stages;
    float_of_int !c
  | Min_realloc ->
    let c = ref 0 in
    Array.iter (fun s -> c := !c + snap.snap_elastic.(s)) stages;
    float_of_int !c

let merged_demand (a : arrival) mutant =
  Mutant.demand_by_stage mutant ~demand_blocks:a.demand_blocks

let new_app t (a : arrival) mutant demand =
  let n = Array.length t.pools in
  {
    app_fid = a.fid;
    app_mutant = mutant;
    app_demand = demand;
    app_regions = Array.make n None;
    rank = 0;
    listed = -1;
  }

let place t app s (range : Pool.range) =
  let region =
    {
      Activermt.Packet.start_word = range.Pool.first_block * t.wpb;
      n_words = range.Pool.n_blocks * t.wpb;
    }
  in
  app.app_regions.(s) <- Some region;
  region

let moves t ~stage = t.stage_moves.(stage)

(* Every call starts with no moves on any stage, so a call that moves
   nobody leaves nothing of the call before it. *)
let clear_moves t =
  for s = 0 to Array.length t.stage_moves - 1 do
    t.stage_moves.(s).n <- 0
  done

let add_move m ~src ~dst ~len =
  let n = m.n in
  if 3 * (n + 1) > Array.length m.cells then begin
    let bigger = Array.make (max 24 (2 * Array.length m.cells)) 0 in
    Array.blit m.cells 0 bigger 0 (3 * n);
    m.cells <- bigger
  end;
  let k = 3 * n in
  m.cells.(k) <- src;
  m.cells.(k + 1) <- dst;
  m.cells.(k + 2) <- len;
  m.n <- n + 1

(* Start collecting the apps an admission or departure moves.  Reports
   list them in the order {!resident} gave before the operation, which
   is the reverse of [t.apps]' iteration order: an insert can reorder the
   table, so ranks are re-read after one, while a removal never
   reorders it. *)
let begin_report t =
  if not t.ranked then begin
    let i = ref 0 in
    Hashtbl.iter
      (fun _ app ->
        app.rank <- !i;
        incr i)
      t.apps;
    t.ranked <- true
  end;
  t.report <- t.report + 1;
  t.moved <- []

let insert t app =
  Hashtbl.replace t.apps app.app_fid app;
  t.ranked <- false

(* The refill of stage [s] moved [fid] to [range].  A stage the app held
   before puts the app in the report, and where its start changed, its
   first [min old new] words on the stage's move buffer; a first range
   (an app being admitted) does neither.  The refill names the slots in
   arrival order, which is their order on the stage before and after,
   so each buffer's sources and destinations ascend. *)
let repoint t s fid (range : Pool.range) =
  match Hashtbl.find_opt t.apps fid with
  | None -> ()
  | Some app -> (
    match app.app_regions.(s) with
    | None -> ignore (place t app s range)
    | Some before ->
      let src = before.Activermt.Packet.start_word in
      if
        src <> range.Pool.first_block * t.wpb
        || before.Activermt.Packet.n_words <> range.Pool.n_blocks * t.wpb
      then begin
        let after = place t app s range in
        let dst = after.Activermt.Packet.start_word in
        if dst <> src then
          add_move t.stage_moves.(s) ~src ~dst
            ~len:(min before.Activermt.Packet.n_words after.Activermt.Packet.n_words);
        if app.listed <> t.report then begin
          app.listed <- t.report;
          t.moved <- app :: t.moved
        end
      end)

let refill t s = Pool.refill_elastic t.pools.(s) (repoint t s)

(* The apps moved since [begin_report], in report order. *)
let end_report t =
  let apps = List.sort (fun a b -> Int.compare b.rank a.rank) t.moved in
  t.moved <- [];
  apps

let fid_of app = app.app_fid

(* Score every mutant against the immutable snapshot, then reduce: first-fit
   takes the lowest feasible index; the cost schemes take the minimum cost
   with ties to the lowest index — exactly the sequential fold over the
   former scored list.  Pure in the snapshot, which is what makes results
   memoizable across an epoch's arrivals. *)
let score_mutants ?arrs t snap ~elastic ~demand_blocks (mutants : Mutant.t array) =
  let considered = Array.length mutants in
  let max_apps = max_apps_per_stage t in
  let scheme = t.scheme in
  let total_blocks = t.params.Rmt.Params.blocks_per_stage in
  let feas = Array.make (max considered 1) false in
  let costs = Array.make (max considered 1) infinity in
  for i = 0 to considered - 1 do
    let stages, demands =
      match arrs with
      | Some a -> a.(i)
      | None -> Mutant.demand_by_stage_arrays mutants.(i) ~demand_blocks
    in
    if feasible_snap snap ~max_apps ~elastic stages demands then begin
      feas.(i) <- true;
      costs.(i) <- cost_snap snap ~scheme ~total_blocks stages
    end
  done;
  let feasible_count = ref 0 in
  let best = ref (-1) in
  for i = 0 to considered - 1 do
    if feas.(i) then begin
      incr feasible_count;
      match scheme with
      | First_fit -> if !best < 0 then best := i
      | Worst_fit | Best_fit | Min_realloc ->
        if !best < 0 || costs.(i) < costs.(!best) then best := i
    end
  done;
  (!feasible_count, !best)

let admit ?trace t (a : arrival) =
  clear_moves t;
  if Hashtbl.mem t.apps a.fid then
    invalid_arg (Printf.sprintf "Allocator.admit: fid %d already resident" a.fid);
  if Array.length a.demand_blocks <> Array.length a.spec.Spec.accesses then
    invalid_arg "Allocator.admit: demand_blocks does not match spec accesses";
  Trace.with_span t.tracer trace
    ~attrs:[ ("fid", string_of_int a.fid) ]
    "alloc.admit"
  @@ fun tctx ->
  let t0 = Unix.gettimeofday () in
  Telemetry.span_begin t.tel "alloc.admit";
  let mutants = mutants_of t a.spec in
  let considered = Array.length mutants in
  let snap =
    Telemetry.with_span t.tel "alloc.snapshot" (fun () ->
        snapshot t ~elastic:a.elastic)
  in
  Telemetry.span_begin t.tel "alloc.score";
  let feasible_count, best =
    score_mutants t snap ~elastic:a.elastic ~demand_blocks:a.demand_blocks
      mutants
  in
  Telemetry.span_end t.tel (* alloc.score *);
  let best = ref best in
  Telemetry.incr t.tel "alloc.mutants.considered" ~by:considered;
  Telemetry.incr t.tel "alloc.mutants.feasible" ~by:feasible_count;
  (match tctx with
  | None -> ()
  | Some c ->
    ignore
      (Trace.instant t.tracer c
         ~attrs:
           [
             ("considered", string_of_int considered);
             ("feasible", string_of_int feasible_count);
           ]
         "alloc.score"));
  match !best with
  | -1 ->
    Telemetry.add t.tel "alloc.rejected";
    Telemetry.span_end t.tel (* alloc.admit *);
    (match tctx with
    | None -> ()
    | Some c -> ignore (Trace.instant t.tracer c "alloc.rejected"));
    Rejected
      { considered_mutants = considered; compute_time_s = Unix.gettimeofday () -. t0 }
  | best ->
    let mutant = mutants.(best) in
    let demand = merged_demand a mutant in
    Telemetry.span_begin t.tel "alloc.fill";
    begin_report t;
    let app = new_app t a mutant demand in
    List.iter
      (fun (s, d) ->
        let pool = t.pools.(s) in
        if a.elastic then begin
          match Pool.add_elastic pool ~fid:a.fid ~min_blocks:d with
          | Ok () -> ()
          | Error `No_space -> assert false (* guarded by [feasible] *)
        end
        else begin
          match Pool.add_inelastic pool ~fid:a.fid ~blocks:d with
          | Ok range -> ignore (place t app s range)
          | Error `No_space -> assert false
        end)
      demand;
    insert t app;
    List.iter (fun (s, _) -> refill t s) demand;
    let reallocated = List.map fid_of (end_report t) in
    let regions = layout_regions t app in
    Telemetry.span_end t.tel (* alloc.fill *);
    Telemetry.add t.tel "alloc.admitted";
    Telemetry.incr t.tel "alloc.reallocated" ~by:(List.length reallocated);
    Telemetry.span_end t.tel (* alloc.admit *);
    (match tctx with
    | None -> ()
    | Some c ->
      ignore
        (Trace.instant t.tracer c
           ~attrs:
             [
               ("stages", string_of_int (List.length regions));
               ("reallocated", string_of_int (List.length reallocated));
             ]
           "alloc.fill"));
    Admitted
      {
        fid = a.fid;
        mutant;
        regions;
        reallocated;
        considered_mutants = considered;
        feasible_mutants = feasible_count;
        compute_time_s = Unix.gettimeofday () -. t0;
      }

let empty_batch_stats =
  {
    batch_size = 0;
    batch_admitted = 0;
    batch_rejected = 0;
    memo_hits = 0;
    rescored = 0;
    stage_refills = 0;
    refills_saved = 0;
    batch_compute_time_s = 0.0;
  }

(* Epoch admission: score k arrivals against one shared pool snapshot and
   commit the compatible subset together.

   - Scoring is memoized per (program shape, elasticity, demand) within
     the epoch: the score is a pure function of the shared snapshot, so k
     arrivals of the same service pay for one mutant sweep instead of k.
   - Before each commit the chosen mutant is re-checked against the live
     pool counters (cheap, O(stages)).  Within an epoch resources only
     shrink — commits consume blocks and slots, nothing is freed — so a
     snapshot-infeasible arrival is live-infeasible too and rejections
     need no re-check; only a snapshot-feasible choice can be invalidated
     by an earlier commit.  On such a conflict the arrival falls back to
     the sequential path: a fresh snapshot and a full re-score, which then
     becomes the shared snapshot (memo reset) for the rest of the epoch.
   - Fills are coalesced: commits update the O(1) pool counters arrival by
     arrival (keeping the live re-checks exact), but the elastic-layout
     rematerialization ([Pool.refill_elastic]) runs once per touched stage
     at the batch tail instead of once per (arrival, stage), and the
     reallocation report is collected once for the whole epoch.

   At batch size 1 nothing above diverges from [admit]: the snapshot is
   fresh, the memo is empty, the live re-check is vacuous, and the
   coalesced tail degenerates to the per-admit refill + report — decisions,
   placements and reallocation reports are bit-identical (the qcheck
   differential suite in test/test_alloc.ml holds this invariant). *)
let admit_batch ?trace t arrivals =
  clear_moves t;
  (* Validate everything up front so a bad arrival cannot leave the epoch
     partially committed. *)
  let batch_fids = Hashtbl.create 16 in
  List.iter
    (fun (a : arrival) ->
      if Hashtbl.mem t.apps a.fid then
        invalid_arg
          (Printf.sprintf "Allocator.admit_batch: fid %d already resident" a.fid);
      if Hashtbl.mem batch_fids a.fid then
        invalid_arg
          (Printf.sprintf "Allocator.admit_batch: fid %d appears twice in the batch"
             a.fid);
      Hashtbl.replace batch_fids a.fid ();
      if Array.length a.demand_blocks <> Array.length a.spec.Spec.accesses then
        invalid_arg "Allocator.admit_batch: demand_blocks does not match spec accesses")
    arrivals;
  let batch_size = List.length arrivals in
  if batch_size = 0 then
    { outcomes = []; batch_reallocated = []; stats = empty_batch_stats }
  else begin
    let t0 = Unix.gettimeofday () in
    Telemetry.span_begin t.tel "alloc.admit_batch";
    Trace.with_span t.tracer trace
      ~attrs:[ ("batch", string_of_int batch_size) ]
      "alloc.admit_batch"
    @@ fun tctx ->
    (* Hole scans are only needed if some arrival places inelastically. *)
    let any_inelastic = List.exists (fun a -> not a.elastic) arrivals in
    let max_apps = max_apps_per_stage t in
    let snap =
      ref
        (Telemetry.with_span t.tel "alloc.snapshot" (fun () ->
             snapshot t ~elastic:(not any_inelastic)))
    in
    (* (shape, elastic, demand) -> (mutants, arrs, considered, feasible,
       best) against the current shared snapshot. *)
    let memo = Hashtbl.create 8 in
    let memo_hits = ref 0 and rescored = ref 0 in
    let key_of (a : arrival) =
      ( {
          k_length = a.spec.Spec.length;
          k_accesses = a.spec.Spec.accesses;
          k_gaps = a.spec.Spec.gaps;
          k_rts = a.spec.Spec.rts;
        },
        a.elastic,
        a.demand_blocks )
    in
    let score (a : arrival) =
      let key = key_of a in
      match Hashtbl.find_opt memo key with
      | Some r ->
        incr memo_hits;
        r
      | None ->
        let mutants = mutants_of t a.spec in
        let skey, _, _ = key in
        let arrs =
          demand_arrays_of t skey ~demand_blocks:a.demand_blocks mutants
        in
        let feasible, best =
          Telemetry.with_span t.tel "alloc.score" (fun () ->
              score_mutants ~arrs t !snap ~elastic:a.elastic
                ~demand_blocks:a.demand_blocks mutants)
        in
        let r = (mutants, arrs, Array.length mutants, feasible, best) in
        Hashtbl.replace memo key r;
        r
    in
    (* Existing apps only move on the refills, which the epoch defers to
       the batch tail; the report follows the pre-commit order. *)
    begin_report t;
    let n_stages = Array.length t.pools in
    let touched = Array.make n_stages false in
    let naive_refills = ref 0 in
    (* Per-arrival counters accumulate locally and flush to telemetry once
       per epoch — four hashtable updates per arrival add up at 100k+
       arrivals/s. *)
    let c_considered = ref 0 and c_feasible = ref 0 in
    let c_admitted = ref 0 and c_rejected = ref 0 in
    let pending =
      List.map
        (fun (a : arrival) ->
          let ta = Unix.gettimeofday () in
          let mutants, arrs, considered, feasible, best = score a in
          let mutants, arrs, considered, feasible, best =
            if best < 0 then (mutants, arrs, considered, feasible, best)
            else begin
              let stages, demands = arrs.(best) in
              if feasible_live t ~max_apps ~elastic:a.elastic stages demands
              then (mutants, arrs, considered, feasible, best)
              else begin
                (* Conflict: an earlier commit in this epoch consumed the
                   chosen placement.  Sequential fallback for this shape —
                   fresh snapshot, evict only the stale memo entry and
                   re-score it.  Entries for other shapes stay memoized
                   against the older (larger) snapshot: within an epoch
                   resources only shrink, so a stale choice is at worst
                   infeasible live, which this same guard catches on its
                   own commit. *)
                incr rescored;
                Telemetry.incr t.tel "alloc.batch.conflicts";
                snap := snapshot t ~elastic:(not any_inelastic);
                Hashtbl.remove memo (key_of a);
                score a
              end
            end
          in
          c_considered := !c_considered + considered;
          c_feasible := !c_feasible + feasible;
          if best < 0 then begin
            incr c_rejected;
            `Rejected
              {
                considered_mutants = considered;
                compute_time_s = Unix.gettimeofday () -. ta;
              }
          end
          else begin
            let mutant = mutants.(best) in
            (* [arrs.(best)] is [merged_demand] in array form (same
               insertion-sorted stage order, same values). *)
            let demand =
              let bstages, bdemands = arrs.(best) in
              Array.to_list (Array.mapi (fun i s -> (s, bdemands.(i))) bstages)
            in
            let app = new_app t a mutant demand in
            List.iter
              (fun (s, d) ->
                let pool = t.pools.(s) in
                (* First commit of the epoch on this stage: withdraw the
                   stale elastic shares so the deferred refill can't leave
                   them below a rising high-water mark (the block map
                   would flag the overlap).  Decision inputs are
                   unchanged — see [Pool.unfill_elastic]. *)
                if not touched.(s) then Pool.unfill_elastic pool;
                (if a.elastic then
                   match Pool.add_elastic pool ~fid:a.fid ~min_blocks:d with
                   | Ok () -> ()
                   | Error `No_space -> assert false (* guarded by [feasible_live] *)
                 else
                   match Pool.add_inelastic pool ~fid:a.fid ~blocks:d with
                   | Ok range -> ignore (place t app s range)
                   | Error `No_space -> assert false);
                touched.(s) <- true;
                incr naive_refills)
              demand;
            insert t app;
            incr c_admitted;
            `Admitted (app, demand, considered, feasible, ta)
          end)
        arrivals
    in
    (* Coalesced tail: one elastic refill per touched stage, one
       reallocation report for the whole epoch. *)
    let touched_stages = ref [] in
    for s = n_stages - 1 downto 0 do
      if touched.(s) then touched_stages := s :: !touched_stages
    done;
    let touched_stages = !touched_stages in
    let stage_refills = List.length touched_stages in
    let refills_saved = !naive_refills - stage_refills in
    Telemetry.span_begin t.tel "alloc.fill";
    List.iter (refill t) touched_stages;
    let moved = end_report t in
    let batch_reallocated = List.map fid_of moved in
    Telemetry.span_end t.tel (* alloc.fill *);
    let t_tail = Unix.gettimeofday () in
    let outcomes =
      List.map
        (function
          | `Rejected r -> Rejected r
          | `Admitted (app, demand, considered, feasible, ta) ->
            (* Attribute the epoch's reallocations to the arrivals whose
               stages they share.  At batch size 1 every reported app lies on
               the lone arrival's stages, so this is exactly [admit]'s
               reallocated list; at larger sizes an app resized by several
               arrivals is reported to each (the controller installs the
               deduplicated union once per epoch). *)
            let reallocated =
              List.filter_map
                (fun moved_app ->
                  if
                    List.exists
                      (fun (s, _) -> Option.is_some moved_app.app_regions.(s))
                      demand
                  then Some moved_app.app_fid
                  else None)
                moved
            in
            Admitted
              {
                fid = app.app_fid;
                mutant = app.app_mutant;
                regions = layout_regions t app;
                reallocated;
                considered_mutants = considered;
                feasible_mutants = feasible;
                compute_time_s = t_tail -. ta;
              })
        pending
    in
    let batch_admitted =
      List.fold_left
        (fun n -> function Admitted _ -> n + 1 | Rejected _ -> n)
        0 outcomes
    in
    let stats =
      {
        batch_size;
        batch_admitted;
        batch_rejected = batch_size - batch_admitted;
        memo_hits = !memo_hits;
        rescored = !rescored;
        stage_refills;
        refills_saved;
        batch_compute_time_s = Unix.gettimeofday () -. t0;
      }
    in
    Telemetry.incr t.tel "alloc.mutants.considered" ~by:!c_considered;
    Telemetry.incr t.tel "alloc.mutants.feasible" ~by:!c_feasible;
    Telemetry.add t.tel "alloc.admitted" ~by:!c_admitted;
    Telemetry.add t.tel "alloc.rejected" ~by:!c_rejected;
    Telemetry.incr t.tel "alloc.batch.count";
    Telemetry.incr t.tel "alloc.batch.arrivals" ~by:batch_size;
    Telemetry.incr t.tel "alloc.batch.memo_hits" ~by:!memo_hits;
    Telemetry.incr t.tel "alloc.batch.refills_saved" ~by:refills_saved;
    Telemetry.incr t.tel "alloc.reallocated"
      ~by:(List.length batch_reallocated);
    Telemetry.span_end t.tel (* alloc.admit_batch *);
    (match tctx with
    | None -> ()
    | Some c ->
      ignore
        (Trace.instant t.tracer c
           ~attrs:
             [
               ("batch", string_of_int batch_size);
               ("admitted", string_of_int batch_admitted);
               ("stage_refills", string_of_int stage_refills);
               ("refills_saved", string_of_int refills_saved);
               ("rescored", string_of_int !rescored);
               ("reallocated", string_of_int (List.length batch_reallocated));
             ]
           "alloc.fill"));
    { outcomes; batch_reallocated; stats }
  end

let depart ?trace t ~fid =
  clear_moves t;
  match Hashtbl.find_opt t.apps fid with
  | None -> []
  | Some app ->
    Trace.with_span t.tracer trace
      ~attrs:[ ("fid", string_of_int fid) ]
      "alloc.depart"
    @@ fun _tctx ->
    Telemetry.with_span t.tel "alloc.depart" (fun () ->
        Telemetry.incr t.tel "alloc.departed";
        begin_report t;
        (* The app only ever holds blocks on its demand stages. *)
        List.iter (fun (s, _) -> ignore (Pool.remove t.pools.(s) ~fid)) app.app_demand;
        Hashtbl.remove t.apps fid;
        List.iter (fun (s, _) -> refill t s) app.app_demand;
        let expanded = List.map fid_of (end_report t) in
        Telemetry.incr t.tel "alloc.reallocated" ~by:(List.length expanded);
        expanded)
