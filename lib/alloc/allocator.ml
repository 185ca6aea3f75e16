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
  reallocated : (int * stage_range list) list;
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
  batch_reallocated : (int * stage_range list) list;
  stats : batch_stats;
}

(* One stage of an app's layout; a refill repoints [p_range] in place. *)
type placed = { p_stage : int; mutable p_range : Pool.range }

type app = {
  app_fid : int;
  app_elastic : bool;
  app_mutant : Mutant.t;
  app_demand : (int * int) list;  (* merged (stage, blocks) *)
  mutable app_layout : placed list;
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
  dpool : Stdx.Domain_pool.t;  (* fan-out width for mutant scoring *)
  tel : Telemetry.t;
  tracer : Trace.t;
}

let create ?(scheme = Worst_fit) ?(policy = Mutant.Most_constrained)
    ?(mutant_limit = 4096) ?(domains = 1) ?(telemetry = Telemetry.default)
    ?(tracer = Trace.noop) params =
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
    dpool = Stdx.Domain_pool.create ~size:domains ();
    tel = telemetry;
    tracer;
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
let shutdown t = Stdx.Domain_pool.shutdown t.dpool
let resident t = Hashtbl.fold (fun fid _ acc -> fid :: acc) t.apps []
let is_resident t ~fid = Hashtbl.mem t.apps fid

let layout_regions app =
  List.map (fun p -> { stage = p.p_stage; range = p.p_range }) app.app_layout
  |> List.sort (fun a b -> compare a.stage b.stage)

let regions_of t ~fid = Option.map layout_regions (Hashtbl.find_opt t.apps fid)

let layout_blocks app =
  List.fold_left (fun acc p -> acc + p.p_range.Pool.n_blocks) 0 app.app_layout

let app_blocks t ~fid =
  match Hashtbl.find_opt t.apps fid with None -> 0 | Some app -> layout_blocks app

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
  Hashtbl.fold (fun fid app acc -> (fid, layout_blocks app) :: acc) t.apps []
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
   zero allocation — safe to score from any number of domains because the
   snapshot is never written during scoring. *)
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

(* Point [app]'s layout on stage [s] at [range], searching [layout] (the
   app's layout, passed in so the walk allocates no closure); true if the
   range moved or the stage is new to the layout. *)
let rec relayout app s (range : Pool.range) = function
  | [] ->
    app.app_layout <- { p_stage = s; p_range = range } :: app.app_layout;
    true
  | p :: rest ->
    if p.p_stage <> s then relayout app s range rest
    else if
      p.p_range.Pool.first_block = range.Pool.first_block
      && p.p_range.Pool.n_blocks = range.Pool.n_blocks
    then false
    else begin
      p.p_range <- range;
      true
    end

(* Refill the elastic zone of each of [stages] and repoint the residents'
   layouts.  Returns the set of apps whose range on a refilled stage
   moved or appeared: only a refill moves an existing app, so these are
   exactly the apps whose placement changed. *)
let refresh_layouts t stages =
  let moved = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun (fid, range) ->
          match Hashtbl.find_opt t.apps fid with
          | None -> ()
          | Some app ->
            if relayout app s range app.app_layout then Hashtbl.replace moved fid ())
        (Pool.refill_elastic t.pools.(s)))
    stages;
  moved

(* The apps of [fids] (a pre-commit [resident] capture, which excludes
   the apps being admitted) that [moved] names, with their new layouts,
   in [fids]' order. *)
let reallocated_of t moved fids =
  if Hashtbl.length moved = 0 then []
  else
    List.filter_map
      (fun fid ->
        if Hashtbl.mem moved fid then Some (fid, layout_regions (Hashtbl.find t.apps fid))
        else None)
      fids

(* Score every mutant against the immutable snapshot; each index writes
   only its own cells, so the fan-out is race-free and the reduce is
   bit-identical at any pool size.  The reduce is deterministic: first-fit
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
  Stdx.Domain_pool.parallel_for t.dpool ~n:considered ~f:(fun i ->
      let stages, demands =
        match arrs with
        | Some a -> a.(i)
        | None -> Mutant.demand_by_stage_arrays mutants.(i) ~demand_blocks
      in
      if feasible_snap snap ~max_apps ~elastic stages demands then begin
        feas.(i) <- true;
        costs.(i) <- cost_snap snap ~scheme ~total_blocks stages
      end);
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
    let stages = List.map fst demand in
    Telemetry.span_begin t.tel "alloc.fill";
    (* Captured before the insert, which can resize the table and with it
       the fold order. *)
    let before = resident t in
    let own_layout = ref [] in
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
          | Ok range -> own_layout := { p_stage = s; p_range = range } :: !own_layout
          | Error `No_space -> assert false
        end)
      demand;
    let app =
      {
        app_fid = a.fid;
        app_elastic = a.elastic;
        app_mutant = mutant;
        app_demand = demand;
        app_layout = !own_layout;
      }
    in
    Hashtbl.replace t.apps a.fid app;
    let reallocated = reallocated_of t (refresh_layouts t stages) before in
    let regions = layout_regions app in
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
    (* Existing apps' layouts only move on [refresh_layouts], which the
       epoch defers to the batch tail; the pre-commit residents, in fold
       order, are the candidates for the coalesced report. *)
    let before_all = resident t in
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
            let own_layout = ref [] in
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
                   | Ok range ->
                     own_layout := { p_stage = s; p_range = range } :: !own_layout
                   | Error `No_space -> assert false);
                touched.(s) <- true;
                incr naive_refills)
              demand;
            let app =
              {
                app_fid = a.fid;
                app_elastic = a.elastic;
                app_mutant = mutant;
                app_demand = demand;
                app_layout = !own_layout;
              }
            in
            Hashtbl.replace t.apps a.fid app;
            incr c_admitted;
            `Admitted (a, mutant, demand, considered, feasible, ta)
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
    let batch_reallocated =
      reallocated_of t (refresh_layouts t touched_stages) before_all
    in
    Telemetry.span_end t.tel (* alloc.fill *);
    let t_tail = Unix.gettimeofday () in
    let outcomes =
      List.map
        (function
          | `Rejected r -> Rejected r
          | `Admitted ((a : arrival), mutant, demand, considered, feasible, ta) ->
            let regions = layout_regions (Hashtbl.find t.apps a.fid) in
            let demand_mask = Array.make n_stages false in
            List.iter (fun (s, _) -> demand_mask.(s) <- true) demand;
            (* Attribute the epoch's reallocations to the arrivals whose
               stages they share.  At batch size 1 every reported app lies on
               the lone arrival's stages, so this is exactly [admit]'s
               reallocated list; at larger sizes an app resized by several
               arrivals is reported to each (the controller installs the
               deduplicated union once per epoch). *)
            let reallocated =
              List.filter
                (fun (_, layout) ->
                  List.exists (fun sr -> demand_mask.(sr.stage)) layout)
                batch_reallocated
            in
            Admitted
              {
                fid = a.fid;
                mutant;
                regions;
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
  match Hashtbl.find_opt t.apps fid with
  | None -> []
  | Some app ->
    Trace.with_span t.tracer trace
      ~attrs:[ ("fid", string_of_int fid) ]
      "alloc.depart"
    @@ fun _tctx ->
    Telemetry.with_span t.tel "alloc.depart" (fun () ->
        Telemetry.incr t.tel "alloc.departed";
        let stages = List.map fst app.app_demand in
        (* The app only ever holds blocks on its demand stages. *)
        List.iter (fun s -> ignore (Pool.remove t.pools.(s) ~fid)) stages;
        Hashtbl.remove t.apps fid;
        let moved = refresh_layouts t stages in
        (* A removal never reorders the table, so this fold visits the
           remaining apps in their pre-departure [resident] order. *)
        let expanded =
          if Hashtbl.length moved = 0 then []
          else
            Hashtbl.fold
              (fun f app acc ->
                if Hashtbl.mem moved f then (f, layout_regions app) :: acc else acc)
              t.apps []
        in
        Telemetry.incr t.tel "alloc.reallocated" ~by:(List.length expanded);
        expanded)

let regions_response t ~fid =
  match Hashtbl.find_opt t.apps fid with
  | None -> None
  | Some app ->
    let n = t.params.Rmt.Params.logical_stages in
    let wpb = Rmt.Params.words_per_block t.params in
    let out = Array.make n None in
    List.iter
      (fun p ->
        out.(p.p_stage) <-
          Some
            {
              Activermt.Packet.start_word = p.p_range.Pool.first_block * wpb;
              n_words = p.p_range.Pool.n_blocks * wpb;
            })
      app.app_layout;
    Some out
