open Import

let app_of_kind = function
  | Churn.Cache -> Cache.service
  | Churn.Heavy_hitter -> Heavy_hitter.service
  | Churn.Load_balancer -> Cheetah_lb.service
  | Churn.Flow_counter -> Activermt_apps.Counter.service
  | Churn.Bloom_filter -> Activermt_apps.Bloom.service

let arrival_of ~fid kind ~block_bytes =
  let app = app_of_kind kind in
  (* Demands are authored in the default 1 KB blocks; keep byte demand
     constant when granularity changes. *)
  let scale d = max 1 (((d * 1024) + block_bytes - 1) / block_bytes) in
  {
    Allocator.fid;
    spec = App.spec app;
    elastic = app.App.elastic;
    demand_blocks =
      (if app.App.elastic then Array.copy app.App.demand_blocks
       else Array.map scale app.App.demand_blocks);
  }

type epoch_stats = {
  epoch : int;
  arrivals : int;
  admitted : int;
  failed : int;
  alloc_time_s : float;
  utilization : float;
  residents : int;
  cache_residents : int;
  cache_reallocated : int;
  fairness : float;
}

type run_result = {
  epochs : epoch_stats list;
  final_utilization : float;
  total_failures : int;
}

let run ?scheme ?policy ~params trace =
  let block_bytes = Rmt.Params.bytes_per_block params in
  let alloc = Allocator.create ?scheme ?policy params in
  let kinds : (int, Churn.kind) Hashtbl.t = Hashtbl.create 256 in
  let is_cache fid =
    match Hashtbl.find_opt kinds fid with
    | Some Churn.Cache -> true
    | Some
        ( Churn.Heavy_hitter | Churn.Load_balancer | Churn.Flow_counter
        | Churn.Bloom_filter )
    | None ->
      false
  in
  let total_failures = ref 0 in
  let epoch_stats (e : Churn.epoch) =
    let arrivals = ref 0 and admitted = ref 0 and failed = ref 0 in
    let time = ref 0.0 in
    let reallocated = Hashtbl.create 8 in
    let note_realloc fids =
      List.iter
        (fun fid -> if is_cache fid then Hashtbl.replace reallocated fid ())
        fids
    in
    List.iter
      (fun ev ->
        match ev with
        | Churn.Arrive { fid; kind; _ } -> (
          incr arrivals;
          Hashtbl.replace kinds fid kind;
          match Allocator.admit alloc (arrival_of ~fid kind ~block_bytes) with
          | Allocator.Admitted adm ->
            incr admitted;
            time := !time +. adm.Allocator.compute_time_s;
            note_realloc adm.Allocator.reallocated
          | Allocator.Rejected r ->
            incr failed;
            incr total_failures;
            Hashtbl.remove kinds fid;
            time := !time +. r.Allocator.compute_time_s)
        | Churn.Depart { fid } ->
          let expanded = Allocator.depart alloc ~fid in
          Hashtbl.remove kinds fid;
          note_realloc expanded)
      e.Churn.events;
    let resident_fids = Allocator.resident alloc in
    let cache_fids = List.filter is_cache resident_fids in
    let cache_blocks =
      List.map (fun fid -> float_of_int (Allocator.app_blocks alloc ~fid)) cache_fids
    in
    (* "The expectation that any given instance will be reallocated"
       (Section 6.1): count only instances still resident at epoch end. *)
    let reallocated_resident =
      List.length (List.filter (Hashtbl.mem reallocated) cache_fids)
    in
    {
      epoch = e.Churn.index;
      arrivals = !arrivals;
      admitted = !admitted;
      failed = !failed;
      alloc_time_s = !time;
      utilization = Allocator.utilization alloc;
      residents = List.length resident_fids;
      cache_residents = List.length cache_fids;
      cache_reallocated = reallocated_resident;
      fairness = Stats.jain_fairness cache_blocks;
    }
  in
  let epochs = List.map epoch_stats trace in
  {
    epochs;
    final_utilization = Allocator.utilization alloc;
    total_failures = !total_failures;
  }
