(* Tests for the dynamic memory allocator: per-stage pools with pinned
   inelastic regions and progressively-filled elastic shares, and the
   mutant-searching online allocator with its four schemes. *)

module Pool = Activermt_alloc.Pool
module Allocator = Activermt_alloc.Allocator
module Spec = Activermt_compiler.Spec
module Mutant = Activermt_compiler.Mutant
module App = Activermt_apps.App
module Trace = Activermt_telemetry.Trace

let params = Rmt.Params.default

let cache_arrival fid =
  {
    Allocator.fid;
    spec = App.spec Activermt_apps.Cache.service;
    elastic = true;
    demand_blocks = [| 1; 1; 1 |];
  }

let hh_arrival fid =
  {
    Allocator.fid;
    spec = App.spec Activermt_apps.Heavy_hitter.service;
    elastic = false;
    demand_blocks = Activermt_apps.Heavy_hitter.service.App.demand_blocks;
  }

let lb_arrival fid =
  {
    Allocator.fid;
    spec = App.spec Activermt_apps.Cheetah_lb.service;
    elastic = false;
    demand_blocks = [| 1; 1; 1; 1 |];
  }

let admit_exn alloc arrival =
  match Allocator.admit alloc arrival with
  | Allocator.Admitted a -> a
  | Allocator.Rejected _ -> Alcotest.fail "unexpected rejection"

(* -- Pool ---------------------------------------------------------------- *)

let test_pool_inelastic_pinned_at_bottom () =
  let p = Pool.create ~total_blocks:16 in
  (match Pool.add_inelastic p ~fid:1 ~blocks:4 with
  | Ok r -> Alcotest.(check int) "starts at 0" 0 r.Pool.first_block
  | Error `No_space -> Alcotest.fail "fits");
  match Pool.add_inelastic p ~fid:2 ~blocks:4 with
  | Ok r -> Alcotest.(check int) "stacked above" 4 r.Pool.first_block
  | Error `No_space -> Alcotest.fail "fits"

let test_pool_hole_reuse () =
  let p = Pool.create ~total_blocks:16 in
  ignore (Pool.add_inelastic p ~fid:1 ~blocks:4);
  ignore (Pool.add_inelastic p ~fid:2 ~blocks:4);
  ignore (Pool.add_inelastic p ~fid:3 ~blocks:4);
  Alcotest.(check bool) "remove middle" true (Pool.remove p ~fid:2);
  Alcotest.(check int) "high water unchanged" 12 (Pool.high_water p);
  (* A smaller app reuses the hole (first fit). *)
  match Pool.add_inelastic p ~fid:4 ~blocks:3 with
  | Ok r -> Alcotest.(check int) "hole reused" 4 r.Pool.first_block
  | Error `No_space -> Alcotest.fail "fits"

let test_pool_fragmentation_blocks_big () =
  let p = Pool.create ~total_blocks:12 in
  ignore (Pool.add_inelastic p ~fid:1 ~blocks:4);
  ignore (Pool.add_inelastic p ~fid:2 ~blocks:4);
  ignore (Pool.add_inelastic p ~fid:3 ~blocks:4);
  ignore (Pool.remove p ~fid:2);
  (* 4 free in the hole, 0 above: a 5-block app cannot fit (the paper
     accepts this fragmentation for pinned apps). *)
  Alcotest.(check bool) "5 blocks do not fit" false (Pool.can_fit_inelastic p ~blocks:5);
  Alcotest.(check bool) "4 blocks fit" true (Pool.can_fit_inelastic p ~blocks:4)

let test_pool_elastic_fills_everything () =
  let p = Pool.create ~total_blocks:64 in
  ignore (Pool.add_inelastic p ~fid:1 ~blocks:14);
  (match Pool.add_elastic p ~fid:2 ~min_blocks:1 with
  | Ok () -> ()
  | Error `No_space -> Alcotest.fail "fits");
  (match Pool.refill_elastic p with
  | [ (2, r) ] ->
    Alcotest.(check int) "starts above pinned zone" 14 r.Pool.first_block;
    Alcotest.(check int) "consumes all free blocks" 50 r.Pool.n_blocks
  | _ -> Alcotest.fail "one elastic resident");
  Alcotest.(check int) "pool full" 64 (Pool.used_blocks p)

let test_pool_elastic_equal_split () =
  let p = Pool.create ~total_blocks:30 in
  ignore (Pool.add_elastic p ~fid:1 ~min_blocks:1);
  ignore (Pool.add_elastic p ~fid:2 ~min_blocks:1);
  ignore (Pool.add_elastic p ~fid:3 ~min_blocks:1);
  let layout = Pool.refill_elastic p in
  List.iter
    (fun (_, r) -> Alcotest.(check int) "equal share" 10 r.Pool.n_blocks)
    layout

let test_pool_elastic_remainder () =
  let p = Pool.create ~total_blocks:32 in
  ignore (Pool.add_elastic p ~fid:1 ~min_blocks:1);
  ignore (Pool.add_elastic p ~fid:2 ~min_blocks:1);
  ignore (Pool.add_elastic p ~fid:3 ~min_blocks:1);
  let layout = Pool.refill_elastic p in
  let sizes = List.map (fun (_, r) -> r.Pool.n_blocks) layout in
  Alcotest.(check int) "all blocks used" 32 (List.fold_left ( + ) 0 sizes);
  Alcotest.(check bool) "max-min spread <= 1" true
    (List.fold_left max 0 sizes - List.fold_left min 32 sizes <= 1)

let test_pool_progressive_fill_respects_minimums () =
  (* One app insists on 20 blocks; the rest split what remains. *)
  let p = Pool.create ~total_blocks:32 in
  ignore (Pool.add_elastic p ~fid:1 ~min_blocks:20);
  ignore (Pool.add_elastic p ~fid:2 ~min_blocks:1);
  ignore (Pool.add_elastic p ~fid:3 ~min_blocks:1);
  let layout = Pool.refill_elastic p in
  let size fid = (List.assoc fid layout).Pool.n_blocks in
  Alcotest.(check int) "minimum honoured" 20 (size 1);
  Alcotest.(check int) "fair remainder" 6 (size 2);
  Alcotest.(check int) "fair remainder" 6 (size 3)

let test_pool_fungible () =
  let p = Pool.create ~total_blocks:32 in
  ignore (Pool.add_inelastic p ~fid:1 ~blocks:10);
  ignore (Pool.add_elastic p ~fid:2 ~min_blocks:2);
  Alcotest.(check int) "total - pinned - mins" 20 (Pool.fungible_blocks p)

let test_pool_map_no_overlap () =
  let p = Pool.create ~total_blocks:32 in
  ignore (Pool.add_inelastic p ~fid:1 ~blocks:5);
  ignore (Pool.add_elastic p ~fid:2 ~min_blocks:1);
  ignore (Pool.add_elastic p ~fid:3 ~min_blocks:1);
  ignore (Pool.refill_elastic p);
  let m = Pool.map p in
  let owned = Array.to_list m |> List.filter (fun f -> f >= 0) in
  Alcotest.(check int) "used = owned blocks" (Pool.used_blocks p) (List.length owned)

let test_pool_unfill_roundtrip () =
  let p = Pool.create ~total_blocks:32 in
  ignore (Pool.add_inelastic p ~fid:1 ~blocks:8);
  ignore (Pool.add_elastic p ~fid:2 ~min_blocks:2);
  ignore (Pool.add_elastic p ~fid:3 ~min_blocks:2);
  let layout1 = Pool.refill_elastic p in
  Alcotest.(check int) "filled" 32 (Pool.used_blocks p);
  Pool.unfill_elastic p;
  (* Shares are withdrawn, but no decision input changes: residency,
     minimums and feasibility all read counters, not ranges. *)
  Alcotest.(check int) "only pinned blocks held" 8 (Pool.used_blocks p);
  Alcotest.(check int) "mins still reserved" 20 (Pool.fungible_blocks p);
  Alcotest.(check int) "residents unchanged" 2 (Pool.n_elastic p);
  Alcotest.(check bool) "elastic feasibility unchanged" true
    (Pool.can_fit_elastic p ~min_blocks:20);
  Array.iter
    (fun f -> Alcotest.(check bool) "no elastic blocks mapped" true (f <> 2 && f <> 3))
    (Pool.map p);
  let layout2 = Pool.refill_elastic p in
  Alcotest.(check int) "refilled" 32 (Pool.used_blocks p);
  List.iter2
    (fun (f1, r1) (f2, r2) ->
      Alcotest.(check int) "same fid order" f1 f2;
      Alcotest.(check int) "same share" r1.Pool.n_blocks r2.Pool.n_blocks)
    layout1 layout2

let test_pool_unfill_idempotent () =
  let p = Pool.create ~total_blocks:16 in
  ignore (Pool.add_elastic p ~fid:1 ~min_blocks:1);
  ignore (Pool.refill_elastic p);
  Pool.unfill_elastic p;
  Pool.unfill_elastic p;
  (* Double withdrawal must not go negative or double-subtract. *)
  Alcotest.(check int) "used stays zero" 0 (Pool.used_blocks p);
  (match Pool.refill_elastic p with
  | [ (1, r) ] -> Alcotest.(check int) "full share back" 16 r.Pool.n_blocks
  | _ -> Alcotest.fail "one elastic resident");
  (* Unfill on a pool with no elastic residents is a no-op. *)
  let q = Pool.create ~total_blocks:8 in
  ignore (Pool.add_inelastic q ~fid:1 ~blocks:3);
  Pool.unfill_elastic q;
  Alcotest.(check int) "pinned untouched" 3 (Pool.used_blocks q);
  Alcotest.(check (list (pair int (of_pp (fun _ _ -> ()))))) "empty refill" []
    (Pool.refill_elastic q)

let test_pool_unfill_then_pin_into_zone () =
  (* The batched-admission sequence unfill_elastic exists for: a pin that
     raises the high-water mark into blocks a stale elastic range covers
     must not read as an overlap. *)
  let p = Pool.create ~total_blocks:32 in
  ignore (Pool.add_elastic p ~fid:1 ~min_blocks:1);
  ignore (Pool.refill_elastic p);
  Pool.unfill_elastic p;
  (match Pool.add_inelastic p ~fid:2 ~blocks:10 with
  | Ok r -> Alcotest.(check int) "pins at bottom" 0 r.Pool.first_block
  | Error `No_space -> Alcotest.fail "fits");
  (match Pool.refill_elastic p with
  | [ (1, r) ] ->
    Alcotest.(check int) "repacked above new mark" 10 r.Pool.first_block;
    Alcotest.(check int) "rest of the pool" 22 r.Pool.n_blocks
  | _ -> Alcotest.fail "one elastic resident");
  (* map raises if any two residents overlap — the invariant at stake. *)
  let owned = Array.to_list (Pool.map p) |> List.filter (fun f -> f >= 0) in
  Alcotest.(check int) "fully mapped" 32 (List.length owned)

let prop_pool_progressive_fill =
  QCheck.Test.make ~name:"progressive filling: budget exhausted, mins kept"
    ~count:200
    QCheck.(pair (int_range 10 200) (list_of_size Gen.(int_range 1 8) (int_range 1 10)))
    (fun (total, mins) ->
      QCheck.assume (total > 0 && List.for_all (fun m -> m > 0) mins);
      QCheck.assume (List.fold_left ( + ) 0 mins <= total);
      let p = Pool.create ~total_blocks:total in
      List.iteri
        (fun i m ->
          match Pool.add_elastic p ~fid:i ~min_blocks:m with
          | Ok () -> ()
          | Error `No_space -> QCheck.assume_fail ())
        mins;
      let layout = Pool.refill_elastic p in
      let sizes = List.map (fun (_, r) -> r.Pool.n_blocks) layout in
      List.fold_left ( + ) 0 sizes = total
      && List.for_all2 (fun s m -> s >= m) sizes mins)

(* The list-building water-fill [Pool] used before its fill moved to
   arrays, kept verbatim as the oracle: shares become region offsets, so
   the array version must agree bit for bit. *)
let progressive_fill_oracle mins budget =
  let k = Array.length mins in
  if k = 0 then [||]
  else begin
    let shares = Array.map float_of_int mins in
    let fixed = Array.make k false in
    let rec fill () =
      let flexible = ref [] in
      Array.iteri (fun i f -> if not f then flexible := i :: !flexible) fixed;
      match !flexible with
      | [] -> ()
      | flex ->
        let reserved =
          Array.to_list shares
          |> List.mapi (fun i s -> if fixed.(i) then s else 0.0)
          |> List.fold_left ( +. ) 0.0
        in
        let level = (float_of_int budget -. reserved) /. float_of_int (List.length flex) in
        let violators = List.filter (fun i -> float_of_int mins.(i) > level) flex in
        if violators = [] then List.iter (fun i -> shares.(i) <- level) flex
        else begin
          List.iter
            (fun i ->
              shares.(i) <- float_of_int mins.(i);
              fixed.(i) <- true)
            violators;
          fill ()
        end
    in
    fill ();
    let out = Array.map (fun s -> int_of_float (floor s)) shares in
    let spent = Array.fold_left ( + ) 0 out in
    let leftover = ref (budget - spent) in
    let give eligible =
      let i = ref 0 in
      while !leftover > 0 && !i < k do
        if eligible !i then begin
          out.(!i) <- out.(!i) + 1;
          decr leftover
        end;
        incr i
      done
    in
    give (fun i -> not fixed.(i));
    give (fun _ -> true);
    out
  end

(* Through the pool: random pins, elastic arrivals and departures, then a
   refill; the shares, in arrival order, must be the oracle's over the
   blocks above the high-water mark. *)
let prop_pool_fill_matches_oracle =
  QCheck.Test.make ~name:"refill shares = list water-fill oracle" ~count:300
    QCheck.(
      pair (int_range 8 300)
        (make Gen.(list_size (int_range 1 30) (pair (int_range 0 3) (int_range 1 12)))))
    (fun (total, ops) ->
      let p = Pool.create ~total_blocks:total in
      let next = ref 0 in
      let live = ref [] in
      let elastic = ref [] in
      List.for_all
        (fun (op, blocks) ->
          (match op with
          | 0 ->
            incr next;
            (match Pool.add_inelastic p ~fid:!next ~blocks with
            | Ok _ -> live := !next :: !live
            | Error `No_space -> ())
          | 1 | 2 ->
            incr next;
            (match Pool.add_elastic p ~fid:!next ~min_blocks:blocks with
            | Ok () ->
              live := !next :: !live;
              elastic := !elastic @ [ (!next, blocks) ]
            | Error `No_space -> ())
          | _ -> (
            match !live with
            | [] -> ()
            | l ->
              let fid = List.nth l (blocks mod List.length l) in
              live := List.filter (( <> ) fid) l;
              elastic := List.filter (fun (f, _) -> f <> fid) !elastic;
              ignore (Pool.remove p ~fid)));
          let layout = Pool.refill_elastic p in
          let mins = Array.of_list (List.map snd !elastic) in
          List.map fst layout = List.map fst !elastic
          && List.map (fun (_, r) -> r.Pool.n_blocks) layout
             = Array.to_list (progressive_fill_oracle mins (total - Pool.high_water p)))
        ops)

let prop_pool_max_min_characterization =
  (* Max-min with minimums: every share equals max(min_i, water) for a
     single water level, up to the one-block integer remainder. *)
  QCheck.Test.make ~name:"progressive filling is max-min fair" ~count:200
    QCheck.(pair (int_range 20 300) (list_of_size Gen.(int_range 2 8) (int_range 1 12)))
    (fun (total, mins) ->
      QCheck.assume (total > 0 && List.for_all (fun m -> m > 0) mins);
      QCheck.assume (List.fold_left ( + ) 0 mins <= total);
      let p = Pool.create ~total_blocks:total in
      List.iteri
        (fun i m ->
          match Pool.add_elastic p ~fid:i ~min_blocks:m with
          | Ok () -> ()
          | Error `No_space -> QCheck.assume_fail ())
        mins;
      let layout = Pool.refill_elastic p in
      let shares = List.map (fun (_, r) -> r.Pool.n_blocks) layout in
      (* Water level = the largest share among apps not pinned at their
         minimum; all flexible apps sit within one block of it. *)
      let flexible =
        List.filter (fun (s, m) -> s > m) (List.combine shares mins)
      in
      match flexible with
      | [] -> true
      | (s0, _) :: _ ->
        List.for_all (fun (s, _) -> abs (s - s0) <= 1) flexible)

(* The pool's O(1) occupancy counters must always agree with folds over
   the slot lists (the seed's implementation), under any interleaving of
   adds, removes and refills. *)
let counters_match_slot_folds p =
  let slots = Pool.slots p in
  let inelastic = List.filter (fun s -> not s.Pool.elastic) slots in
  let elastic = List.filter (fun s -> s.Pool.elastic) slots in
  let used = List.fold_left (fun acc s -> acc + s.Pool.range.Pool.n_blocks) 0 slots in
  let hw =
    List.fold_left (fun acc s -> max acc (Pool.range_end s.Pool.range)) 0 inelastic
  in
  let emin = List.fold_left (fun acc s -> acc + s.Pool.min_blocks) 0 elastic in
  Pool.used_blocks p = used
  && Pool.high_water p = hw
  && Pool.n_slots p = List.length slots
  && Pool.n_elastic p = List.length elastic
  && Pool.elastic_min_total p = emin
  && Pool.fungible_blocks p = Pool.total_blocks p - hw - emin

let prop_pool_counters =
  QCheck.Test.make ~name:"O(1) counters = list folds under random ops" ~count:200
    QCheck.(make Gen.(list_size (int_range 1 40) (pair (int_range 0 3) (int_range 1 8))))
    (fun ops ->
      let p = Pool.create ~total_blocks:64 in
      let next = ref 0 in
      let live = ref [] in
      List.for_all
        (fun (op, blocks) ->
          (* Mutations that move the high-water mark are followed by a
             refill, as the allocator always does: elastic ranges are
             only meaningful after [refill_elastic] re-packs them. *)
          (match op with
          | 0 ->
            incr next;
            (match Pool.add_inelastic p ~fid:!next ~blocks with
            | Ok _ ->
              live := !next :: !live;
              ignore (Pool.refill_elastic p)
            | Error `No_space -> ())
          | 1 ->
            incr next;
            (match Pool.add_elastic p ~fid:!next ~min_blocks:blocks with
            | Ok () ->
              live := !next :: !live;
              ignore (Pool.refill_elastic p)
            | Error `No_space -> ())
          | 2 -> (
            match !live with
            | [] -> ()
            | fid :: rest ->
              live := rest;
              ignore (Pool.remove p ~fid);
              ignore (Pool.refill_elastic p))
          | _ -> ignore (Pool.refill_elastic p));
          counters_match_slot_folds p)
        ops)

let test_pool_max_hole () =
  let p = Pool.create ~total_blocks:16 in
  Alcotest.(check int) "empty pool: no pinned zone, no hole" 0 (Pool.max_hole p);
  ignore (Pool.add_inelastic p ~fid:1 ~blocks:4);
  ignore (Pool.add_inelastic p ~fid:2 ~blocks:3);
  ignore (Pool.add_inelastic p ~fid:3 ~blocks:4);
  Alcotest.(check int) "packed pinned zone" 0 (Pool.max_hole p);
  ignore (Pool.remove p ~fid:2);
  Alcotest.(check int) "middle departure leaves a 3-hole" 3 (Pool.max_hole p)

(* -- Allocator: admission ------------------------------------------------ *)

let test_admit_cache_regions () =
  let alloc = Allocator.create params in
  let adm = admit_exn alloc (cache_arrival 1) in
  Alcotest.(check int) "three regions" 3 (List.length adm.Allocator.regions);
  Alcotest.(check (list int)) "compact stages" [ 1; 4; 8 ]
    (List.map (fun r -> r.Allocator.stage) adm.Allocator.regions);
  List.iter
    (fun r ->
      Alcotest.(check int) "whole stage (elastic, alone)" 256 r.Allocator.range.Pool.n_blocks)
    adm.Allocator.regions

let test_admit_duplicate_fid () =
  let alloc = Allocator.create params in
  ignore (admit_exn alloc (cache_arrival 1));
  Alcotest.(check bool) "raises" true
    (try
       ignore (Allocator.admit alloc (cache_arrival 1));
       false
     with Invalid_argument _ -> true)

let test_worst_fit_spreads () =
  let alloc = Allocator.create ~scheme:Allocator.Worst_fit params in
  let a1 = admit_exn alloc (cache_arrival 1) in
  let a2 = admit_exn alloc (cache_arrival 2) in
  let stages a = List.map (fun r -> r.Allocator.stage) a.Allocator.regions in
  let inter = List.filter (fun s -> List.mem s (stages a1)) (stages a2) in
  Alcotest.(check (list int)) "disjoint stages" [] inter;
  Alcotest.(check int) "no reallocation needed" 0 (List.length a2.Allocator.reallocated)

let test_best_fit_packs () =
  let alloc = Allocator.create ~scheme:Allocator.Best_fit params in
  let a1 = admit_exn alloc (cache_arrival 1) in
  let a2 = admit_exn alloc (cache_arrival 2) in
  let stages a = List.map (fun r -> r.Allocator.stage) a.Allocator.regions in
  Alcotest.(check (list int)) "same stages (packs occupied)" (stages a1) (stages a2)

let test_first_fit_takes_identity () =
  let alloc = Allocator.create ~scheme:Allocator.First_fit params in
  let a1 = admit_exn alloc (cache_arrival 1) in
  Alcotest.(check (list int)) "identity placement" [ 1; 4; 8 ]
    (List.map (fun r -> r.Allocator.stage) a1.Allocator.regions);
  let a2 = admit_exn alloc (cache_arrival 2) in
  Alcotest.(check (list int)) "identity again (shared)" [ 1; 4; 8 ]
    (List.map (fun r -> r.Allocator.stage) a2.Allocator.regions)

let test_min_realloc_avoids_elastic () =
  let alloc = Allocator.create ~scheme:Allocator.Min_realloc params in
  ignore (admit_exn alloc (cache_arrival 1));
  let a2 = admit_exn alloc (cache_arrival 2) in
  Alcotest.(check int) "no reallocations" 0 (List.length a2.Allocator.reallocated)

let test_elastic_sharing_splits_equally () =
  let alloc = Allocator.create ~scheme:Allocator.Best_fit params in
  ignore (admit_exn alloc (cache_arrival 1));
  let a2 = admit_exn alloc (cache_arrival 2) in
  Alcotest.(check int) "first app reallocated" 1 (List.length a2.Allocator.reallocated);
  Alcotest.(check int) "equal blocks" (Allocator.app_blocks alloc ~fid:1)
    (Allocator.app_blocks alloc ~fid:2);
  Alcotest.(check int) "split of 3 stages" 384 (Allocator.app_blocks alloc ~fid:1)

let test_inelastic_unperturbed () =
  (* Arriving caches never move pinned apps. *)
  let alloc = Allocator.create params in
  ignore (admit_exn alloc (lb_arrival 1));
  let before = Option.get (Allocator.regions_of alloc ~fid:1) in
  for fid = 2 to 10 do
    ignore (admit_exn alloc (cache_arrival fid))
  done;
  let after = Option.get (Allocator.regions_of alloc ~fid:1) in
  Alcotest.(check bool) "pinned placement unchanged" true (before = after)

let test_rejection_when_full () =
  let alloc = Allocator.create params in
  let admitted = ref 0 in
  (try
     for fid = 1 to 64 do
       match Allocator.admit alloc (hh_arrival fid) with
       | Allocator.Admitted _ -> incr admitted
       | Allocator.Rejected _ -> raise Exit
     done
   with Exit -> ());
  Alcotest.(check int) "16 heavy hitters fit (256/16 per stage)" 16 !admitted

let test_departure_expands_elastic () =
  let alloc = Allocator.create ~scheme:Allocator.Best_fit params in
  ignore (admit_exn alloc (cache_arrival 1));
  ignore (admit_exn alloc (cache_arrival 2));
  let before = Allocator.app_blocks alloc ~fid:2 in
  let expanded = Allocator.depart alloc ~fid:1 in
  Alcotest.(check (list int)) "app 2 expanded" [ 2 ] (List.map fst expanded);
  Alcotest.(check bool) "strictly larger" true
    (Allocator.app_blocks alloc ~fid:2 > before);
  Alcotest.(check int) "full stages again" 768 (Allocator.app_blocks alloc ~fid:2)

let test_depart_unknown_fid () =
  let alloc = Allocator.create params in
  Alcotest.(check (list int)) "no-op" []
    (List.map fst (Allocator.depart alloc ~fid:99))

let test_utilization_monotone_pure_cache () =
  let alloc = Allocator.create params in
  let last = ref 0.0 in
  for fid = 1 to 20 do
    ignore (admit_exn alloc (cache_arrival fid));
    let u = Allocator.utilization alloc in
    Alcotest.(check bool) "non-decreasing" true (u >= !last -. 1e-9);
    last := u
  done;
  Alcotest.(check bool) "bounded" true (!last <= 1.0)

let test_regions_response_words () =
  let alloc = Allocator.create params in
  ignore (admit_exn alloc (cache_arrival 1));
  match Allocator.regions_response alloc ~fid:1 with
  | None -> Alcotest.fail "resident"
  | Some regions ->
    (match regions.(1) with
    | Some { Activermt.Packet.start_word; n_words } ->
      Alcotest.(check int) "word offset" 0 start_word;
      Alcotest.(check int) "whole stage in words" 65536 n_words
    | None -> Alcotest.fail "stage 1 allocated");
    Alcotest.(check bool) "unallocated stage empty" true (regions.(0) = None)

let test_rejected_considered_mutants () =
  let alloc = Allocator.create params in
  for fid = 1 to 16 do
    ignore (admit_exn alloc (hh_arrival fid))
  done;
  match Allocator.admit alloc (hh_arrival 17) with
  | Allocator.Rejected r ->
    Alcotest.(check int) "considered the single mc mutant" 1
      r.Allocator.considered_mutants
  | Allocator.Admitted _ -> Alcotest.fail "should be full"

(* The multicore scoring fan-out must not change a single decision:
   replay random arrival/departure sequences against a sequential and a
   3-domain allocator and require bit-identical outcomes (mutant, regions,
   reallocations, counts) — compute_time_s excepted.  LB arrivals carry
   1800+ mutants, enough to cross the pool's spawn threshold. *)
let same_outcome o1 o2 =
  match (o1, o2) with
  | Allocator.Admitted a, Allocator.Admitted b ->
    a.Allocator.fid = b.Allocator.fid
    && a.Allocator.mutant.Mutant.shifts = b.Allocator.mutant.Mutant.shifts
    && a.Allocator.mutant.Mutant.stages = b.Allocator.mutant.Mutant.stages
    && a.Allocator.regions = b.Allocator.regions
    && a.Allocator.reallocated = b.Allocator.reallocated
    && a.Allocator.considered_mutants = b.Allocator.considered_mutants
    && a.Allocator.feasible_mutants = b.Allocator.feasible_mutants
  | Allocator.Rejected r1, Allocator.Rejected r2 ->
    r1.Allocator.considered_mutants = r2.Allocator.considered_mutants
  | Allocator.Admitted _, Allocator.Rejected _
  | Allocator.Rejected _, Allocator.Admitted _ ->
    false

let schemes =
  [ Allocator.Worst_fit; Allocator.Best_fit; Allocator.First_fit; Allocator.Min_realloc ]

let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"parallel admit = sequential admit, all schemes" ~count:12
    QCheck.(
      pair (int_range 0 3) (make Gen.(list_size (int_range 5 40) (int_range 0 3))))
    (fun (scheme_i, ops) ->
      let scheme = List.nth schemes scheme_i in
      let seq = Allocator.create ~scheme ~domains:1 params in
      let par = Allocator.create ~scheme ~domains:3 params in
      let next = ref 0 in
      let live = ref [] in
      List.for_all
        (fun op ->
          if op = 3 && !live <> [] then begin
            let fid = List.hd !live in
            live := List.tl !live;
            Allocator.depart seq ~fid = Allocator.depart par ~fid
          end
          else begin
            incr next;
            let arrival =
              match op with
              | 0 -> cache_arrival !next
              | 1 -> lb_arrival !next
              | _ -> hh_arrival !next
            in
            let o_seq = Allocator.admit seq arrival in
            let o_par = Allocator.admit par arrival in
            (match o_seq with
            | Allocator.Admitted _ -> live := !live @ [ !next ]
            | Allocator.Rejected _ -> ());
            same_outcome o_seq o_par
          end)
        ops
      |> fun ok ->
      (* Workers are persistent now; reap them so repeated trials do not
         accumulate parked domains against the runtime limit. *)
      Allocator.shutdown par;
      Allocator.shutdown seq;
      ok)

let test_depart_only_touches_demand_stages () =
  (* A pinned app's departure must leave other stages' pools untouched
     and free exactly its own blocks. *)
  let alloc = Allocator.create params in
  ignore (admit_exn alloc (lb_arrival 1));
  ignore (admit_exn alloc (hh_arrival 2));
  let used_before = Allocator.stage_used_blocks alloc in
  let lb_regions = Option.get (Allocator.regions_of alloc ~fid:1) in
  ignore (Allocator.depart alloc ~fid:1);
  let used_after = Allocator.stage_used_blocks alloc in
  Array.iteri
    (fun s after ->
      let freed =
        List.fold_left
          (fun acc r ->
            if r.Allocator.stage = s then acc + r.Allocator.range.Pool.n_blocks
            else acc)
          0 lb_regions
      in
      Alcotest.(check int)
        (Printf.sprintf "stage %d frees exactly the departing app's blocks" s)
        (used_before.(s) - freed)
        after)
    used_after;
  Alcotest.(check bool) "hh still resident" true (Allocator.is_resident alloc ~fid:2)

(* -- Allocator: batched epoch admission ---------------------------------- *)

(* The contract admit_batch promises in its mli: a singleton batch makes
   bit-identical decisions, placements and reallocation reports to the
   sequential path (compute_time_s excepted).  Replayed over random
   arrival/departure interleavings and all four schemes, against a twin
   allocator driven through [admit]. *)
let prop_batch_singleton_matches_admit =
  QCheck.Test.make ~name:"admit_batch [a] = admit a, all schemes" ~count:12
    QCheck.(
      pair (int_range 0 3) (make Gen.(list_size (int_range 5 40) (int_range 0 3))))
    (fun (scheme_i, ops) ->
      let scheme = List.nth schemes scheme_i in
      let seq = Allocator.create ~scheme params in
      let bat = Allocator.create ~scheme params in
      let next = ref 0 in
      let live = ref [] in
      List.for_all
        (fun op ->
          if op = 3 && !live <> [] then begin
            let fid = List.hd !live in
            live := List.tl !live;
            Allocator.depart seq ~fid = Allocator.depart bat ~fid
          end
          else begin
            incr next;
            let arrival =
              match op with
              | 0 -> cache_arrival !next
              | 1 -> lb_arrival !next
              | _ -> hh_arrival !next
            in
            let o_seq = Allocator.admit seq arrival in
            let b = Allocator.admit_batch bat [ arrival ] in
            (match o_seq with
            | Allocator.Admitted _ -> live := !live @ [ !next ]
            | Allocator.Rejected _ -> ());
            match b.Allocator.outcomes with
            | [ o_bat ] ->
              same_outcome o_seq o_bat
              && (match o_seq with
                 | Allocator.Admitted a ->
                   List.sort compare b.Allocator.batch_reallocated
                   = List.sort compare a.Allocator.reallocated
                 | Allocator.Rejected _ -> b.Allocator.batch_reallocated = [])
            | _ -> false
          end)
        ops)

(* Soundness of an epoch's committed subset: whatever admit_batch admits
   must coexist without overlap — every resident's per-stage ranges are
   pairwise disjoint after the commit, outcomes stay 1:1 with arrivals,
   and every admitted FID is actually resident. *)
let test_batch_commits_conflict_free () =
  let alloc = Allocator.create params in
  let arrivals =
    List.init 48 (fun i ->
        let fid = i + 1 in
        match i mod 3 with
        | 0 -> hh_arrival fid
        | 1 -> lb_arrival fid
        | _ -> cache_arrival fid)
  in
  let b = Allocator.admit_batch alloc arrivals in
  Alcotest.(check int) "outcomes 1:1 with arrivals" 48
    (List.length b.Allocator.outcomes);
  let stats = b.Allocator.stats in
  Alcotest.(check int) "admitted + rejected = batch" 48
    (stats.Allocator.batch_admitted + stats.Allocator.batch_rejected);
  Alcotest.(check bool) "contention forces rejections" true
    (stats.Allocator.batch_rejected > 0);
  List.iteri
    (fun i o ->
      match o with
      | Allocator.Admitted a ->
        Alcotest.(check int) "outcome order preserved" (i + 1) a.Allocator.fid;
        Alcotest.(check bool) "admitted fid resident" true
          (Allocator.is_resident alloc ~fid:a.Allocator.fid)
      | Allocator.Rejected _ -> ())
    b.Allocator.outcomes;
  (* Pairwise disjointness, stage by stage, over every resident. *)
  let n_stages = Array.length (Allocator.stage_used_blocks alloc) in
  let by_stage = Array.make n_stages [] in
  List.iter
    (fun fid ->
      let regions = Option.get (Allocator.regions_of alloc ~fid) in
      List.iter
        (fun r -> by_stage.(r.Allocator.stage) <- r.Allocator.range :: by_stage.(r.Allocator.stage))
        regions)
    (Allocator.resident alloc);
  Array.iteri
    (fun s ranges ->
      let sorted =
        List.sort (fun a b -> compare a.Pool.first_block b.Pool.first_block) ranges
      in
      let rec disjoint = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check bool)
            (Printf.sprintf "stage %d ranges disjoint" s)
            true
            (a.Pool.first_block + a.Pool.n_blocks <= b.Pool.first_block);
          disjoint rest
        | _ -> ()
      in
      disjoint sorted)
    by_stage

let test_batch_memoizes_repeated_shapes () =
  (* Eight arrivals of the same program shape/elasticity/demand share one
     epoch: the memo must answer most of them without re-scoring. *)
  let alloc = Allocator.create params in
  let b = Allocator.admit_batch alloc (List.init 8 (fun i -> cache_arrival (i + 1))) in
  Alcotest.(check int) "all admitted" 8 b.Allocator.stats.Allocator.batch_admitted;
  Alcotest.(check bool) "memo answered repeats" true
    (b.Allocator.stats.Allocator.memo_hits > 0)

let test_batch_duplicate_fid_raises () =
  let alloc = Allocator.create params in
  Alcotest.(check bool) "raises before any commit" true
    (try
       ignore (Allocator.admit_batch alloc [ cache_arrival 1; cache_arrival 1 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (list int)) "nothing committed" [] (Allocator.resident alloc)

let test_batch_fill_coalescing_trace_attrs () =
  (* The epoch's alloc.fill instant carries the coalescing attributes;
     they must agree with the returned batch_stats, and stacking six
     three-stage elastic apps in one epoch must actually save refills
     versus the per-(arrival, stage) sequential count. *)
  let tracer = Trace.create () in
  let alloc = Allocator.create ~tracer params in
  let trace = Option.get (Trace.start_trace tracer "test.batch") in
  let b = Allocator.admit_batch ~trace alloc (List.init 6 (fun i -> cache_arrival (i + 1))) in
  let stats = b.Allocator.stats in
  Alcotest.(check bool) "coalescing saved refills" true
    (stats.Allocator.refills_saved > 0);
  let fill =
    List.find
      (fun e -> e.Trace.name = "alloc.fill" && List.mem_assoc "batch" e.Trace.attrs)
      (Trace.events tracer)
  in
  let attr k = List.assoc k fill.Trace.attrs in
  Alcotest.(check string) "batch attr" "6" (attr "batch");
  Alcotest.(check string) "admitted attr"
    (string_of_int stats.Allocator.batch_admitted)
    (attr "admitted");
  Alcotest.(check string) "stage_refills attr"
    (string_of_int stats.Allocator.stage_refills)
    (attr "stage_refills");
  Alcotest.(check string) "refills_saved attr"
    (string_of_int stats.Allocator.refills_saved)
    (attr "refills_saved");
  Alcotest.(check string) "rescored attr"
    (string_of_int stats.Allocator.rescored)
    (attr "rescored");
  Alcotest.(check string) "reallocated attr"
    (string_of_int (List.length b.Allocator.batch_reallocated))
    (attr "reallocated")

let test_batch_mixed_decision_identity () =
  (* allocsim --mixed 120 --seed 3001: the same seeded arrival stream
     admitted one at a time and in epochs of 64 must admit and reject the
     same FIDs.  Placements may differ: the batched path scores against an
     epoch-shared snapshot and coalesces elastic refills. *)
  let module Churn = Workload.Churn in
  let block_bytes = Rmt.Params.bytes_per_block params in
  let arrivals =
    Churn.mixed_arrivals ~n:120 (Stdx.Prng.create ~seed:3001)
    |> List.concat_map (fun (e : Churn.epoch) ->
           List.filter_map
             (function
               | Churn.Arrive { kind; _ } -> Some kind | Churn.Depart _ -> None)
             e.Churn.events)
    |> List.mapi (fun i kind ->
           Experiments.Harness.arrival_of ~fid:(i + 1) kind ~block_bytes)
  in
  let split outcomes =
    List.partition_map
      (fun ((a : Allocator.arrival), o) ->
        match o with
        | Allocator.Admitted _ -> Left a.Allocator.fid
        | Allocator.Rejected _ -> Right a.Allocator.fid)
      (List.combine arrivals outcomes)
  in
  let seq_admitted, seq_rejected =
    let alloc = Allocator.create params in
    split (List.map (Allocator.admit alloc) arrivals)
  in
  let rec epochs = function
    | [] -> []
    | l ->
      List.filteri (fun i _ -> i < 64) l
      :: epochs (List.filteri (fun i _ -> i >= 64) l)
  in
  let chunks = epochs arrivals in
  let batch_admitted, batch_rejected =
    let alloc = Allocator.create params in
    split
      (List.concat_map
         (fun chunk -> (Allocator.admit_batch alloc chunk).Allocator.outcomes)
         chunks)
  in
  Alcotest.(check bool) "some admitted" true (seq_admitted <> []);
  Alcotest.(check bool) "some rejected" true (seq_rejected <> []);
  Alcotest.(check bool) "some epoch wider than 1" true
    (List.exists (fun c -> List.length c > 1) chunks);
  Alcotest.(check (list int)) "same admitted FIDs" seq_admitted batch_admitted;
  Alcotest.(check (list int)) "same rejected FIDs" seq_rejected batch_rejected

(* Every reallocation report — [admit]'s [reallocated], [admit_batch]'s
   [batch_reallocated], [depart]'s expanded list — names exactly the
   pre-existing residents whose [regions_of] changed, each with its new
   regions, in their pre-operation [resident] order.  Small pools keep
   reallocations frequent. *)
let prop_reallocation_reports =
  let small = { params with Rmt.Params.blocks_per_stage = 16 } in
  let small_hh fid =
    { (hh_arrival fid) with Allocator.demand_blocks = [| 3; 2; 2; 2; 2; 3 |] }
  in
  QCheck.Test.make ~name:"reallocation reports = changed residents, resident order"
    ~count:40
    QCheck.(
      make Gen.(list_size (int_range 5 40) (pair (int_range 0 5) (int_range 0 1000))))
    (fun ops ->
      let alloc = Allocator.create small in
      let next = ref 0 in
      let arrival pick =
        incr next;
        match pick mod 3 with
        | 0 -> cache_arrival !next
        | 1 -> lb_arrival !next
        | _ -> small_hh !next
      in
      let changed before =
        List.filter_map
          (fun (fid, old) ->
            match Allocator.regions_of alloc ~fid with
            | Some now when now <> old -> Some (fid, now)
            | Some _ | None -> None)
          before
      in
      let ok =
        List.for_all
          (fun (op, pick) ->
            let before =
              List.map
                (fun fid -> (fid, Option.get (Allocator.regions_of alloc ~fid)))
                (Allocator.resident alloc)
            in
            match op with
            | 0 | 1 -> (
              match Allocator.admit alloc (arrival pick) with
              | Allocator.Admitted a -> a.Allocator.reallocated = changed before
              | Allocator.Rejected _ -> changed before = [])
            | 2 | 3 ->
              let arrivals = List.init (1 + (pick mod 4)) (fun i -> arrival (pick + i)) in
              let b = Allocator.admit_batch alloc arrivals in
              b.Allocator.batch_reallocated = changed before
            | _ -> (
              match Allocator.resident alloc with
              | [] -> true
              | residents ->
                let fid = List.nth residents (pick mod List.length residents) in
                let expanded = Allocator.depart alloc ~fid in
                expanded = changed before))
          ops
      in
      Allocator.shutdown alloc;
      ok)

(* Random churn keeps the allocator's central invariants. *)
let prop_churn_invariants =
  QCheck.Test.make ~name:"random churn: no overlap, utilization bounded"
    ~count:30
    QCheck.(make Gen.(list_size (int_range 5 60) (int_range 0 2)))
    (fun ops ->
      let alloc = Allocator.create params in
      let next = ref 0 in
      let live = ref [] in
      List.iter
        (fun op ->
          if op = 2 && !live <> [] then begin
            let fid = List.hd !live in
            live := List.tl !live;
            ignore (Allocator.depart alloc ~fid)
          end
          else begin
            incr next;
            let arrival =
              if op = 0 then cache_arrival !next else lb_arrival !next
            in
            match Allocator.admit alloc arrival with
            | Allocator.Admitted _ -> live := !live @ [ !next ]
            | Allocator.Rejected _ -> ()
          end)
        ops;
      (* stage_used_blocks recomputes from pools; Pool.map raises on
         overlap, so merely forcing it checks the invariant. *)
      let used = Allocator.stage_used_blocks alloc in
      Allocator.utilization alloc <= 1.0
      && Array.for_all (fun u -> u >= 0 && u <= 256) used)

let () =
  Alcotest.run "alloc"
    [
      ( "pool",
        [
          Alcotest.test_case "inelastic pinned" `Quick test_pool_inelastic_pinned_at_bottom;
          Alcotest.test_case "hole reuse" `Quick test_pool_hole_reuse;
          Alcotest.test_case "fragmentation" `Quick test_pool_fragmentation_blocks_big;
          Alcotest.test_case "elastic fills pool" `Quick test_pool_elastic_fills_everything;
          Alcotest.test_case "equal split" `Quick test_pool_elastic_equal_split;
          Alcotest.test_case "remainder split" `Quick test_pool_elastic_remainder;
          Alcotest.test_case "minimums honoured" `Quick
            test_pool_progressive_fill_respects_minimums;
          Alcotest.test_case "fungible blocks" `Quick test_pool_fungible;
          Alcotest.test_case "map consistency" `Quick test_pool_map_no_overlap;
          Alcotest.test_case "unfill roundtrip" `Quick test_pool_unfill_roundtrip;
          Alcotest.test_case "unfill idempotent" `Quick test_pool_unfill_idempotent;
          Alcotest.test_case "unfill then pin" `Quick test_pool_unfill_then_pin_into_zone;
          Alcotest.test_case "max hole" `Quick test_pool_max_hole;
          QCheck_alcotest.to_alcotest prop_pool_progressive_fill;
          QCheck_alcotest.to_alcotest prop_pool_max_min_characterization;
          QCheck_alcotest.to_alcotest prop_pool_fill_matches_oracle;
          QCheck_alcotest.to_alcotest prop_pool_counters;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "cache admission" `Quick test_admit_cache_regions;
          Alcotest.test_case "duplicate fid" `Quick test_admit_duplicate_fid;
          Alcotest.test_case "worst-fit spreads" `Quick test_worst_fit_spreads;
          Alcotest.test_case "best-fit packs" `Quick test_best_fit_packs;
          Alcotest.test_case "first-fit identity" `Quick test_first_fit_takes_identity;
          Alcotest.test_case "min-realloc avoids elastic" `Quick
            test_min_realloc_avoids_elastic;
          Alcotest.test_case "elastic sharing" `Quick test_elastic_sharing_splits_equally;
          Alcotest.test_case "inelastic unperturbed" `Quick test_inelastic_unperturbed;
          Alcotest.test_case "rejection when full" `Quick test_rejection_when_full;
          Alcotest.test_case "departure expands" `Quick test_departure_expands_elastic;
          Alcotest.test_case "depart unknown" `Quick test_depart_unknown_fid;
          Alcotest.test_case "utilization monotone" `Quick
            test_utilization_monotone_pure_cache;
          Alcotest.test_case "regions response" `Quick test_regions_response_words;
          Alcotest.test_case "rejected stats" `Quick test_rejected_considered_mutants;
          Alcotest.test_case "depart touches only demand stages" `Quick
            test_depart_only_touches_demand_stages;
          QCheck_alcotest.to_alcotest prop_churn_invariants;
          QCheck_alcotest.to_alcotest prop_reallocation_reports;
          QCheck_alcotest.to_alcotest prop_parallel_matches_sequential;
        ] );
      ( "batch",
        [
          Alcotest.test_case "commits conflict-free" `Quick
            test_batch_commits_conflict_free;
          Alcotest.test_case "memoizes repeated shapes" `Quick
            test_batch_memoizes_repeated_shapes;
          Alcotest.test_case "duplicate fid raises" `Quick
            test_batch_duplicate_fid_raises;
          Alcotest.test_case "fill coalescing trace attrs" `Quick
            test_batch_fill_coalescing_trace_attrs;
          QCheck_alcotest.to_alcotest prop_batch_singleton_matches_admit;
          Alcotest.test_case "mixed stream: sequential = epochs of 64" `Quick
            test_batch_mixed_decision_identity;
        ] );
    ]
