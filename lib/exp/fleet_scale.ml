open Import

(* Planet-scale runs shrink each switch's register memory so a
   1024-device fleet fits in RAM: 20 stages x 2048 words is ~328 KB of
   modeled memory per switch (8-word blocks), against the default 10 MB.
   Allocation behaviour is unchanged — 256 blocks per stage as on the
   real device — only the block payload is smaller. *)
let scenario_params =
  { Rmt.Params.default with Rmt.Params.words_per_stage = 2048 }

type config = {
  k : int;  (** fat-tree arity (even) *)
  pods : int;  (** pods built out (partial fabric allowed) *)
  services : int;  (** concurrent services offered *)
  batch : int;  (** services enqueued per admission drain *)
  seed : int;
  fail_pod : int option;  (** rolling failure: every switch of this pod *)
  params : Rmt.Params.t;
}

(* k=32 x 24 pods and k=8 x 6 pods both close exactly on a power-of-two
   fleet: pods*k + (k/2)^2 = 1024 and 64 switches respectively. *)
let default_config =
  {
    k = 32;
    pods = 24;
    services = 100_000;
    batch = 1024;
    seed = 9001;
    fail_pod = Some 0;
    params = scenario_params;
  }

let quick_config =
  {
    k = 8;
    pods = 6;
    services = 5_000;
    batch = 512;
    seed = 9001;
    fail_pod = Some 0;
    params = scenario_params;
  }

type result = {
  switches : int;
  links : int;
  n_pods : int;
  offered : int;
  admitted : int;
  rejected : int;
  concurrent : int;
  spillover : int;
  adm_epochs : int;
  occupancy : float;
  place_us : float list;
      (** per-service placement+admission cost samples, one per batch *)
  sssp_runs : int;
  routed_pairs : int;
  flap_down_touched : int;
  flap_up_touched : int;
  flap_frac : float;  (** worst single-transition touched/routed fraction *)
  flap_repairs : int;
  failed_switches : int;
  relocated : int;
  lost : int;
  orphans : int;  (** residents left on a down switch — must be 0 *)
}

(* The service mix: mostly light services with 1-in-16 heavy-hitter
   monitors.  Heavy hitters pin 16 blocks in each of 6 stages, so a
   switch holds at most ~16 of them — a uniform third-heavy mix (the
   small-fleet benches' default) would cap the whole fleet far below the
   100k-service target; a skewed mix is also the realistic shape for a
   fleet-wide service population. *)
let light_kinds =
  [|
    Churn.Cache; Churn.Load_balancer; Churn.Flow_counter; Churn.Bloom_filter;
  |]

let arrivals ~n ~seed =
  let rng = Prng.create ~seed in
  List.init n (fun fid ->
      let kind =
        if Prng.int rng 16 = 0 then Churn.Heavy_hitter
        else light_kinds.(Prng.int rng (Array.length light_kinds))
      in
      (fid, kind))

let run_scenario ?(log = ignore) cfg =
  let topo = Topology.fat_tree ~pods:cfg.pods ~k:cfg.k () in
  let tel = Telemetry.create () in
  let fleet =
    Fleet.create ~policy:Placement.Hierarchical ~params:cfg.params
      ~telemetry:tel topo
  in
  let switches = Topology.switches topo in
  log
    (Printf.sprintf "fat-tree k=%d pods=%d: %d switches, %d links, %d pods"
       cfg.k cfg.pods switches (Topology.n_links topo) (Topology.n_pods topo));
  (* Admission through the batched epoch pipeline, in chunks so each
     drain yields one placement-cost sample. *)
  let place_us = ref [] in
  let rec admit_chunks todo =
    match todo with
    | [] -> ()
    | _ ->
      let chunk, rest =
        let rec split i acc = function
          | x :: tl when i < cfg.batch -> split (i + 1) (x :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        split 0 [] todo
      in
      List.iter
        (fun (fid, kind) ->
          Fleet.enqueue_admission fleet ~fid (Harness.app_of_kind kind))
        chunk;
      let t0 = Sys.time () in
      ignore (Fleet.drain_admissions fleet);
      let dt = Sys.time () -. t0 in
      place_us :=
        (dt *. 1.0e6 /. float_of_int (max 1 (List.length chunk))) :: !place_us;
      admit_chunks rest
  in
  admit_chunks (arrivals ~n:cfg.services ~seed:cfg.seed);
  let admitted = Telemetry.counter_value tel "fleet.admitted" in
  let rejected = Telemetry.counter_value tel "fleet.rejected" in
  log
    (Printf.sprintf "admitted %d / %d (rejected %d, %d epochs)" admitted
       cfg.services rejected
       (Telemetry.counter_value tel "fleet.adm.epochs"));
  (* Link-flap drill against fully built route tables, so the touched
     fraction measures repair cost, not lazy builds.  The flapped link is
     pod 0's first edge uplink — the worst of the common cases, since it
     strands the edge switch's last-resort destinations the deepest. *)
  Topology.build_all_routes topo;
  let routed = Topology.routed_pairs topo in
  let edge0 = 0 and agg0 = cfg.k / 2 in
  let s0 = Topology.stats topo in
  ignore (Topology.set_link topo ~a:edge0 ~b:agg0 ~up:false);
  let s1 = Topology.stats topo in
  ignore (Topology.set_link topo ~a:edge0 ~b:agg0 ~up:true);
  let s2 = Topology.stats topo in
  let down_touched = s1.Topology.pairs_touched - s0.Topology.pairs_touched in
  let up_touched = s2.Topology.pairs_touched - s1.Topology.pairs_touched in
  let flap_frac =
    float_of_int (max down_touched up_touched) /. float_of_int (max 1 routed)
  in
  log
    (Printf.sprintf
       "link flap %d-%d: %d pairs touched down, %d up, of %d routed (%.4f%%)"
       edge0 agg0 down_touched up_touched routed (100.0 *. flap_frac));
  (* Rolling pod failure: every switch of the pod goes down one by one,
     each failure re-placing its residents on the survivors. *)
  let failed, relocated, lost =
    match cfg.fail_pod with
    | None -> (0, 0, 0)
    | Some pod ->
      List.fold_left
        (fun (f, r, l) sw ->
          let { Fleet.relocated; lost } = Fleet.fail_switch fleet ~sw in
          (f + 1, r + List.length relocated, l + List.length lost))
        (0, 0, 0)
        (Topology.pod_members topo ~pod)
  in
  log
    (Printf.sprintf "rolling pod failure: %d switches down, %d relocated, %d lost"
       failed relocated lost);
  let orphans =
    List.length
      (List.filter
         (fun (_, sw) -> not (Fleet.is_up fleet ~sw))
         (Fleet.residents fleet))
  in
  let stats = Topology.stats topo in
  {
    switches;
    links = Topology.n_links topo;
    n_pods = Topology.n_pods topo;
    offered = cfg.services;
    admitted;
    rejected;
    concurrent = List.length (Fleet.residents fleet);
    spillover = Telemetry.counter_value tel "fleet.spillover";
    adm_epochs = Telemetry.counter_value tel "fleet.adm.epochs";
    occupancy =
      Option.value ~default:0.0 (Telemetry.gauge_value tel "fleet.occupancy");
    place_us = List.rev !place_us;
    sssp_runs = stats.Topology.sssp_runs;
    routed_pairs = routed;
    flap_down_touched = down_touched;
    flap_up_touched = up_touched;
    flap_frac;
    flap_repairs = stats.Topology.repairs;
    failed_switches = failed;
    relocated;
    lost;
    orphans;
  }
