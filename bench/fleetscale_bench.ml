(* Planet-scale fleet benchmark (the BENCH_alloc.json "fleetscale"
   section): the Experiments.Fleet_scale scenario — a fat-tree fleet
   admitting a large concurrent service population through the batched
   epoch pipeline under hierarchical placement, a link-flap drill
   against the incremental router, and a rolling pod failure.

   Gates: see [section]. *)

module Topology = Activermt_fleet.Topology
module Json = Activermt_telemetry.Json
module Fleet_scale = Experiments.Fleet_scale
module Stats = Stdx.Stats

let max_flap_frac = 0.05

let run ~quick =
  let cfg =
    if quick then Fleet_scale.quick_config else Fleet_scale.default_config
  in
  Printf.printf
    "== Planet-scale fleet: k=%d fat-tree, %d services, rolling pod failure ==\n"
    cfg.Fleet_scale.k cfg.Fleet_scale.services;
  let t0 = Unix.gettimeofday () in
  let r = Fleet_scale.run_scenario ~log:print_endline cfg in
  let wall_s = Unix.gettimeofday () -. t0 in
  let p50 = Stats.percentile r.Fleet_scale.place_us 50.0 in
  let p99 = Stats.percentile r.Fleet_scale.place_us 99.0 in
  Printf.printf "placement cost: p50 %.1f us/service, p99 %.1f us/service\n" p50
    p99;
  Printf.printf "scenario wall time: %.1f s\n" wall_s;

  let consistent =
    if r.Fleet_scale.lost = 0 && r.Fleet_scale.orphans = 0 then 1.0 else 0.0
  in
  let num n = Json.Num (float_of_int n) in
  [
    Json.Obj
      [
        ("k", num cfg.Fleet_scale.k);
        ("switches", num r.Fleet_scale.switches);
        ("links", num r.Fleet_scale.links);
        ("pods", num r.Fleet_scale.n_pods);
        ("offered", num r.Fleet_scale.offered);
        ("admitted", num r.Fleet_scale.admitted);
        ("concurrent", num r.Fleet_scale.concurrent);
        ("rejected", num r.Fleet_scale.rejected);
        ("spillover", num r.Fleet_scale.spillover);
        ("adm_epochs", num r.Fleet_scale.adm_epochs);
        ("occupancy", Json.Num r.Fleet_scale.occupancy);
        ("place_p50_us", Json.Num (Float.round (p50 *. 10.0) /. 10.0));
        ("place_p99_us", Json.Num (Float.round (p99 *. 10.0) /. 10.0));
        ("sssp_runs", num r.Fleet_scale.sssp_runs);
        ("routed_pairs", num r.Fleet_scale.routed_pairs);
        ( "flap_touched",
          num (max r.Fleet_scale.flap_down_touched r.Fleet_scale.flap_up_touched)
        );
        ("flap_frac", Json.Num r.Fleet_scale.flap_frac);
        ("max_flap_frac", Json.Num max_flap_frac);
        ("failed_switches", num r.Fleet_scale.failed_switches);
        ("relocated", num r.Fleet_scale.relocated);
        ("lost", num r.Fleet_scale.lost);
        ("orphans", num r.Fleet_scale.orphans);
        ("consistent", Json.Num consistent);
      ];
  ]

(* [offered_minus_concurrent] is the gate "every offered service is
   concurrently admitted". *)
let section =
  {
    Section.name = "fleetscale";
    info =
      "planet-scale fleet: fat-tree admission, link-flap repair, pod failure (BENCH_alloc.json)";
    keys = [ "fleetscale" ];
    run;
    metrics =
      (fun file ->
        let body = Section.member "fleetscale" file in
        let unplaced =
          match (Section.num "offered" body, Section.num "concurrent" body) with
          | Some o, Some c -> [ ("offered_minus_concurrent", o -. c) ]
          | _ -> []
        in
        [
          ( "",
            unplaced
            @ Section.nums
                [ "lost"; "orphans"; "consistent"; "concurrent"; "flap_frac"; "place_p99_us" ]
                body );
        ]);
    gates =
      [
        Section.gate "lost" (Equal 0.0);
        Section.gate "orphans" (Equal 0.0);
        Section.gate "consistent" (Equal 1.0);
        Section.gate "offered_minus_concurrent" (At_most 0.0);
        Section.gate ~full_only:true "concurrent" (At_least 100_000.0);
        Section.gate "concurrent" (Max_drop 0.3);
        Section.gate "flap_frac" (Below max_flap_frac);
        Section.gate "place_p99_us" (Max_growth 2.0);
      ];
  }
