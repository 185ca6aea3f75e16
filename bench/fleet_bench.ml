(* Fleet capacity benchmark (the BENCH_alloc.json "fleet" section): the
   same seeded mixed workload is offered to a single switch and to a
   4-switch full mesh under least-loaded placement, followed by a
   failure drill: a loaded switch is forcibly failed and its resident
   services re-placed on the survivors.  Gates: see [section].

   Runs on small 32-block stages so both fleets saturate quickly; the
   numbers measure placement behaviour, not raw switch capacity. *)

module Topology = Activermt_fleet.Topology
module Placement = Activermt_fleet.Placement
module Fleet = Activermt_fleet.Fleet
module Telemetry = Activermt_telemetry.Telemetry
module Json = Activermt_telemetry.Json
module Churn = Workload.Churn

let params = Rmt.Params.with_blocks_per_stage Rmt.Params.default 32

let arrivals ~n ~seed =
  List.concat_map
    (fun (e : Churn.epoch) ->
      List.filter_map
        (function
          | Churn.Arrive { fid; kind; _ } -> Some (fid, kind)
          | Churn.Depart _ -> None)
        e.Churn.events)
    (Churn.mixed_arrivals ~n (Stdx.Prng.create ~seed))

type capacity = {
  switches : int;
  offered : int;
  admitted : int;
  concurrent : int;
  spillover : int;
  occupancy : float;
}

let offer ~switches ~n ~seed =
  let tel = Telemetry.create () in
  let topo = Topology.full_mesh ~switches ~latency_s:1e-5 in
  let fleet =
    Fleet.create ~policy:Placement.Least_loaded ~params ~telemetry:tel topo
  in
  List.iter
    (fun (fid, kind) ->
      ignore (Fleet.admit fleet ~fid (Experiments.Harness.app_of_kind kind)))
    (arrivals ~n ~seed);
  ( fleet,
    {
      switches;
      offered = n;
      admitted = Telemetry.counter_value tel "fleet.admitted";
      concurrent = List.length (Fleet.residents fleet);
      spillover = Telemetry.counter_value tel "fleet.spillover";
      occupancy =
        Option.value ~default:0.0 (Telemetry.gauge_value tel "fleet.occupancy");
    } )

let json_of_capacity c =
  Json.Obj
    [
      ("switches", Json.Num (float_of_int c.switches));
      ("offered", Json.Num (float_of_int c.offered));
      ("admitted", Json.Num (float_of_int c.admitted));
      ("concurrent", Json.Num (float_of_int c.concurrent));
      ("spillover", Json.Num (float_of_int c.spillover));
      ("occupancy", Json.Num c.occupancy);
    ]

let print_capacity c =
  Printf.printf
    "%d switch%s  %4d offered  %4d admitted  %4d concurrent  %4d spilled  occupancy %.3f\n"
    c.switches
    (if c.switches = 1 then " " else "es")
    c.offered c.admitted c.concurrent c.spillover c.occupancy

let run ~quick =
  let n = if quick then 100 else 300 in
  let seed = 7001 in
  Printf.printf "== Fleet placement: capacity and failover (n=%d arrivals) ==\n" n;
  let _fleet1, one = offer ~switches:1 ~n ~seed in
  let _fleet4, four = offer ~switches:4 ~n ~seed in
  print_capacity one;
  print_capacity four;
  let scaling =
    if one.concurrent > 0 then
      float_of_int four.concurrent /. float_of_int one.concurrent
    else 0.0
  in
  Printf.printf "concurrency scaling 4sw/1sw: %.2fx\n" scaling;

  (* Failure drill: a fresh 4-switch fleet at full stage capacity, loaded
     below saturation so the drill measures re-placement (and its state
     recovery), not whether the survivors happen to have room. *)
  let drill_tel = Telemetry.create () in
  let drill =
    Fleet.create ~policy:Placement.Least_loaded ~params:Rmt.Params.default
      ~telemetry:drill_tel
      (Topology.full_mesh ~switches:4 ~latency_s:1e-5)
  in
  List.iter
    (fun (fid, kind) ->
      ignore (Fleet.admit drill ~fid (Experiments.Harness.app_of_kind kind)))
    (arrivals ~n:(n / 3) ~seed:(seed + 1));
  let victim, victim_residents =
    List.fold_left
      (fun ((_, best) as acc) sw ->
        let r = List.length (Fleet.residents_of drill ~sw) in
        if r > best then (sw, r) else acc)
      (0, -1)
      [ 0; 1; 2; 3 ]
  in
  let { Fleet.relocated; lost } = Fleet.fail_switch drill ~sw:victim in
  Printf.printf
    "failure drill: failed switch %d (%d residents) -> %d relocated, %d lost\n"
    victim victim_residents (List.length relocated) (List.length lost);
  [
    Json.Obj
      [
        ("policy", Json.Str (Placement.policy_to_string Placement.Least_loaded));
        ("arrivals", Json.Num (float_of_int n));
        ("blocks_per_stage", Json.Num (float_of_int params.Rmt.Params.blocks_per_stage));
        ("capacity", Json.Arr [ json_of_capacity one; json_of_capacity four ]);
        ("concurrency_scaling", Json.Num (Float.round (100.0 *. scaling) /. 100.0));
        ( "failover",
          Json.Obj
            [
              ("failed_switch", Json.Num (float_of_int victim));
              ("residents", Json.Num (float_of_int victim_residents));
              ("relocated", Json.Num (float_of_int (List.length relocated)));
              ("lost", Json.Num (float_of_int (List.length lost)));
            ] );
      ];
  ]

(* [concurrent_gain_4sw] is the 4-switch fleet's concurrent services
   minus the single switch's: the fleet must admit strictly more. *)
let section =
  {
    Section.name = "fleet";
    info = "multi-switch placement capacity and failover (BENCH_alloc.json)";
    keys = [ "fleet" ];
    run;
    metrics =
      (fun file ->
        let body = Section.member "fleet" file in
        let concurrent n =
          List.find_map
            (fun c ->
              if Section.num "switches" c = Some n then Section.num "concurrent" c else None)
            (Section.items "capacity" body)
        in
        let gain =
          match (concurrent 4.0, concurrent 1.0) with
          | Some four, Some one -> [ ("concurrent_gain_4sw", four -. one) ]
          | _ -> []
        in
        let lost = Section.num "lost" (Section.member "failover" body) in
        [ ("", gain @ Option.to_list (Option.map (fun l -> ("failover_lost", l)) lost)) ]);
    gates =
      [
        Section.gate "concurrent_gain_4sw" (Above 0.0);
        Section.gate "failover_lost" (Equal 0.0);
      ];
  }
