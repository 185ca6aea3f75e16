(* Chaos benchmark (the BENCH_alloc.json "chaos" section): sweep packet
   loss x retry policy over the full negotiation + memsync stack
   (lib/exp/chaos.ml), plus one hostile profile combining corruption,
   duplication, link flaps and a degraded control plane.  The fire-once
   rows document why the recovery machinery exists; gates: see
   [section].  Every run is seeded, so a failure reproduces exactly from
   the printed seed (see docs/FAULTS.md). *)

module Chaos = Experiments.Chaos
module Faults = Netsim.Faults
module Json = Activermt_telemetry.Json

let seed = 0xC4A05
let gate_completion_1pct = 0.95

type row = { label : string; loss : float; retries : bool; r : Chaos.result }

let profile_for ~loss = Faults.lossy ~drop:loss ~jitter_s:1e-4 ()

let hostile =
  {
    Faults.drop = 0.02;
    duplicate = 0.05;
    corrupt = 0.02;
    jitter_s = 5e-4;
    flap_period_s = 10.0;
    flap_down_s = 0.5;
    table_update_slowdown = 20.0;
    table_update_fail = 0.2;
  }

let run_one ~label ~loss ~retries profile =
  let r = Chaos.run { Chaos.default_config with seed; retries; profile } in
  { label; loss; retries; r }

let print_row { label; loss; retries; r } =
  Printf.printf
    "%-10s loss %4.1f%%  retries %-3s  completion %5.1f%%  nego retries %3d  sync rtx %4d  fallback %3d  faults %4d\n"
    label (100.0 *. loss)
    (if retries then "on" else "off")
    (100.0 *. r.Chaos.completion)
    r.Chaos.negotiation_retries r.Chaos.sync_retransmits r.Chaos.fallback_words
    r.Chaos.fault_events

let json_of_row { label; loss; retries; r } =
  Json.Obj
    [
      ("label", Json.Str label);
      ("loss", Json.Num loss);
      ("retries", Json.Str (if retries then "on" else "off"));
      ("completion", Json.Num r.Chaos.completion);
      ("completed", Json.Num (float_of_int r.Chaos.completed));
      ("negotiation_retries", Json.Num (float_of_int r.Chaos.negotiation_retries));
      ("sync_retransmits", Json.Num (float_of_int r.Chaos.sync_retransmits));
      ("fallback_words", Json.Num (float_of_int r.Chaos.fallback_words));
      ("fault_events", Json.Num (float_of_int r.Chaos.fault_events));
      ("sim_time_s", Json.Num r.Chaos.sim_time_s);
    ]

let write_trace ~path faults =
  let oc = open_out path in
  List.iter
    (fun e -> output_string oc (Format.asprintf "%a\n" Faults.pp_event e))
    (Faults.events faults);
  close_out oc

let run ~quick =
  let losses = if quick then [ 0.0; 0.01; 0.05; 0.2 ] else [ 0.0; 0.01; 0.05; 0.1; 0.2 ] in
  Printf.printf "== Chaos: protocol stack under seeded faults (seed %#x) ==\n" seed;
  let rows =
    List.concat_map
      (fun loss ->
        let label = Printf.sprintf "loss" in
        [
          run_one ~label ~loss ~retries:true (profile_for ~loss);
          run_one ~label ~loss ~retries:false (profile_for ~loss);
        ])
      losses
    @ [ run_one ~label:"hostile" ~loss:hostile.Faults.drop ~retries:true hostile ]
  in
  List.iter print_row rows;

  let hostile_row = List.nth rows (List.length rows - 1) in
  write_trace ~path:"chaos_trace.txt" hostile_row.r.Chaos.faults;
  Printf.printf "wrote %d fault events to chaos_trace.txt\n"
    (List.length (Faults.events hostile_row.r.Chaos.faults));
  [
    Json.Obj
      [
        ("seed", Json.Num (float_of_int seed));
        ("services", Json.Num (float_of_int Chaos.default_config.Chaos.services));
        ("words", Json.Num (float_of_int Chaos.default_config.Chaos.words));
        ("gate_completion_1pct", Json.Num gate_completion_1pct);
        ("sweep", Json.Arr (List.map json_of_row rows));
      ];
  ]

(* Rows are keyed "<label> <loss>% retries <on|off>"; the fault-free run
   is a sanity anchor for the sweep itself. *)
let section =
  {
    Section.name = "chaos";
    info = "fault injection: loss x retry-policy sweep (BENCH_alloc.json)";
    keys = [ "chaos" ];
    run;
    metrics =
      (fun file ->
        List.map
          (fun r ->
            ( Printf.sprintf "%s %g%% retries %s" (Section.str "label" r)
                (100.0 *. Option.value ~default:0.0 (Section.num "loss" r))
                (Section.str "retries" r),
              Section.nums [ "completion" ] r ))
          (Section.items "sweep" (Section.member "chaos" file)));
    gates =
      [
        Section.gate ~rows:[ "loss 0% retries on" ] "completion" (Equal 1.0);
        Section.gate ~rows:[ "loss 1% retries on" ] "completion"
          (At_least gate_completion_1pct);
      ];
  }
