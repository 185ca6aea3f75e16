(* Multi-tenant fairness benchmark (the BENCH_alloc.json "tenants"
   section): the noisy-neighbor scenario of Experiments.Tenants at
   several tenant counts.

     quick  8 and 64 tenants (the CI smoke scale)
     full   8, 64 and 512 tenants

   Fairness and the zero-FID-loss audit gate absolutely, not against the
   baseline, because they are deterministic (modeled clock, seeded
   shuffle).  Gates: see [section]. *)

module Tenants = Experiments.Tenants
module Json = Activermt_telemetry.Json

let min_jain = 0.9
let min_retained = 0.9

let json_row ~tenants (r : Tenants.result) =
  let ms v = Json.Num (Float.round (10_000.0 *. 1000.0 *. v) /. 10_000.0) in
  Json.Obj
    [
      ("tenants", Json.Num (float_of_int tenants));
      ("demand_blocks", Json.Num (float_of_int r.Tenants.config.Tenants.demand_blocks));
      ("jain_wb", Json.Num (Float.round (10_000.0 *. r.Tenants.jain_wb) /. 10_000.0));
      ( "min_retained_wb",
        Json.Num (Float.round (10_000.0 *. r.Tenants.min_retained_wb) /. 10_000.0) );
      ("p50_admit_ms", ms r.Tenants.p50_admit_s);
      ("p99_admit_ms", ms r.Tenants.p99_admit_s);
      ("granted", Json.Num (float_of_int r.Tenants.granted));
      ("denied_capacity", Json.Num (float_of_int r.Tenants.denied_capacity));
      ("evictions", Json.Num (float_of_int r.Tenants.evictions));
      ("relocations", Json.Num (float_of_int r.Tenants.relocations));
      ("epochs", Json.Num (float_of_int r.Tenants.epochs));
      ("consistent", Json.Num (if r.Tenants.consistent then 1.0 else 0.0));
    ]

let run ~quick =
  let sizes = if quick then [ 8; 64 ] else [ 8; 64; 512 ] in
  Printf.printf
    "== Multi-tenant fairness: noisy neighbor at 10x offered load ==\n";
  let rows =
    List.map
      (fun tenants ->
        let cfg = Tenants.preset ~tenants () in
        let r = Tenants.run ~clock:Unix.gettimeofday cfg in
        Printf.printf
          "%4d tenants  jain %.4f  min-retained %.4f  p99 admit %.3f ms  \
           (%d granted, %d evictions, %d relocations, %d epochs)%s\n"
          tenants r.Tenants.jain_wb r.Tenants.min_retained_wb
          (1000.0 *. r.Tenants.p99_admit_s)
          r.Tenants.granted r.Tenants.evictions r.Tenants.relocations
          r.Tenants.epochs
          (if r.Tenants.consistent then "" else "  FID AUDIT FAILED");
        json_row ~tenants r)
      sizes
  in
  [
    Json.Obj
      [
        ("min_jain", Json.Num min_jain);
        ("min_retained", Json.Num min_retained);
        ("sweep", Json.Arr rows);
      ];
  ]

(* One row per tenant count ("t8", "t64", ...). *)
let section =
  {
    Section.name = "tenants";
    info =
      "multi-tenant fairness: noisy-neighbor quotas/WRR/preemption (BENCH_alloc.json)";
    keys = [ "tenants" ];
    run;
    metrics =
      (fun file ->
        List.map
          (fun r ->
            ( Printf.sprintf "t%.0f" (Option.value ~default:0.0 (Section.num "tenants" r)),
              Section.nums
                [ "jain_wb"; "min_retained_wb"; "consistent"; "p99_admit_ms" ]
                r ))
          (Section.items "sweep" (Section.member "tenants" file)));
    gates =
      [
        Section.gate "jain_wb" (At_least min_jain);
        Section.gate "min_retained_wb" (At_least min_retained);
        Section.gate "consistent" (Equal 1.0);
        Section.gate "p99_admit_ms" (Max_growth 2.0);
      ];
  }
