(* Every BENCH_alloc.json section, in bench/main.exe order. *)

let all =
  [
    Alloc_bench.section;
    Fleet_bench.section;
    Chaos_bench.section;
    Churn_bench.section;
    Tenant_bench.section;
    Device_bench.section;
    Fleetscale_bench.section;
    Health_bench.section;
  ]
