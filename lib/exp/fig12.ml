open Import

type mix = Pure of Churn.kind | Mixed

let mixes =
  [
    (Pure Churn.Cache, "cache");
    (Pure Churn.Heavy_hitter, "hh");
    (Pure Churn.Load_balancer, "lb");
    (Mixed, "mixed");
  ]

let block_counts = [ 128; 256; 512; 1024 ]

let run ?(n = 100) params =
  Report.figure ~id:"Figure 12"
    ~title:"total allocation time (ms) for 100 arrivals vs. block granularity (mc)";
  Report.columns
    ("workload"
    :: List.map
         (fun blocks ->
           Printf.sprintf "%dB_blocks" (Rmt.Params.bytes_per_block
              (Rmt.Params.with_blocks_per_stage params blocks)))
         block_counts);
  List.iter
    (fun (mix, mname) ->
      let cells =
        List.map
          (fun blocks ->
            let p = Rmt.Params.with_blocks_per_stage params blocks in
            let trace =
              match mix with
              | Pure kind -> Churn.arrivals_sequence kind ~n
              | Mixed -> Churn.mixed_arrivals ~n (Prng.create ~seed:1212)
            in
            let result =
              Harness.run ~policy:Mutant.Most_constrained ~params:p trace
            in
            let total =
              List.fold_left (fun acc e -> acc +. e.Harness.alloc_time_s) 0.0
                result.Harness.epochs
            in
            Printf.sprintf "%.2f(f%d)" (1000.0 *. total) result.Harness.total_failures)
          block_counts
      in
      Report.row (mname :: cells))
    mixes;
  Report.summary
    [ ("cell format", "total-ms(f<placement failures out of 100>)") ]
