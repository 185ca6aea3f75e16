open Import

let run_mutant_limit ?(n = 150) params =
  Report.figure ~id:"Ablation A1"
    ~title:"mutant-enumeration budget: time vs. placement quality (lb + hh, lc)";
  Report.columns
    [ "limit"; "lb_admitted"; "lb_total_ms"; "hh_admitted"; "hh_total_ms" ];
  List.iter
    (fun limit ->
      let run kind =
        let alloc =
          Allocator.create ~policy:Mutant.Least_constrained ~mutant_limit:limit
            params
        in
        let admitted = ref 0 in
        let time = ref 0.0 in
        for fid = 1 to n do
          match
            Allocator.admit alloc
              (Harness.arrival_of ~fid kind ~block_bytes:(Rmt.Params.bytes_per_block params))
          with
          | Allocator.Admitted a ->
            incr admitted;
            time := !time +. a.Allocator.compute_time_s
          | Allocator.Rejected r -> time := !time +. r.Allocator.compute_time_s
        done;
        (!admitted, 1000.0 *. !time)
      in
      let lb_adm, lb_ms = run Churn.Load_balancer in
      let hh_adm, hh_ms = run Churn.Heavy_hitter in
      Report.row
        [
          Report.int_cell limit;
          Report.int_cell lb_adm;
          Report.float_cell lb_ms;
          Report.int_cell hh_adm;
          Report.float_cell hh_ms;
        ])
    [ 64; 256; 1024; 4096 ];
  Report.summary
    [
      ( "takeaway",
        "larger budgets buy more feasible placements at roughly linear \
         allocation-time cost; the default (4096) sits past the knee" );
    ]

let run_tcam ?(n = 600) params =
  Report.figure ~id:"Ablation A2"
    ~title:"per-stage TCAM capacity vs. concurrent cache instances (mc)";
  Report.columns [ "tcam_entries"; "caches_admitted"; "utilization" ];
  List.iter
    (fun cap ->
      let p = { params with Rmt.Params.tcam_entries_per_stage = cap } in
      let alloc = Allocator.create p in
      let admitted = ref 0 in
      (try
         for fid = 1 to n do
           match
             Allocator.admit alloc
               (Harness.arrival_of ~fid Churn.Cache
                  ~block_bytes:(Rmt.Params.bytes_per_block p))
           with
           | Allocator.Admitted _ -> incr admitted
           | Allocator.Rejected _ -> raise Exit
         done
       with Exit -> ());
      Report.row
        [
          Report.int_cell cap;
          Report.int_cell !admitted;
          Report.float_cell (Allocator.utilization alloc);
        ])
    [ 1536; 3072; 6144; 12288 ];
  Report.summary
    [
      ( "takeaway",
        "range-match capacity bounds co-residency linearly (Section 3.1's \
         'TCAMs end up being the resource bottleneck')" );
    ]

let run_bandwidth ?(n = 60) params =
  Report.figure ~id:"Ablation A3"
    ~title:"bandwidth inflation: pipeline passes per heavy-hitter update, mc vs lc";
  (* The monitor is the paper's recirculating program (2 passes compact).
     Most-constrained admits only its single compact placement; once those
     slots are gone, least-constrained keeps admitting by spilling onto a
     third pass — paying bandwidth for memory reach. *)
  Report.columns
    [ "policy"; "admitted"; "mean_passes"; "max_passes"; "3pass_frac" ];
  List.iter
    (fun (policy, pname) ->
      let device = Rmt.Device.create params in
      let controller = Controller.create ~policy device in
      let tables = Controller.tables controller in
      let meta = Activermt.Runtime.meta ~src:1 ~dst:2 () in
      let passes = ref [] in
      let admitted = ref 0 in
      for fid = 1 to n do
        match
          Controller.handle_request controller
            (Activermt_client.Negotiate.request_packet ~fid ~seq:0
               Heavy_hitter.service)
        with
        | Error _ -> ()
        | Ok prov -> (
          incr admitted;
          let regions =
            Option.get
              (Activermt_client.Negotiate.granted_regions prov.Controller.response)
          in
          match
            Activermt_client.Hh_client.create params ~policy ~fid ~regions
          with
          | Error e -> failwith e
          | Ok hh ->
            let key = Kv.key_of_rank fid in
            let r =
              Activermt.Runtime.run tables ~meta
                (Activermt_client.Hh_client.monitor_packet hh ~seq:0 key)
            in
            passes := float_of_int r.Activermt.Runtime.passes :: !passes)
      done;
      let s = Stats.summarize !passes in
      let three =
        List.length (List.filter (fun p -> p >= 3.0) !passes)
      in
      Report.row
        [
          pname;
          Report.int_cell !admitted;
          Report.float_cell s.Stats.mean;
          Report.float_cell s.Stats.max;
          Report.float_cell (float_of_int three /. float_of_int (max 1 !admitted));
        ])
    [ (Mutant.Most_constrained, "mc"); (Mutant.Least_constrained, "lc") ];
  Report.summary
    [
      ( "takeaway",
        "least-constrained placements buy memory reach with extra passes \
         through the pipeline, inflating bandwidth (Sections 6.1/7.2)" );
    ]
