open Import

let run_8a ?(epochs = 300) ?(every = 10) params =
  Report.figure ~id:"Figure 8a"
    ~title:"provisioning time per arrival (allocation + table update + snapshot)";
  let device = Rmt.Device.create params in
  let controller = Controller.create ~mode:`Auto device in
  let rng = Prng.create ~seed:4242 in
  let trace = Churn.generate Churn.default_config ~epochs rng in
  let rows = ref [] in
  let arrival_idx = ref 0 in
  List.iter
    (fun (e : Churn.epoch) ->
      List.iter
        (fun ev ->
          match ev with
          | Churn.Depart { fid } -> ignore (Controller.handle_departure controller ~fid)
          | Churn.Arrive { fid; kind; _ } ->
            let app = Harness.app_of_kind kind in
            let pkt = Activermt_client.Negotiate.request_packet ~fid ~seq:0 app in
            (match Controller.handle_request controller pkt with
            | Ok prov ->
              let b = prov.Controller.timing in
              incr arrival_idx;
              rows :=
                ( !arrival_idx,
                  [
                    Report.float_cell b.Cost_model.allocation_s;
                    Report.float_cell b.Cost_model.table_update_s;
                    Report.float_cell b.Cost_model.snapshot_s;
                    Report.float_cell (Cost_model.total b);
                  ] )
                :: !rows
            | Error (`Rejected _) | Error (`Bad_packet _) -> ()))
        e.Churn.events)
    trace;
  let rows = List.rev !rows in
  Report.series ~every
    ~columns:[ "arrival"; "alloc_s"; "table_s"; "snapshot_s"; "total_s" ]
    rows;
  let totals =
    List.map (fun (_, cells) -> float_of_string (List.nth cells 3)) rows
  in
  let tail = List.filteri (fun i _ -> i >= List.length totals - 50) totals in
  Report.summary
    [
      ("plateau provisioning time (last 50 arrivals, s)", Report.float_cell (Stats.mean tail));
      ("p4 compile of 22-instance monolith (s)", Report.float_cell Cost_model.p4_compile_s);
      ( "speedup vs p4 compile",
        Report.float_cell (Cost_model.p4_compile_s /. Float.max 1e-9 (Stats.mean tail)) );
    ]

let nop_chain n =
  if n < 2 then invalid_arg "nop_chain: need at least RTS and RETURN";
  Activermt.Program.v ~name:(Printf.sprintf "nops-%d" n)
    (Activermt.Program.plain
       ((Activermt.Instr.Rts :: List.init (n - 2) (fun _ -> Activermt.Instr.Nop))
       @ [ Activermt.Instr.Return ]))

let run_8b ?(packets = 1000) params =
  Report.figure ~id:"Figure 8b"
    ~title:"processing latency vs. program length (client-to-switch RTT, us)";
  let device = Rmt.Device.create params in
  let controller = Controller.create device in
  let fid = 9001 in
  let app =
    {
      App.name = "nop-chain";
      programs = [ Spec.analyze (nop_chain 10) ];
      elastic = false;
      demand_blocks = [||];
    }
  in
  let pkt = Activermt_client.Negotiate.request_packet ~fid ~seq:0 app in
  (match Controller.handle_request controller pkt with
  | Ok _ -> ()
  | Error _ -> failwith "fig8b: nop-chain admission failed");
  let tables = Controller.tables controller in
  let rng = Prng.create ~seed:88 in
  let meta = Activermt.Runtime.meta ~src:1 ~dst:2 () in
  let measure label rtt_of =
    let samples =
      List.init packets (fun _ ->
          (* End-host jitter around the modeled RTT. *)
          rtt_of () +. Prng.float rng 0.12)
    in
    let s = Stats.summarize samples in
    Report.row
      [
        label;
        Report.float_cell s.Stats.mean;
        Report.float_cell (Stats.percentile samples 50.0);
        Report.float_cell (Stats.percentile samples 99.0);
      ]
  in
  Report.columns [ "program"; "mean_us"; "p50_us"; "p99_us" ];
  measure "echo" (fun () -> params.Rmt.Params.wire_rtt_us);
  List.iter
    (fun n ->
      let program = nop_chain n in
      let p =
        Activermt.Packet.exec ~flags:Activermt.Packet.no_flags ~fid ~seq:0 ~args:[||]
          program
      in
      measure
        (Printf.sprintf "%d instructions" n)
        (fun () ->
          let r = Activermt.Runtime.run tables ~meta p in
          Activermt.Runtime.latency_us params r))
    [ 10; 20; 30 ];
  Report.summary
    [
      ( "added latency per pipeline (us)",
        Report.float_cell params.Rmt.Params.pass_latency_us );
    ]
