open Import

type outputs = {
  utilization : bool;
  residents : bool;
  reallocation : bool;
  fairness : bool;
}

let all = { utilization = true; residents = true; reallocation = true; fairness = true }

type epoch_agg = {
  mutable util : float list;
  mutable res : float list;
  mutable refrac : float list;
  mutable fair : float list;
}

let run ?(epochs = 1000) ?(trials = 10) ?(every = 25) outputs params =
  let agg =
    Array.init epochs (fun _ -> { util = []; res = []; refrac = []; fair = [] })
  in
  let run_one policy =
    Array.iter
      (fun a ->
        a.util <- [];
        a.res <- [];
        a.refrac <- [];
        a.fair <- [])
      agg;
    for trial = 1 to trials do
      let rng = Prng.create ~seed:(7000 + trial) in
      let trace = Churn.generate Churn.default_config ~epochs rng in
      let result = Harness.run ~policy ~params trace in
      List.iter
        (fun e ->
          let a = agg.(e.Harness.epoch) in
          a.util <- e.Harness.utilization :: a.util;
          a.res <- float_of_int e.Harness.residents :: a.res;
          (if e.Harness.cache_residents > 0 then
             a.refrac <-
               (float_of_int e.Harness.cache_reallocated
               /. float_of_int e.Harness.cache_residents)
               :: a.refrac);
          a.fair <- e.Harness.fairness :: a.fair)
        result.Harness.epochs
    done
  in
  let stats_rows field =
    List.init epochs (fun i ->
        let xs = field agg.(i) in
        let s = Stats.summarize xs in
        ( i,
          [
            Report.float_cell s.Stats.mean;
            Report.float_cell s.Stats.min;
            Report.float_cell s.Stats.max;
          ] ))
  in
  let emit policy pname =
    run_one policy;
    if outputs.utilization then begin
      Printf.printf "\n- Figure 7a series %s (utilization)\n" pname;
      Report.series ~every ~columns:[ "epoch"; "mean"; "min"; "max" ]
        (stats_rows (fun a -> a.util));
      let tail =
        List.concat (List.init 100 (fun i -> agg.(epochs - 1 - i).util))
      in
      Report.summary
        [ ("plateau utilization (last 100 epochs)", Report.float_cell (Stats.mean tail)) ]
    end;
    if outputs.residents then begin
      Printf.printf "\n- Figure 7b series %s (resident applications)\n" pname;
      Report.series ~every ~columns:[ "epoch"; "mean"; "min"; "max" ]
        (stats_rows (fun a -> a.res))
    end;
    if outputs.reallocation then begin
      Printf.printf "\n- Figure 7c series %s (cache reallocation fraction, EWMA 0.6)\n"
        pname;
      let ewma = Ewma.create ~alpha:0.6 in
      Report.series ~every ~columns:[ "epoch"; "mean"; "ewma" ]
        (List.init epochs (fun i ->
             let m = Stats.mean agg.(i).refrac in
             (i, [ Report.float_cell m; Report.float_cell (Ewma.update ewma m) ])))
    end;
    if outputs.fairness then begin
      Printf.printf "\n- Figure 7d series %s (Jain fairness among caches)\n" pname;
      Report.series ~every ~columns:[ "epoch"; "mean"; "min"; "max" ]
        (stats_rows (fun a -> a.fair));
      let tail =
        List.concat (List.init 100 (fun i -> agg.(epochs - 1 - i).fair))
      in
      Report.summary
        [ ("plateau fairness (last 100 epochs)", Report.float_cell (Stats.mean tail)) ]
    end
  in
  Report.figure ~id:"Figure 7"
    ~title:"online arrivals/departures: utilization, concurrency, reallocation, fairness";
  List.iter (fun (policy, pname) -> emit policy pname) Fig5.policies
