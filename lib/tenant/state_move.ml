open Import

type state = (int * int array) list
type faults = now:float -> int
type tally = data_plane:int -> fallback:int -> unit

(* Run a memsync driver to completion directly against the switch's
   tables; true when every index was acknowledged.  Without faults one
   [start] pass answers every index.  With faults the driver's
   timeout/retry loop recovers under a synthetic clock, bounded by its
   per-index attempt budget plus a round cap. *)
let run jit ~faults driver =
  let exec ~seq pkt =
    let meta = Runtime.meta ~src:1 ~dst:0 () in
    let r = Jit.run jit ~meta pkt in
    match r.Runtime.decision with
    | Runtime.Return_to_sender ->
      ignore (Memsync_driver.on_reply driver ~seq ~args:r.Runtime.args_out)
    | Runtime.Forward _ | Runtime.Dropped _ -> ()
  in
  (match faults with
  | None -> Memsync_driver.start driver ~now:0.0 ~send:exec
  | Some copies ->
    let clock = ref 0.0 in
    let send ~seq pkt =
      for _ = 1 to copies ~now:!clock do
        exec ~seq pkt
      done
    in
    Memsync_driver.start driver ~now:!clock ~send;
    let rounds = ref 0 in
    let stalled = ref false in
    while (not (Memsync_driver.is_done driver)) && (not !stalled) && !rounds < 64
    do
      incr rounds;
      clock := !clock +. 2.0;
      if Memsync_driver.tick driver ~now:!clock ~send = 0 then
        (* Every unacked index is out of retry budget. *)
        stalled := Memsync_driver.outstanding driver > 0
    done);
  Memsync_driver.is_done driver

(* One region's data-plane run; the indices that never got through. *)
let sync jit ~faults ~(tally : tally) ~fid ~stage ~words op =
  let max_attempts = match faults with None -> 0 | Some _ -> 16 in
  let driver =
    Memsync_driver.create ~max_attempts ~fid ~stages:[ stage ] ~count:words
      ~timeout_s:1.0 op
  in
  let survivors =
    if run jit ~faults driver then [] else Memsync_driver.unacked driver
  in
  let lost = List.length survivors in
  tally ~data_plane:(words - lost) ~fallback:lost;
  (driver, survivors)

let regions ctrl ~fid =
  let wpb = Rmt.Params.words_per_block (Rmt.Device.params (Controller.device ctrl)) in
  match Allocator.regions_of (Controller.allocator ctrl) ~fid with
  | None -> []
  | Some regions ->
    List.map (fun { Allocator.stage; range } -> (stage, range.Pool.n_blocks * wpb)) regions

let extract ctrl jit ~faults ~word_budget ~tally ~data_plane ~fid =
  List.map
    (fun (stage, n_words) ->
      let control_plane () =
        match Controller.read_region ctrl ~fid ~stage with
        | Some words -> words
        | None -> Array.make n_words 0
      in
      if data_plane && n_words <= word_budget then begin
        let driver, survivors =
          sync jit ~faults ~tally ~fid ~stage ~words:n_words Memsync_driver.Read
        in
        let words = (Memsync_driver.values driver).(0) in
        if survivors <> [] then begin
          let cp = control_plane () in
          List.iter (fun i -> if i < Array.length cp then words.(i) <- cp.(i)) survivors
        end;
        (stage, words)
      end
      else (stage, control_plane ()))
    (regions ctrl ~fid)

let inject ctrl jit ~faults ~word_budget ~tally ~fid state =
  List.iteri
    (fun k (stage, n_words) ->
      match List.nth_opt state k with
      | None -> ()
      | Some (_src_stage, words) ->
        let n = min n_words (Array.length words) in
        let write i =
          ignore (Controller.write_region_word ctrl ~fid ~stage ~index:i ~value:words.(i))
        in
        if n > 0 && n <= word_budget then begin
          let _, survivors =
            sync jit ~faults ~tally ~fid ~stage ~words:n
              (Memsync_driver.Write (fun i -> [ words.(i) ]))
          in
          List.iter write survivors
        end
        else
          for i = 0 to n - 1 do
            write i
          done)
    (regions ctrl ~fid)
