(* Differential tests for the JIT specialization tier (Activermt.Jit).

   The contract under test (jit.mli): execution through compiled closures
   is *bit-identical* to the interpreter — the same result record, the
   same register-array contents and access counts, the same device
   drop/recirculation counters — across faults (protection, privilege,
   recirculation limits, explicit drops), quiescence, and invalidation
   (reinstall, migration, departure).

   Every check runs a "twin world": two identical device+table pairs, one
   driven by Runtime.run, the other by Jit.run, fed the same packet
   sequence under a meta with a flow key.  Jit.run runs the same fused
   drivers as production (the straight chain of a jump-free program, the
   block loop of one with jumps), so the whole result record —
   executed-instruction count, passes, consumed prefix, final registers —
   is checked against the interpreter's.  Comparing full post-run device
   state (not just results) catches a specialized closure that computes
   the right answer with the wrong side effects.  A second pair checks
   Jit.run_into, the entry point the fabric executes every capsule
   through, traced or not, against Runtime.run under the fabric's meta
   (which has no flow key): the same decision, destination, pipeline
   count, executed-instruction count, passes and device state, and the
   capsule's own args rewritten to the interpreter's output args.  For
   a FID without tables run_into must answer false and execute nothing,
   as a switch forwards such a capsule untouched.  Each side runs its
   own copy of a packet, since run_into writes the one it is given.  A
   call that moves neither the JIT's hit count nor its compile count ran
   in the interpreter. *)

module I = Activermt.Instr
module P = Activermt.Program
module Pkt = Activermt.Packet
module Tbl = Activermt.Table
module RT = Activermt.Runtime
module Jit = Activermt.Jit
module Controller = Activermt_control.Controller
module Negotiate = Activermt_client.Negotiate
module Cache_client = Activermt_client.Cache_client
module Hh_client = Activermt_client.Hh_client
module Lb_client = Activermt_client.Lb_client
module Mutant = Activermt_compiler.Mutant
module Kv = Workload.Kv

let params = Rmt.Params.default

let regions_with assoc =
  let r = Array.make 20 None in
  List.iter
    (fun (s, start_word, n_words) -> r.(s) <- Some { Pkt.start_word; n_words })
    assoc;
  r

(* -- Twin worlds ---------------------------------------------------------- *)

type twin = {
  it : Tbl.t;  (** Runtime.run under [meta] *)
  jt : Tbl.t;  (** Jit.run under [meta] *)
  jit : Jit.t;
  ft : Tbl.t;  (** Runtime.run under [fabric_meta] *)
  ot : Tbl.t;  (** Jit.run_into, as the fabric calls it *)
  ojit : Jit.t;
  o : Jit.outcome;
}

let twin ?(params = params) ?privileged ?max_passes ?(virtual_addressing = true)
    ?(stages = [ (0, 0, 256); (5, 256, 256); (13, 0, 512) ]) () =
  let mk () =
    let t = Tbl.create (Rmt.Device.create params) in
    (match
       Tbl.install ?privileged ?max_passes t ~fid:1 ~virtual_addressing
         ~regions:(regions_with stages)
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "twin install");
    t
  in
  let it = mk () in
  let jt = mk () in
  let ft = mk () in
  let ot = mk () in
  { it; jt; jit = Jit.create jt; ft; ot; ojit = Jit.create ot; o = Jit.outcome () }

let meta = RT.meta ~flow_key:[| 0xBEEF; 0xCAFE |] ~src:100 ~dst:200 ()
let fabric_meta = RT.meta ~src:meta.RT.src ~dst:meta.RT.dst ()

(* Full observable device state: register contents and access counts for
   every stage, plus the drop/recirculation counters.  Compared in place:
   a copy of every register file costs more than the executions.  Equal
   access counts also keep [Register_array]'s known-zero mark honest: a
   write closure that skips the count leaves a written array taken for
   all zeros. *)
let same_state a b =
  let da = Tbl.device a and db = Tbl.device b in
  let same_stage (sa : Rmt.Device.stage) (sb : Rmt.Device.stage) =
    let ra = sa.Rmt.Device.regs and rb = sb.Rmt.Device.regs in
    ra.Rmt.Register_array.data = rb.Rmt.Register_array.data
    && Rmt.Register_array.access_count ra = Rmt.Register_array.access_count rb
  in
  Array.for_all2 same_stage (Rmt.Device.stages da) (Rmt.Device.stages db)
  && Rmt.Device.drops da = Rmt.Device.drops db
  && Rmt.Device.recirculations da = Rmt.Device.recirculations db

(* A copy of [pkt] with its own args, as a capsule fresh off the wire
   has: the packet [Jit.run_into] may rewrite. *)
let capsule (pkt : Pkt.t) =
  match pkt.Pkt.payload with
  | Pkt.Exec e -> { pkt with Pkt.payload = Pkt.Exec { e with args = Array.copy e.args } }
  | Pkt.Request _ | Pkt.Response _ | Pkt.Bare -> pkt

let capsule_args (pkt : Pkt.t) =
  match pkt.Pkt.payload with
  | Pkt.Exec { args; _ } -> args
  | Pkt.Request _ | Pkt.Response _ | Pkt.Bare -> [||]

(* Whether [Jit.run_into] on [capsule] wrote what [Runtime.run] returned:
   the decision (with the forward destination), the RTS destination, the
   pipeline, instruction and pass counts, and the output args in the
   capsule's own args. *)
let outcome_matches ~src (r : RT.result) (o : Jit.outcome) capsule =
  let decision =
    match o.Jit.dropped with
    | Some why -> RT.Dropped why
    | None -> if o.Jit.rts then RT.Return_to_sender else RT.Forward o.Jit.dst
  in
  decision = r.RT.decision
  && ((not o.Jit.rts) || o.Jit.dst = src)
  && o.Jit.pipelines = r.RT.pipelines
  && o.Jit.executed = r.RT.executed
  && o.Jit.passes = r.RT.passes
  && capsule_args capsule = r.RT.args_out

(* Run [pkt] through the fabric pair as a switch does: [Jit.run_into] on
   [ot], on a copy of its own, and, when the FID has tables, the
   interpreter on [ft].  Returns run_into's answer, and whether it is
   [Tbl.installed]'s and the two sides agree; without tables the capsule
   must come back untouched. *)
let into_run ~ojit ~o ~ft pkt =
  let c = capsule pkt in
  let ran = Jit.run_into ojit o ~src:fabric_meta.RT.src ~dst:fabric_meta.RT.dst c in
  let agree =
    ran = Tbl.installed ft ~fid:pkt.Pkt.fid
    &&
    if ran then
      outcome_matches ~src:fabric_meta.RT.src (RT.run ft ~meta:fabric_meta pkt) o c
    else capsule_args c = capsule_args pkt
  in
  (ran, agree)

let into_matches ~ojit ~o ~ft pkt = snd (into_run ~ojit ~o ~ft pkt)

let into_identical w pkt =
  into_matches ~ojit:w.ojit ~o:w.o ~ft:w.ft pkt && same_state w.ft w.ot

(* [Jit.run jit ~meta pkt], and whether it ran in the interpreter. *)
let run_interpreted jit pkt =
  let hits, _, compiles, _ = Jit.stats jit in
  let r = Jit.run jit ~meta pkt in
  let hits', _, compiles', _ = Jit.stats jit in
  (r, hits' = hits && compiles' = compiles)

let exec_both w pkt =
  let ri = RT.run w.it ~meta pkt in
  let rj, interpreted = run_interpreted w.jit pkt in
  (ri, rj, interpreted)

(* Structural comparison covers the whole result record (args_out arrays,
   drop reasons, counts). *)
let identical w pkt =
  let ri, rj, _ = exec_both w pkt in
  ri = rj && same_state w.it w.jt && into_identical w pkt

let check_identical msg w pkt =
  let ri, rj, _ = exec_both w pkt in
  Alcotest.(check bool) (msg ^ ": result") true (ri = rj);
  Alcotest.(check bool) (msg ^ ": device state") true (same_state w.it w.jt);
  Alcotest.(check bool)
    (msg ^ ": run_into outcome")
    true
    (into_matches ~ojit:w.ojit ~o:w.o ~ft:w.ft pkt);
  Alcotest.(check bool) (msg ^ ": run_into device state") true (same_state w.ft w.ot);
  ri

let exec_pkt ?(seq = 0) ?(args = [| 0; 0; 0; 0 |]) instrs =
  Pkt.exec ~flags:Pkt.no_flags ~fid:1 ~seq ~args (P.v (P.plain instrs))

(* -- Directed: real applications ------------------------------------------ *)

(* The synthesized cache / heavy-hitter / Cheetah-LB programs are what the
   JIT's fused superinstructions actually target, so their packets run
   through both engines: cache queries and populates, heavy-hitter
   monitoring, and LB SYNs and flow packets.  The LB is privileged, as
   an operator deploys it, so its programs run past SET_DST to the end.
   Admission goes through the controller so the JIT specializes against
   a real granted allocation. *)
type tenants = {
  tables : Tbl.t;
  cache : Cache_client.t;
  hh : Hh_client.t;
  lb : Lb_client.t;
}

let setup_tenants () =
  let device = Rmt.Device.create params in
  let controller = Controller.create device in
  let admit ~fid service =
    let request = Negotiate.request_packet ~fid ~seq:0 service in
    match Controller.handle_request controller request with
    | Ok provision ->
      Option.get (Negotiate.granted_regions provision.Controller.response)
    | Error _ -> Alcotest.fail "tenant admission failed on an empty switch"
  in
  let client = function Ok c -> c | Error e -> Alcotest.fail e in
  let policy = Mutant.Most_constrained in
  let cache_regions = admit ~fid:1 Activermt_apps.Cache.service in
  let hh_regions = admit ~fid:2 Activermt_apps.Heavy_hitter.service in
  Controller.grant_privilege controller ~fid:3;
  let lb_regions = admit ~fid:3 Activermt_apps.Cheetah_lb.service in
  {
    tables = Controller.tables controller;
    cache =
      client (Cache_client.create params ~policy ~fid:1 ~regions:cache_regions);
    hh = client (Hh_client.create params ~policy ~fid:2 ~regions:hh_regions);
    lb = client (Lb_client.create params ~policy ~fid:3 ~regions:lb_regions);
  }

let app_pool t =
  Array.init 64 (fun i ->
      match i mod 4 with
      | 0 ->
        let key = Kv.key_of_rank (32 * ((i lsr 3) land 1)) in
        if i mod 40 = 0 then
          Cache_client.populate_packet t.cache ~seq:i key ~value:(i * 7)
        else Cache_client.query_packet t.cache ~seq:i key
      | 1 | 2 -> Hh_client.monitor_packet t.hh ~seq:i (Kv.key_of_rank (i mod 64))
      | _ ->
        if i land 4 = 0 then Lb_client.syn_packet t.lb ~seq:i ~salt:i
        else Lb_client.flow_packet t.lb ~seq:i ~salt:i ~cookie:(i * 40503))

let test_real_apps_identical () =
  let ti = setup_tenants () in
  let tj = setup_tenants () in
  let tf = setup_tenants () in
  let tout = setup_tenants () in
  let jit = Jit.create tj.tables in
  let ojit = Jit.create tout.tables in
  let o = Jit.outcome () in
  let ipool = app_pool ti in
  let jpool = app_pool tj in
  let fpool = app_pool tf in
  let lb_delivered = ref 0 in
  (* Three rounds: round 1 compiles (cache misses, cold sketches), later
     rounds serve from the closure cache with warm register state. *)
  for round = 1 to 3 do
    Array.iteri
      (fun k ipkt ->
        let ri = RT.run ti.tables ~meta ipkt in
        let rj = Jit.run jit ~meta jpool.(k) in
        if not (ri = rj) then
          Alcotest.failf "round %d packet %d diverged" round k;
        (match ri.RT.decision with
        | RT.Dropped _ -> ()
        | _ -> if k mod 4 = 3 then incr lb_delivered);
        if not (into_matches ~ojit ~o ~ft:tf.tables fpool.(k)) then
          Alcotest.failf "round %d packet %d: run_into diverged" round k)
      ipool;
    Alcotest.(check bool)
      (Printf.sprintf "round %d device state" round)
      true
      (same_state ti.tables tj.tables);
    Alcotest.(check bool)
      (Printf.sprintf "round %d run_into device state" round)
      true
      (same_state tf.tables tout.tables)
  done;
  Alcotest.(check bool) "the privileged LB's capsules are not dropped" true
    (!lb_delivered > 0);
  let hits, misses, compiles, _ = Jit.stats jit in
  Alcotest.(check bool) "specialized at least once" true (compiles > 0);
  Alcotest.(check bool) "misses only on first sight" true (misses = compiles);
  Alcotest.(check bool) "later rounds hit the cache" true (hits >= 2 * 64);
  Alcotest.(check bool) "run_into counts as run does" true
    (Jit.stats ojit = Jit.stats jit)

(* -- Directed: control flow, recirculation, faults ------------------------ *)

let test_branches_identical () =
  let w = twin () in
  let nops = String.concat "" (List.init 24 (fun _ -> "NOP\n")) in
  (* One pass, and a jump across the pass boundary. *)
  List.iter
    (fun src ->
      let program =
        match P.parse src with Ok p -> p | Error e -> Alcotest.fail e
      in
      let run args seq =
        ignore
          (check_identical "branchy program" w
             (Pkt.exec ~flags:Pkt.no_flags ~fid:1 ~seq ~args program))
      in
      (* Taken and not-taken, through both the fresh-compile and cached
         path. *)
      run [| 0; 1; 0; 0 |] 0;
      run [| 0; 0; 0; 0 |] 1;
      run [| 0; 1; 0; 0 |] 2)
    [
      "MBR_LOAD 1\nCJUMP L1\nMBR_LOAD 3\nL1: RETURN\n";
      "MBR_LOAD 1\nCJUMP L1\n" ^ nops ^ "L1: RETURN\n";
    ]

let test_recirculation_identical () =
  let w = twin () in
  let two_pass = List.init 24 (fun _ -> I.Nop) @ [ I.Return ] in
  let r = check_identical "two passes" w (exec_pkt two_pass) in
  Alcotest.(check int) "recirculated" 2 r.RT.passes

let test_pass_allowance_identical () =
  let w = twin ~max_passes:2 () in
  let three_pass = List.init 45 (fun _ -> I.Nop) @ [ I.Return ] in
  let r = check_identical "pass allowance" w (exec_pkt three_pass) in
  match r.RT.decision with
  | RT.Dropped RT.Recirculation_limit -> ()
  | _ -> Alcotest.fail "expected recirculation-limit drop in both engines"

let test_device_recirc_limit_identical () =
  let small = { params with Rmt.Params.recirc_limit = 1 } in
  let w = twin ~params:small () in
  let long = List.init 70 (fun _ -> I.Nop) @ [ I.Return ] in
  let r = check_identical "device recirc limit" w (exec_pkt long) in
  match r.RT.decision with
  | RT.Dropped RT.Recirculation_limit -> ()
  | _ -> Alcotest.fail "expected device-limit drop in both engines"

let test_fault_drops_identical () =
  (* Protection violation: physical addressing outside the granted range. *)
  let w = twin ~virtual_addressing:false ~stages:[ (0, 512, 256) ] () in
  let r =
    check_identical "protection" w
      (exec_pkt ~args:[| 100; 0; 0; 0 |] [ I.Mem_read; I.Return ])
  in
  (match r.RT.decision with
  | RT.Dropped (RT.Protection_violation _) -> ()
  | _ -> Alcotest.fail "expected protection drop");
  (* No allocation at the accessed stage. *)
  let w = twin ~stages:[ (13, 0, 256) ] () in
  let r = check_identical "no allocation" w (exec_pkt [ I.Mem_read; I.Return ]) in
  (match r.RT.decision with
  | RT.Dropped (RT.No_allocation _) -> ()
  | _ -> Alcotest.fail "expected no-allocation drop");
  (* Privilege: FORK without the privilege bit, then with it. *)
  let w = twin () in
  let r = check_identical "privilege" w (exec_pkt [ I.Fork; I.Return ]) in
  (match r.RT.decision with
  | RT.Dropped (RT.Privilege_violation _) -> ()
  | _ -> Alcotest.fail "expected privilege drop");
  let w = twin ~privileged:true () in
  let r = check_identical "privileged fork" w (exec_pkt [ I.Fork; I.Return ]) in
  Alcotest.(check int) "fork executed in both" 1 r.RT.forks;
  (* Explicit drop. *)
  let w = twin () in
  let r = check_identical "explicit drop" w (exec_pkt [ I.Drop ]) in
  match r.RT.decision with
  | RT.Dropped RT.Explicit_drop -> ()
  | _ -> Alcotest.fail "expected explicit drop"

(* -- Directed: 32-bit register words --------------------------------------- *)

(* Register words at the 32-bit boundaries, through every memory op the
   JIT inlines: stores of a value >= 2^31 and of one >= 2^32 (which
   truncates), an increment that wraps at 2^32, and reads back through
   MEM_READ, MEM_MINREAD and MEM_MINREADINC.  Each read feeds a signed
   comparison (MAX, or the min inside MEM_MINREAD), so a load that
   sign-extends changes the output args and not just MBR.  Random
   programs draw args below 2^16 and rarely store such words.  Every
   access sits at stage 2, so each capsule sees the word the last one
   left; [expect] is the arg 2 each capsule returns. *)
let test_boundary_words ~virtual_addressing ~region ~addr () =
  let w = twin ~virtual_addressing ~stages:[ region ] () in
  let store_mbr = [ I.Mar_load I.A0; I.Mbr_load I.A1; I.Mem_write; I.Return ] in
  let store_mar = [ I.Mbr_load I.A1; I.Mar_load I.A0; I.Mem_write; I.Return ] in
  let read_max =
    [ I.Mar_load I.A0; I.Mbr2_load I.A3; I.Mem_read; I.Max; I.Mbr_store I.A2; I.Return ]
  in
  let minread =
    [ I.Mar_load I.A0; I.Mbr_load I.A3; I.Mem_minread; I.Mbr_store I.A2; I.Return ]
  in
  let incr = [ I.Mar_load I.A0; I.Nop; I.Mem_increment; I.Mbr_store I.A2; I.Return ] in
  let minreadinc =
    [
      I.Mar_load I.A0; I.Mbr2_load I.A3; I.Mem_minreadinc; I.Copy_mbr_mbr2;
      I.Mbr_store I.A2; I.Return;
    ]
  in
  let steps =
    [
      ("store 2^32-1", store_mbr, 0xFFFF_FFFF, 0, 0);
      ("read 2^32-1", read_max, 0, 1, 0xFFFF_FFFF);
      ("minread 2^32-1", minread, 0, (1 lsl 32) + 5, 5);
      ("increment wraps", incr, 0, 0, 0);
      ("store above 2^32", store_mar, (1 lsl 32) + (1 lsl 31) + 5, 0, 0);
      ("read 2^31+5", read_max, 0, 1, (1 lsl 31) + 5);
      ("minreadinc 2^31+5", minreadinc, 0, 0xFFFF_FFFF, (1 lsl 31) + 6);
      ("minread 2^31+6", minread, 0, (1 lsl 31) - 1, (1 lsl 31) - 1);
    ]
  in
  List.iteri
    (fun seq (msg, instrs, a1, a3, expect) ->
      let r = check_identical msg w (exec_pkt ~seq ~args:[| addr; a1; 0; a3 |] instrs) in
      Alcotest.(check int) (msg ^ ": arg 2") expect r.RT.args_out.(2))
    steps

(* -- Directed: quiescence and invalidation -------------------------------- *)

(* [Jit.run_into]'s answer for [pkt] on [w]'s fabric pair must be
   [expect], whether FID 1 has tables, and its outcome and device state
   the interpreter's. *)
let check_answer msg w pkt expect =
  let ran, agree = into_run ~ojit:w.ojit ~o:w.o ~ft:w.ft pkt in
  Alcotest.(check bool) (msg ^ ": run_into's answer") expect ran;
  Alcotest.(check bool) (msg ^ ": run_into as the interpreter") true
    (agree && same_state w.ft w.ot)

let test_quiescence_identical () =
  let w = twin () in
  let incr = exec_pkt ~args:[| 9; 0; 0; 0 |] [ I.Mem_increment; I.Return ] in
  ignore (check_identical "before quiesce" w incr);
  check_answer "compiled" w incr true;
  let _, _, compiles0, _ = Jit.stats w.jit in
  Tbl.quiesce w.it ~fid:1;
  Tbl.quiesce w.jt ~fid:1;
  Alcotest.(check bool) "quiesced FID not specialized" false
    (Jit.would_specialize w.jit incr);
  Tbl.quiesce w.ft ~fid:1;
  Tbl.quiesce w.ot ~fid:1;
  check_answer "quiesced" w incr true;
  let _, rj, interpreted = exec_both w incr in
  Alcotest.(check bool) "passes through unprocessed" true rj.RT.quiesced;
  Alcotest.(check bool) "interpreter fallback while quiesced" true interpreted;
  Alcotest.(check bool) "run_into passes through too" true (into_identical w incr);
  Tbl.unquiesce w.it ~fid:1;
  Tbl.unquiesce w.jt ~fid:1;
  Tbl.unquiesce w.ft ~fid:1;
  Tbl.unquiesce w.ot ~fid:1;
  (* Quiescence transitions bump the allocation epoch, so the cached
     closure from before the quiesce window is stale: the next packet
     recompiles rather than reusing it. *)
  check_answer "unquiesced" w incr true;
  let r = check_identical "after unquiesce" w incr in
  Alcotest.(check int) "register survived the window" 2 r.RT.final_mbr;
  let _, _, compiles1, _ = Jit.stats w.jit in
  Alcotest.(check bool) "recompiled after epoch bump" true (compiles1 > compiles0)

let test_reinstall_invalidates () =
  let w = twin ~stages:[ (0, 0, 256) ] () in
  let incr = exec_pkt ~args:[| 5; 0; 0; 0 |] [ I.Mem_increment; I.Return ] in
  ignore (check_identical "initial allocation" w incr);
  check_answer "initial allocation" w incr true;
  (* Reallocation: remove + reinstall with a different region, as the
     controller does for elastic reallocation or migration repopulate.
     The stale closure bakes the old bounds; the epoch key must prevent
     its reuse. *)
  let reinstall t =
    Tbl.remove t ~fid:1;
    match
      Tbl.install t ~fid:1 ~virtual_addressing:true
        ~regions:(regions_with [ (0, 512, 128); (5, 0, 64) ])
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "reinstall"
  in
  List.iter reinstall [ w.it; w.jt; w.ft; w.ot ];
  check_answer "reinstalled" w incr true;
  let _, _, compiles0, _ = Jit.stats w.jit in
  ignore (check_identical "after reallocation" w incr);
  let _, _, compiles1, _ = Jit.stats w.jit in
  Alcotest.(check bool) "recompiled against the new allocation" true
    (compiles1 > compiles0)

let test_departure_invalidation () =
  let w = twin () in
  ignore (check_identical "resident" w (exec_pkt [ I.Return ]));
  Alcotest.(check bool) "closure cached" true (Jit.cache_size w.jit > 0);
  check_answer "resident" w (exec_pkt [ I.Return ]) true;
  (* Departure / migration source path (what Fabric and Fleet.migrate do):
     remove the tables, then evict the dead closures. *)
  List.iter (fun t -> Tbl.remove t ~fid:1) [ w.it; w.jt; w.ft; w.ot ];
  check_answer "removed, not yet invalidated" w (exec_pkt [ I.Return ]) false;
  Jit.invalidate w.jit ~fid:1;
  Jit.invalidate w.ojit ~fid:1;
  check_answer "invalidated" w (exec_pkt [ I.Return ]) false;
  Alcotest.(check int) "cache emptied" 0 (Jit.cache_size w.jit);
  Alcotest.(check bool) "departed FID not specialized" false
    (Jit.would_specialize w.jit (exec_pkt [ I.Return ]));
  (* Uninstalled on both sides: still identical (interpreter fallback). *)
  ignore (check_identical "after departure" w (exec_pkt [ I.Return ]))

let test_disabled_jit () =
  let w = twin () in
  let jit = Jit.create ~enabled:false w.jt in
  let pkt = exec_pkt ~args:[| 3; 0; 0; 0 |] [ I.Mem_increment; I.Return ] in
  Alcotest.(check bool) "disabled jit never specializes" false
    (Jit.would_specialize jit pkt);
  let ri = RT.run w.it ~meta pkt in
  let rj, interpreted = run_interpreted jit pkt in
  Alcotest.(check bool) "interpreted" true interpreted;
  Alcotest.(check bool) "same result" true (ri = rj);
  let ojit = Jit.create ~enabled:false w.ot in
  Alcotest.(check bool) "run_into falls back to the interpreter" true
    (into_matches ~ojit ~o:w.o ~ft:w.ft pkt && same_state w.ft w.ot);
  List.iter
    (fun jit ->
      let hits, misses, compiles, _ = Jit.stats jit in
      Alcotest.(check (list int)) "no cache activity" [ 0; 0; 0 ]
        [ hits; misses; compiles ])
    [ jit; ojit ]

let test_non_exec_passthrough () =
  let w = twin () in
  let pkt = { Pkt.fid = 1; seq = 0; flags = Pkt.no_flags; payload = Pkt.Bare } in
  let ri = RT.run w.it ~meta pkt in
  let rj, interpreted = run_interpreted w.jit pkt in
  Alcotest.(check bool) "bare packets interpreted" true interpreted;
  Alcotest.(check bool) "same result" true (ri = rj)

(* -- Properties ----------------------------------------------------------- *)

let instr_gen =
  (* Label-free pool, as in test_core: random label placement rarely
     validates; branch handling is covered by the directed test. *)
  let pool =
    List.filter (fun i -> I.branch_target i = None && i <> I.Eof) I.all_opcodes
  in
  QCheck.Gen.oneofl pool

(* The core property: on arbitrary label-free programs — which freely hit
   protection faults, privilege drops, recirculation and hash/memory ops —
   the JIT's result and device side effects equal the
   interpreter's, on both the fresh-compile and the cached path. *)
let prop_jit_matches_interpreter =
  QCheck.Test.make ~name:"jit = interpreter on random programs" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (pair
              (list_size (int_range 1 50) instr_gen)
              bool)
           (pair
              (array_size (return 4) (int_range 0 0xFFFF))
              (array_size (return 4) (int_range 0 0xFFFF)))))
    (fun ((instrs, privileged), (args1, args2)) ->
      let w = twin ~privileged () in
      let p = P.v (P.plain instrs) in
      identical w (Pkt.exec ~flags:Pkt.no_flags ~fid:1 ~seq:0 ~args:args1 p)
      && identical w (Pkt.exec ~flags:Pkt.no_flags ~fid:1 ~seq:1 ~args:args2 p))

(* Invalidation safety: after a random reallocation the JIT may never
   serve the closure specialized against the old bounds. *)
let prop_reinstall_safe =
  QCheck.Test.make ~name:"jit matches interpreter across reallocation" ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 30) instr_gen)
           (pair (int_range 0 19) (int_range 0 3))))
    (fun (instrs, (stage, size_sel)) ->
      let w = twin () in
      let p = P.v (P.plain instrs) in
      let ok1 =
        identical w (Pkt.exec ~flags:Pkt.no_flags ~fid:1 ~seq:0 ~args:[| 7; 1; 2; 3 |] p)
      in
      let n_words = 32 lsl size_sel in
      let reinstall t =
        Tbl.remove t ~fid:1;
        Result.is_ok
          (Tbl.install t ~fid:1 ~virtual_addressing:true
             ~regions:(regions_with [ (stage, 0, n_words) ]))
      in
      let a = reinstall w.it in
      let b = reinstall w.jt in
      let c = reinstall w.ft in
      let d = reinstall w.ot in
      a = b && b = c && c = d
      && ok1
      && identical w
           (Pkt.exec ~flags:Pkt.no_flags ~fid:1 ~seq:1 ~args:[| 7; 1; 2; 3 |] p))

(* The fabric's contract (jit.mli): [Jit.run_into] executes a capsule on
   its own args and leaves in them, and in the outcome, what
   [Runtime.run] returns.  Each step runs [Jit.run_into] on one copy of a
   packet and [Runtime.run] on another, on twin switches, over what a
   fabric sees: cache queries and populates alternating on one FID (one
   of the two programs sits past the head of the FID's list), heavy-
   hitter monitoring, the privileged LB's SYN and flow packets, a DROP,
   an unprivileged SET_DST, a quiesced FID (an interpreter fallback) and
   an uninstalled FID (which executes nothing). *)
let drop_program = P.v (P.plain [ I.Mbr_load I.A2; I.Drop ])
let set_dst_program = P.v (P.plain [ I.Mbr_load I.A0; I.Set_dst; I.Return ])

let prop_run_into_rewrites_capsule =
  QCheck.Test.make ~name:"run_into leaves Runtime.run's args in the capsule" ~count:60
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 40)
           (triple (int_range 0 8) (int_range 0 3) (int_range 0 0xFFFF))))
    (fun steps ->
      let ti = setup_tenants () and tout = setup_tenants () in
      let ojit = Jit.create tout.tables in
      let o = Jit.outcome () in
      let both f =
        f ti.tables;
        f tout.tables
      in
      let step seq (kind, k, v) =
        let key = Kv.key_of_rank k in
        let pkt =
          match kind with
          | 1 -> Cache_client.populate_packet ti.cache ~seq key ~value:v
          | 2 -> Hh_client.monitor_packet ti.hh ~seq key
          | 3 -> Lb_client.syn_packet ti.lb ~seq ~salt:v
          | 4 -> Lb_client.flow_packet ti.lb ~seq ~salt:k ~cookie:v
          | 5 ->
            Pkt.exec ~flags:Pkt.no_flags ~fid:2 ~seq ~args:[| k; v; v; 0 |] drop_program
          | 6 ->
            Pkt.exec ~flags:Pkt.no_flags ~fid:1 ~seq ~args:[| v; k; 0; 0 |]
              set_dst_program
          | _ (* 0; 7 quiesced; 8 uninstalled *) ->
            Cache_client.query_packet ti.cache ~seq key
        in
        let pkt = if kind = 8 then { pkt with Pkt.fid = 9 } else pkt in
        if kind = 7 then both (fun t -> Tbl.quiesce t ~fid:1);
        let ok = into_matches ~ojit ~o ~ft:ti.tables pkt in
        if kind = 7 then both (fun t -> Tbl.unquiesce t ~fid:1);
        ok
      in
      List.for_all Fun.id (List.mapi step steps) && same_state ti.tables tout.tables)

(* The slicing-by-8 fast hash must agree with the byte-at-a-time CRC
   family everywhere — the JIT's hash superinstructions rely on it. *)
let prop_hash_words2 =
  QCheck.Test.make ~name:"hash_words2 = hash_words" ~count:2000
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 0 63)
           (int_range 0 0xFFFFFFFF)
           (int_range 0 0xFFFFFFFF)))
    (fun (row, w0, w1) ->
      Rmt.Crc.hash_words2 ~row w0 w1 = Rmt.Crc.hash_words ~row [ w0; w1 ])

let () =
  Alcotest.run "jit"
    [
      ( "apps",
        [
          Alcotest.test_case "real app mix is bit-identical" `Quick
            test_real_apps_identical;
        ] );
      ( "execution",
        [
          Alcotest.test_case "branches" `Quick test_branches_identical;
          Alcotest.test_case "recirculation" `Quick test_recirculation_identical;
          Alcotest.test_case "per-FID pass allowance" `Quick
            test_pass_allowance_identical;
          Alcotest.test_case "device recirc limit" `Quick
            test_device_recirc_limit_identical;
          Alcotest.test_case "fault drops" `Quick test_fault_drops_identical;
          Alcotest.test_case "32-bit words, virtual" `Quick
            (test_boundary_words ~virtual_addressing:true ~region:(2, 256, 256)
               ~addr:(256 + 7));
          Alcotest.test_case "32-bit words, physical" `Quick
            (test_boundary_words ~virtual_addressing:false ~region:(2, 512, 256)
               ~addr:600);
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "quiescence" `Quick test_quiescence_identical;
          Alcotest.test_case "reallocation invalidates" `Quick
            test_reinstall_invalidates;
          Alcotest.test_case "departure invalidation" `Quick
            test_departure_invalidation;
          Alcotest.test_case "disabled jit (--no-jit)" `Quick test_disabled_jit;
          Alcotest.test_case "non-exec passthrough" `Quick
            test_non_exec_passthrough;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_jit_matches_interpreter;
          QCheck_alcotest.to_alcotest prop_reinstall_safe;
          QCheck_alcotest.to_alcotest prop_run_into_rewrites_capsule;
          QCheck_alcotest.to_alcotest prop_hash_words2;
        ] );
    ]
