type meta = { src : int; dst : int; flow_key : int array }

let meta ?(flow_key = [||]) ~src ~dst () = { src; dst; flow_key }

type drop_reason =
  | Protection_violation of { stage : int; mar : int }
  | No_allocation of { stage : int }
  | Recirculation_limit
  | Privilege_violation of { stage : int }
  | Explicit_drop

type decision = Forward of int | Return_to_sender | Dropped of drop_reason

type result = {
  decision : decision;
  args_out : int array;
  executed : int;
  passes : int;
  port_recirculations : int;
  pipelines : int;
  quiesced : bool;
  consumed_prefix : int;
  final_mar : int;
  final_mbr : int;
  final_mbr2 : int;
  forks : int;
}

type phv = {
  mutable mar : int;
  mutable mbr : int;
  mutable mbr2 : int;
  mutable hd0 : int;
  mutable hd1 : int;
  mutable complete : bool;
  mutable disabled : Instr.label option;
  mutable rts : bool;
  mutable dst : int;
  mutable dropped : drop_reason option;
}

let mask32 v = v land 0xFFFFFFFF

(* Int-typed, so MIN/MAX compare inline instead of calling the
   polymorphic [Stdlib.min]/[max]. *)
let[@inline] min (a : int) b = if a <= b then a else b
let[@inline] max (a : int) b = if a >= b then a else b

let default_meta = { src = 0; dst = 0; flow_key = [||] }

let pass_through ?(args = [||]) ~quiesced (m : meta) =
  {
    decision = Forward m.dst;
    args_out = Array.copy args;
    executed = 0;
    passes = 1;
    port_recirculations = 0;
    pipelines = 2;
    quiesced;
    consumed_prefix = 0;
    final_mar = 0;
    final_mbr = 0;
    final_mbr2 = 0;
    forks = 0;
  }

type trace_event = {
  tr_pass : int;
  tr_stage : int;
  tr_pc : int;
  tr_instr : Instr.t;
  tr_skipped : bool;
  tr_mar : int;
  tr_mbr : int;
  tr_mbr2 : int;
}

let pp_trace_event fmt e =
  Format.fprintf fmt "pass %d stage %2d  pc %2d  %-24s%s  MAR=%d MBR=%d MBR2=%d"
    e.tr_pass e.tr_stage e.tr_pc
    (Instr.mnemonic e.tr_instr)
    (if e.tr_skipped then " (skipped)" else "")
    e.tr_mar e.tr_mbr e.tr_mbr2

let exec ?on_event tables ~(meta : meta) ~fid ~args ~program =
  let device = Table.device tables in
  let params = Rmt.Device.params device in
  let n_stages = params.Rmt.Params.logical_stages in
  let ingress = params.Rmt.Params.ingress_stages in
  let lines = program.Program.lines in
  let len = Array.length lines in
  let args = Array.copy args in
  (* "Preloading" (Appendix C): MAR/MBR/MBR2 start out holding the first
     three argument fields, so short programs can omit explicit loads and
     reach memory in the very first stage. *)
  let arg_or_zero i = if Array.length args > i then args.(i) else 0 in
  let p =
    {
      mar = arg_or_zero 0;
      mbr = arg_or_zero 1;
      mbr2 = arg_or_zero 2;
      hd0 = 0;
      hd1 = 0;
      complete = false;
      disabled = None;
      rts = false;
      dst = meta.dst;
      dropped = None;
    }
  in
  let executed = ref 0 in
  let port_recircs = ref 0 in
  let forks = ref 0 in
  let last_stage = ref 0 in
  let arg_get a = args.(Instr.arg_index a) in
  let arg_set a v = args.(Instr.arg_index a) <- mask32 v in
  let drop reason =
    p.dropped <- Some reason;
    p.complete <- true;
    Rmt.Device.count_drop device
  in
  let mem_access stage_idx op_of_index =
    match Table.lookup tables ~fid ~stage:stage_idx with
    | None | Some { Table.region = None; _ } ->
      drop (No_allocation { stage = stage_idx })
    | Some { Table.region = Some r; virtual_addressing; _ } ->
      let lo = r.Packet.start_word and n = r.Packet.n_words in
      let index =
        if virtual_addressing then Some (lo + (p.mar mod n))
        else if p.mar >= lo && p.mar < lo + n then Some p.mar
        else None
      in
      (match index with
      | None -> drop (Protection_violation { stage = stage_idx; mar = p.mar })
      | Some index ->
        let stage = Rmt.Device.stage device stage_idx in
        op_of_index stage.Rmt.Device.regs index)
  in
  let execute stage_idx (instr : Instr.t) =
    incr executed;
    match instr with
    | Mbr_load a -> p.mbr <- arg_get a
    | Mbr_store a -> arg_set a p.mbr
    | Mbr2_load a -> p.mbr2 <- arg_get a
    | Mar_load a -> p.mar <- arg_get a
    | Copy_mbr_mbr2 -> p.mbr <- p.mbr2
    | Copy_mbr2_mbr -> p.mbr2 <- p.mbr
    | Copy_mbr_mar -> p.mbr <- p.mar
    | Copy_mar_mbr -> p.mar <- p.mbr
    | Copy_hashdata_mbr -> p.hd0 <- p.mbr
    | Copy_hashdata_mbr2 -> p.hd1 <- p.mbr2
    | Hashdata_load_5tuple ->
      let key = meta.flow_key in
      p.hd0 <- (if Array.length key > 0 then key.(0) else 0);
      p.hd1 <- (if Array.length key > 1 then key.(1) else 0)
    | Mbr_add_mbr2 -> p.mbr <- mask32 (p.mbr + p.mbr2)
    | Mar_add_mbr -> p.mar <- mask32 (p.mar + p.mbr)
    | Mar_add_mbr2 -> p.mar <- mask32 (p.mar + p.mbr2)
    | Mar_mbr_add_mbr2 -> p.mar <- mask32 (p.mbr + p.mbr2)
    | Mbr_subtract_mbr2 -> p.mbr <- mask32 (p.mbr - p.mbr2)
    | Bit_and_mar_mbr -> p.mar <- p.mar land p.mbr
    | Bit_or_mbr_mbr2 -> p.mbr <- p.mbr lor p.mbr2
    | Mbr_equals_mbr2 -> p.mbr <- p.mbr lxor p.mbr2
    | Mbr_equals_data a -> p.mbr <- p.mbr lxor arg_get a
    | Max -> p.mbr <- max p.mbr p.mbr2
    | Min -> p.mbr <- min p.mbr p.mbr2
    | Revmin -> p.mbr2 <- min p.mbr p.mbr2
    | Swap_mbr_mbr2 ->
      let tmp = p.mbr in
      p.mbr <- p.mbr2;
      p.mbr2 <- tmp
    | Mbr_not -> p.mbr <- mask32 (lnot p.mbr)
    | Return -> p.complete <- true
    | Cret -> if p.mbr <> 0 then p.complete <- true
    | Creti -> if p.mbr = 0 then p.complete <- true
    | Cjump l -> if p.mbr <> 0 then p.disabled <- Some l
    | Cjumpi l -> if p.mbr = 0 then p.disabled <- Some l
    | Ujump l -> p.disabled <- Some l
    | Mem_write ->
      mem_access stage_idx (fun regs index ->
          ignore (Rmt.Register_array.access regs ~index (Rmt.Register_array.Write p.mbr)))
    | Mem_read ->
      mem_access stage_idx (fun regs index ->
          let r = Rmt.Register_array.access regs ~index Rmt.Register_array.Read in
          p.mbr <- r.Rmt.Register_array.value)
    | Mem_increment ->
      mem_access stage_idx (fun regs index ->
          let r =
            Rmt.Register_array.access regs ~index (Rmt.Register_array.Add_read 1)
          in
          p.mbr <- r.Rmt.Register_array.value)
    | Mem_minread ->
      mem_access stage_idx (fun regs index ->
          let r =
            Rmt.Register_array.access regs ~index (Rmt.Register_array.Min_read p.mbr)
          in
          p.mbr <- r.Rmt.Register_array.value)
    | Mem_minreadinc ->
      mem_access stage_idx (fun regs index ->
          let r =
            Rmt.Register_array.access regs ~index (Rmt.Register_array.Add_read 1)
          in
          p.mbr <- r.Rmt.Register_array.value;
          p.mbr2 <- min p.mbr p.mbr2)
    | Drop -> drop Explicit_drop
    | Fork ->
      if Table.is_privileged tables ~fid then begin
        incr forks;
        Rmt.Device.count_recirculation device
      end
      else drop (Privilege_violation { stage = stage_idx })
    | Set_dst ->
      if Table.is_privileged tables ~fid then p.dst <- p.mbr
      else drop (Privilege_violation { stage = stage_idx })
    | Rts ->
      p.rts <- true;
      p.dst <- meta.src;
      if stage_idx >= ingress then begin
        incr port_recircs;
        Rmt.Device.count_recirculation device
      end
    | Crts ->
      if p.mbr <> 0 then begin
        p.rts <- true;
        p.dst <- meta.src;
        if stage_idx >= ingress then begin
          incr port_recircs;
          Rmt.Device.count_recirculation device
        end
      end
    | Eof -> p.complete <- true
    | Nop -> ()
    | Addr_mask -> (
      match Table.lookup tables ~fid ~stage:stage_idx with
      | Some e -> p.mar <- p.mar land e.Table.xmask
      | None -> drop (No_allocation { stage = stage_idx }))
    | Addr_offset -> (
      match Table.lookup tables ~fid ~stage:stage_idx with
      | Some e -> p.mar <- mask32 (p.mar + e.Table.xoffset)
      | None -> drop (No_allocation { stage = stage_idx }))
    | Hash ->
      let stage = Rmt.Device.stage device stage_idx in
      p.mar <-
        mask32 (Rmt.Crc.hash_words ~row:stage.Rmt.Device.hash_row [ p.hd0; p.hd1 ])
  in
  let pass_allowance =
    match Table.max_passes_of tables ~fid with
    | Some mp -> min (mp - 1) params.Rmt.Params.recirc_limit
    | None -> params.Rmt.Params.recirc_limit
  in
  let pc = ref 0 in
  let passes = ref 0 in
  let limit_hit = ref false in
  while (not p.complete) && !pc < len && not !limit_hit do
    if !passes > 0 then begin
      if !passes > pass_allowance then begin
        limit_hit := true;
        drop Recirculation_limit
      end
      else Rmt.Device.count_recirculation device
    end;
    if not !limit_hit then begin
      let s = ref 0 in
      while !s < n_stages && (not p.complete) && !pc < len do
        let line = lines.(!pc) in
        let skipped =
          match p.disabled with
          | Some target ->
            if line.Program.label = Some target then begin
              p.disabled <- None;
              last_stage := !s;
              execute !s line.Program.instr;
              false
            end
            else true
          | None ->
            last_stage := !s;
            execute !s line.Program.instr;
            false
        in
        (match on_event with
        | Some f ->
          f
            {
              tr_pass = !passes;
              tr_stage = !s;
              tr_pc = !pc;
              tr_instr = line.Program.instr;
              tr_skipped = skipped;
              tr_mar = p.mar;
              tr_mbr = p.mbr;
              tr_mbr2 = p.mbr2;
            }
        | None -> ());
        incr pc;
        incr s
      done;
      incr passes
    end
  done;
  let passes = max 1 !passes in
  let pipelines =
    let within_ingress = !last_stage < ingress in
    ((passes - 1) * 2) + (if within_ingress then 1 else 2) + (2 * !port_recircs)
  in
  let decision =
    match p.dropped with
    | Some r -> Dropped r
    | None -> if p.rts then Return_to_sender else Forward p.dst
  in
  {
    decision;
    args_out = args;
    executed = !executed;
    passes;
    port_recirculations = !port_recircs;
    pipelines;
    quiesced = false;
    consumed_prefix = !pc;
    final_mar = p.mar;
    final_mbr = p.mbr;
    final_mbr2 = p.mbr2;
    forks = !forks;
  }

let dispatch ?on_event tables ~meta (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Packet.Request _ | Packet.Response _ | Packet.Bare ->
    pass_through ~quiesced:false meta
  | Packet.Exec { args; program } ->
    if Table.is_quiesced tables ~fid:pkt.Packet.fid then
      pass_through ~args ~quiesced:true meta
    else exec ?on_event tables ~meta ~fid:pkt.Packet.fid ~args ~program

let run tables ?(meta = default_meta) pkt = dispatch tables ~meta pkt

let trace tables ?(meta = default_meta) pkt =
  let events = ref [] in
  let on_event e = events := e :: !events in
  let r = dispatch ~on_event tables ~meta pkt in
  (r, List.rev !events)

let latency_us params r =
  params.Rmt.Params.wire_rtt_us
  +. (params.Rmt.Params.pass_latency_us *. float_of_int r.pipelines)
