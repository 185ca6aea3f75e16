(* Specialization tier for the data plane.

   When a FID's program is admitted, its 20-stage trace is compiled into a
   chain of OCaml closures: one specialized closure per instruction slot,
   fused into straight-line blocks wherever control cannot escape, with
   NOP slots (mutant shifts synthesize leading NOPs) elided entirely.  All
   per-packet table work the interpreter does — [Table.lookup] on every
   memory access, [is_privileged] on FORK/SET_DST, [max_passes_of] for the
   recirculation allowance, [Device.stage] bounds checks, the instruction
   match dispatch — is resolved once at compile time against the granted
   allocation.  Branches survive only at the data-dependent points: the
   complete/disabled flags and the per-pass recirculation check.

   Two further compile-time simplifications ride on the fused blocks:

   - Every slot of a block executes unconditionally once the block is
     entered, so the interpreter's per-slot accounting
     ([executed]/[last_stage]) collapses to one block-level update — the
     intermediate stores are dead, only the final values are observable.
   - A peephole ([peep]) fuses the idioms of the cache, heavy-hitter and
     load-balancer programs — sketch row, indexed read, threshold test,
     probe-and-compare, round-robin pool index, RTS reply tails,
     key-to-hashdata prefix, register-save bump, loaded-operand stores —
     into single closures with the constants baked in, eliding dead
     intermediate MAR/MBR values.  Memory accesses poke the register
     file's packed 32-bit words directly once a mask or the sign test of
     [vread]/[vwrite]/[vincr] proves the index in range, through
     [Register_array]'s primitive [external]s, which compile inline even
     across an [-opaque] module boundary.

   Two drivers run the blocks: a jump-free program (every workload's
   program is one) runs one [straight] chain with its pass boundaries
   baked in, and a program with jumps runs [drive].

   Closures are cached per FID and keyed by the allocation epoch
   ([Table.epoch]), which the table bumps on every install, remove and
   quiescence transition; any control-plane action that could change
   execution semantics (reallocation, migration, departure, privilege or
   pass-limit changes, deactivation) therefore invalidates.  The cached
   closure captures the FID's epoch cell ([Table.epoch_ref]), so
   revalidation is a single dereference per packet; a valid epoch implies
   the FID is installed and not quiesced.  Dispatch goes through a
   direct-mapped front ([Stdx.Slots]) in front of the hashtable, and
   execution reuses one scratch state record per JIT (single-threaded,
   like the device model itself).  Everything else falls back to the
   interpreter. *)

(* Int-typed, so the MIN/MAX closures compare inline instead of calling
   the polymorphic [Stdlib.min]/[max]. *)
let[@inline] min (a : int) b = if a <= b then a else b
let[@inline] max (a : int) b = if a >= b then a else b

type state = {
  mutable mar : int;
  mutable mbr : int;
  mutable mbr2 : int;
  mutable hd0 : int;
  mutable hd1 : int;
  mutable complete : bool;
  mutable disabled : int;  (* active branch label, or [no_label] *)
  mutable rts : bool;
  mutable dst : int;
  mutable dropped : Runtime.drop_reason option;
  mutable executed : int;
  mutable port_recircs : int;
  mutable forks : int;
  mutable last_stage : int;
  mutable f_pc : int;  (* driver outputs, written back to avoid a tuple *)
  mutable f_passes : int;
  mutable args : int array;
  mutable src : int;
  mutable flow_key : int array;
}

let no_label = -1

type block = { b_n : int; b_fn : state -> unit }

type compiled = {
  ops : (state -> unit) array;
      (* one bare closure per pc: the operation only, no accounting *)
  blocks : block array;  (* fused straight-line run starting at each pc *)
  labels : int array;  (* line label, or [no_label] *)
  len : int;
  straight : (state -> unit) option;
      (* a jump-free program's whole chain, no driver loop; [None]: [drive] *)
  c_n_stages : int;
  c_ingress : int;
  pass_allowance : int;
  c_device : Rmt.Device.t;
}

type cache_entry = {
  ce_cell : int ref;  (* the FID's [Table.epoch_ref] cell *)
  ce_version : int;  (* epoch the closures were compiled against *)
  mutable ce_progs : (Program.t * compiled) list;
}

(* Never valid: the dummy cell can't equal a real epoch. *)
let no_entry = { ce_cell = ref (-1); ce_version = 0; ce_progs = [] }

(* Stats are plain ints, as a registry increment costs more than a whole
   compiled execution.  The JIT's source reads them from a record apart
   from [t]: compiled closures point into the register file, which a
   source over [t] would keep alive. *)
type counts = {
  mutable hits : int;
  mutable misses : int;
  mutable compiles : int;
  mutable invalidates : int;
}

type t = {
  tables : Table.t;
  enabled : bool;
  telemetry : Activermt_telemetry.Telemetry.t;
  cache : (Packet.fid, cache_entry) Hashtbl.t;
  front : cache_entry Stdx.Slots.t;  (* direct-mapped front of [cache]; [no_entry] empty *)
  scratch : state;
  counts : counts;
}

let mask32 v = v land 0xFFFFFFFF

(* Register words by index through [Register_array]'s unchecked
   primitives, for indices already proven in range: [load] zero-extends,
   [store] keeps the low 32 bits, so values stored need no mask.  Every
   caller counts the access first: a count that moves is what tells
   [Register_array] the array may no longer be all zero. *)
let[@inline] load data i =
  Int32.to_int (Rmt.Register_array.unsafe_get32 data (i lsl 2)) land 0xFFFFFFFF

let[@inline] store data i v =
  Rmt.Register_array.unsafe_set32 data (i lsl 2) (Int32.of_int v)

(* Virtually addressed accesses to word [a mod n] of the region at [lo]
   of [r], whose packed words are [data]; [vincr] returns the new word.
   The index is in range by construction when the remainder is
   non-negative (the granted region lies within the stage's array); a
   negative MAR — possible only from unmasked packet args — falls back to
   the checked entry point, which reproduces the interpreter's behaviour
   exactly. *)
let[@inline] vread r data lo n a =
  let mm = a mod n in
  if mm >= 0 then begin
    r.Rmt.Register_array.accesses <- r.Rmt.Register_array.accesses + 1;
    load data (lo + mm)
  end
  else Rmt.Register_array.read_counted r (lo + mm)

let[@inline] vwrite r data lo n a v =
  let mm = a mod n in
  if mm >= 0 then begin
    r.Rmt.Register_array.accesses <- r.Rmt.Register_array.accesses + 1;
    store data (lo + mm) v
  end
  else Rmt.Register_array.write_counted r (lo + mm) v

let[@inline] vincr r data lo n a =
  let mm = a mod n in
  if mm >= 0 then begin
    r.Rmt.Register_array.accesses <- r.Rmt.Register_array.accesses + 1;
    let nv = (load data (lo + mm) + 1) land 0xFFFFFFFF in
    store data (lo + mm) nv;
    nv
  end
  else Rmt.Register_array.add_read_counted r (lo + mm) 1

(* A FID typically runs a small program family (e.g. cache query +
   populate) concurrently; keep a handful of compiled variants per FID. *)
let max_progs_per_fid = 8

let drop_with device st reason =
  st.dropped <- Some reason;
  st.complete <- true;
  Rmt.Device.count_drop device

(* Compile one instruction slot into a bare closure with every
   table-derived constant baked in.  [stage] is the logical stage the slot
   occupies (pc mod n_stages — the mapping is static because skipped slots
   still consume a stage).  The closures do no [executed]/[last_stage]
   accounting: the drivers account per fused block, and per slot for a
   labelled slot that re-enables execution ([exec_labelled]). *)
let compile_op ~tables ~fid ~device ~ingress ~privileged ~stage
    (instr : Instr.t) : state -> unit =
  let open Rmt in
  match instr with
  | Instr.Mbr_load a ->
    let i = Instr.arg_index a in
    fun st -> st.mbr <- st.args.(i)
  | Instr.Mbr_store a ->
    let i = Instr.arg_index a in
    fun st -> st.args.(i) <- mask32 st.mbr
  | Instr.Mbr2_load a ->
    let i = Instr.arg_index a in
    fun st -> st.mbr2 <- st.args.(i)
  | Instr.Mar_load a ->
    let i = Instr.arg_index a in
    fun st -> st.mar <- st.args.(i)
  | Instr.Copy_mbr_mbr2 -> fun st -> st.mbr <- st.mbr2
  | Instr.Copy_mbr2_mbr -> fun st -> st.mbr2 <- st.mbr
  | Instr.Copy_mbr_mar -> fun st -> st.mbr <- st.mar
  | Instr.Copy_mar_mbr -> fun st -> st.mar <- st.mbr
  | Instr.Copy_hashdata_mbr -> fun st -> st.hd0 <- st.mbr
  | Instr.Copy_hashdata_mbr2 -> fun st -> st.hd1 <- st.mbr2
  | Instr.Hashdata_load_5tuple ->
    fun st ->
      let key = st.flow_key in
      st.hd0 <- (if Array.length key > 0 then key.(0) else 0);
      st.hd1 <- (if Array.length key > 1 then key.(1) else 0)
  | Instr.Mbr_add_mbr2 -> fun st -> st.mbr <- mask32 (st.mbr + st.mbr2)
  | Instr.Mar_add_mbr -> fun st -> st.mar <- mask32 (st.mar + st.mbr)
  | Instr.Mar_add_mbr2 -> fun st -> st.mar <- mask32 (st.mar + st.mbr2)
  | Instr.Mar_mbr_add_mbr2 -> fun st -> st.mar <- mask32 (st.mbr + st.mbr2)
  | Instr.Mbr_subtract_mbr2 -> fun st -> st.mbr <- mask32 (st.mbr - st.mbr2)
  | Instr.Bit_and_mar_mbr -> fun st -> st.mar <- st.mar land st.mbr
  | Instr.Bit_or_mbr_mbr2 -> fun st -> st.mbr <- st.mbr lor st.mbr2
  | Instr.Mbr_equals_mbr2 -> fun st -> st.mbr <- st.mbr lxor st.mbr2
  | Instr.Mbr_equals_data a ->
    let i = Instr.arg_index a in
    fun st -> st.mbr <- st.mbr lxor st.args.(i)
  | Instr.Max -> fun st -> st.mbr <- max st.mbr st.mbr2
  | Instr.Min -> fun st -> st.mbr <- min st.mbr st.mbr2
  | Instr.Revmin -> fun st -> st.mbr2 <- min st.mbr st.mbr2
  | Instr.Swap_mbr_mbr2 ->
    fun st ->
      let tmp = st.mbr in
      st.mbr <- st.mbr2;
      st.mbr2 <- tmp
  | Instr.Mbr_not -> fun st -> st.mbr <- mask32 (lnot st.mbr)
  | Instr.Return | Instr.Eof -> fun st -> st.complete <- true
  | Instr.Cret -> fun st -> if st.mbr <> 0 then st.complete <- true
  | Instr.Creti -> fun st -> if st.mbr = 0 then st.complete <- true
  | Instr.Cjump l -> fun st -> if st.mbr <> 0 then st.disabled <- l
  | Instr.Cjumpi l -> fun st -> if st.mbr = 0 then st.disabled <- l
  | Instr.Ujump l -> fun st -> st.disabled <- l
  | Instr.Drop -> fun st -> drop_with device st Runtime.Explicit_drop
  | Instr.Fork ->
    if privileged then fun st ->
      st.forks <- st.forks + 1;
      Device.count_recirculation device
    else
      let reason = Runtime.Privilege_violation { stage } in
      fun st -> drop_with device st reason
  | Instr.Set_dst ->
    if privileged then fun st -> st.dst <- st.mbr
    else
      let reason = Runtime.Privilege_violation { stage } in
      fun st -> drop_with device st reason
  | Instr.Rts ->
    if stage >= ingress then fun st ->
      st.rts <- true;
      st.dst <- st.src;
      st.port_recircs <- st.port_recircs + 1;
      Device.count_recirculation device
    else fun st ->
      st.rts <- true;
      st.dst <- st.src
  | Instr.Crts ->
    if stage >= ingress then
      (fun st ->
        if st.mbr <> 0 then begin
          st.rts <- true;
          st.dst <- st.src;
          st.port_recircs <- st.port_recircs + 1;
          Device.count_recirculation device
        end)
    else
      fun st ->
        if st.mbr <> 0 then begin
          st.rts <- true;
          st.dst <- st.src
        end
  | Instr.Nop -> fun _ -> ()
  | Instr.Addr_mask -> (
    match Table.lookup tables ~fid ~stage with
    | Some e ->
      let m = e.Table.xmask in
      fun st -> st.mar <- st.mar land m
    | None ->
      let reason = Runtime.No_allocation { stage } in
      fun st -> drop_with device st reason)
  | Instr.Addr_offset -> (
    match Table.lookup tables ~fid ~stage with
    | Some e ->
      let o = e.Table.xoffset in
      fun st -> st.mar <- mask32 (st.mar + o)
    | None ->
      let reason = Runtime.No_allocation { stage } in
      fun st -> drop_with device st reason)
  | Instr.Hash ->
    let row = (Device.stage device stage).Device.hash_row in
    fun st -> st.mar <- mask32 (Crc.hash_words2 ~row st.hd0 st.hd1)
  | ( Instr.Mem_write | Instr.Mem_read | Instr.Mem_increment | Instr.Mem_minread
    | Instr.Mem_minreadinc ) as m -> (
    match Table.lookup tables ~fid ~stage with
    | None | Some { Table.region = None; _ } ->
      let reason = Runtime.No_allocation { stage } in
      fun st -> drop_with device st reason
    | Some { Table.region = Some rg; virtual_addressing = true; _ } -> (
      let lo = rg.Packet.start_word and n = rg.Packet.n_words in
      let r = (Device.stage device stage).Device.regs in
      let data = r.Register_array.data in
      match m with
      | Instr.Mem_write -> fun st -> vwrite r data lo n st.mar st.mbr
      | Instr.Mem_read -> fun st -> st.mbr <- vread r data lo n st.mar
      | Instr.Mem_increment -> fun st -> st.mbr <- vincr r data lo n st.mar
      | Instr.Mem_minread ->
        fun st ->
          let mm = st.mar mod n in
          if mm >= 0 then begin
            r.Register_array.accesses <- r.Register_array.accesses + 1;
            st.mbr <- min (load data (lo + mm)) (st.mbr land 0xFFFFFFFF)
          end
          else st.mbr <- Register_array.min_read_counted r (lo + mm) st.mbr
      | Instr.Mem_minreadinc ->
        fun st ->
          st.mbr <- vincr r data lo n st.mar;
          st.mbr2 <- min st.mbr st.mbr2
      | _ -> assert false)
    | Some { Table.region = Some rg; virtual_addressing = false; _ } -> (
      let lo = rg.Packet.start_word and n = rg.Packet.n_words in
      let hi = lo + n in
      let r = (Device.stage device stage).Device.regs in
      let data = r.Register_array.data in
      match m with
      | Instr.Mem_write ->
        fun st ->
          let a = st.mar in
          if a >= lo && a < hi then begin
            r.Register_array.accesses <- r.Register_array.accesses + 1;
            store data a st.mbr
          end
          else drop_with device st (Runtime.Protection_violation { stage; mar = a })
      | Instr.Mem_read ->
        fun st ->
          let a = st.mar in
          if a >= lo && a < hi then begin
            r.Register_array.accesses <- r.Register_array.accesses + 1;
            st.mbr <- load data a
          end
          else drop_with device st (Runtime.Protection_violation { stage; mar = a })
      | Instr.Mem_increment ->
        fun st ->
          let a = st.mar in
          if a >= lo && a < hi then begin
            r.Register_array.accesses <- r.Register_array.accesses + 1;
            let nv = (load data a + 1) land 0xFFFFFFFF in
            store data a nv;
            st.mbr <- nv
          end
          else drop_with device st (Runtime.Protection_violation { stage; mar = a })
      | Instr.Mem_minread ->
        fun st ->
          let a = st.mar in
          if a >= lo && a < hi then begin
            r.Register_array.accesses <- r.Register_array.accesses + 1;
            st.mbr <- min (load data a) (st.mbr land 0xFFFFFFFF)
          end
          else drop_with device st (Runtime.Protection_violation { stage; mar = a })
      | Instr.Mem_minreadinc ->
        fun st ->
          let a = st.mar in
          if a >= lo && a < hi then begin
            r.Register_array.accesses <- r.Register_array.accesses + 1;
            let nv = (load data a + 1) land 0xFFFFFFFF in
            store data a nv;
            st.mbr <- nv;
            st.mbr2 <- min st.mbr st.mbr2
          end
          else drop_with device st (Runtime.Protection_violation { stage; mar = a })
      | _ -> assert false))

(* Can executing this slot set the complete/disabled flag or drop?  Only
   such "stoppers" end a fused straight-line block; everything else runs
   unconditionally once the block is entered.  Virtually-addressed memory
   accesses never fault (the index is wrapped into the granted region), so
   they fuse like ALU ops. *)
let is_stopper ~tables ~fid ~privileged ~stage (instr : Instr.t) =
  match instr with
  | Instr.Return | Instr.Eof | Instr.Cret | Instr.Creti | Instr.Drop
  | Instr.Cjump _ | Instr.Cjumpi _ | Instr.Ujump _ ->
    true
  | Instr.Mem_write | Instr.Mem_read | Instr.Mem_increment | Instr.Mem_minread
  | Instr.Mem_minreadinc -> (
    match Table.lookup tables ~fid ~stage with
    | Some { Table.region = Some _; virtual_addressing = true; _ } -> false
    | _ -> true)
  | Instr.Fork | Instr.Set_dst -> not privileged
  | Instr.Addr_mask | Instr.Addr_offset ->
    Table.lookup tables ~fid ~stage = None
  | _ -> false

let rec fuse = function
  | [] -> fun _ -> ()
  | [ f ] -> f
  | [ f; g ] ->
    fun st ->
      f st;
      g st
  | [ f; g; h ] ->
    fun st ->
      f st;
      g st;
      h st
  | [ f; g; h; k ] ->
    fun st ->
      f st;
      g st;
      h st;
      k st
  | f :: g :: h :: k :: tl ->
    let rest = fuse tl in
    fun st ->
      f st;
      g st;
      h st;
      k st;
      rest st

(* Fuse a block body with its accounting update folded into the wrapper
   (one closure call less per block than fusing a separate account op). *)
let fuse_acc slots s_last fns =
  match fns with
  | [] ->
    fun st ->
      st.executed <- st.executed + slots;
      st.last_stage <- s_last
  | [ f ] ->
    fun st ->
      st.executed <- st.executed + slots;
      st.last_stage <- s_last;
      f st
  | [ f; g ] ->
    fun st ->
      st.executed <- st.executed + slots;
      st.last_stage <- s_last;
      f st;
      g st
  | [ f; g; h ] ->
    fun st ->
      st.executed <- st.executed + slots;
      st.last_stage <- s_last;
      f st;
      g st;
      h st
  | f :: g :: h :: tl ->
    let rest = fuse tl in
    fun st ->
      st.executed <- st.executed + slots;
      st.last_stage <- s_last;
      f st;
      g st;
      h st;
      rest st

(* Link whole-program segments: run each, short-circuit on the complete
   flag.  Only used for jump-free programs, where [complete] is the sole
   control-flow flag a slot can raise. *)
let rec chain = function
  | [] -> fun _ -> ()
  | [ f ] -> f
  | [ f; g ] ->
    fun st ->
      f st;
      if not st.complete then g st
  | f :: g :: tl ->
    let rest = chain tl in
    fun st ->
      f st;
      if not st.complete then begin
        g st;
        if not st.complete then rest st
      end

let compile tables ~fid (program : Program.t) =
  let device = Table.device tables in
  let params = Rmt.Device.params device in
  let n_stages = params.Rmt.Params.logical_stages in
  let ingress = params.Rmt.Params.ingress_stages in
  let lines = program.Program.lines in
  let len = Array.length lines in
  let privileged = Table.is_privileged tables ~fid in
  let pass_allowance =
    match Table.max_passes_of tables ~fid with
    | Some mp -> min (mp - 1) params.Rmt.Params.recirc_limit
    | None -> params.Rmt.Params.recirc_limit
  in
  let instrs = Array.init len (fun pc -> lines.(pc).Program.instr) in
  let ops =
    Array.init len (fun pc ->
        compile_op ~tables ~fid ~device ~ingress ~privileged
          ~stage:(pc mod n_stages) instrs.(pc))
  in
  let stopper =
    Array.init len (fun pc ->
        is_stopper ~tables ~fid ~privileged ~stage:(pc mod n_stages) instrs.(pc))
  in
  let stage_of pc = pc mod n_stages in
  let entry_at pc = Table.lookup tables ~fid ~stage:(stage_of pc) in
  (* A virtually-addressed memory slot's baked constants: region bounds
     plus the stage's register file (exposed representation).  Inside a
     block any non-trailing memory slot is necessarily of this kind (a
     direct-addressed access is a stopper and would have ended the
     block). *)
  let virt_mem pc =
    match entry_at pc with
    | Some { Table.region = Some rg; virtual_addressing = true; _ } ->
      let r = (Rmt.Device.stage device (stage_of pc)).Rmt.Device.regs in
      Some (rg.Packet.start_word, rg.Packet.n_words, r, r.Rmt.Register_array.data)
    | _ -> None
  in
  (* Peephole over a block's (non-NOP) slot sequence: each idiom below
     becomes one closure with its constants baked in, skipping dead
     intermediate MAR/MBR stores.  When a chain computes the address, the
     value is 32-bit masked and hence non-negative, so the fused access
     skips the guard of [vread]/[vwrite]/[vincr].  Anything unmatched
     falls back to the per-slot closure. *)
  let rec peep pcs =
    match pcs with
    (* sketch row: HASH / ADDR_MASK / ADDR_OFFSET / MEM_MINREADINC *)
    | p1 :: p2 :: p3 :: p4 :: rest
      when instrs.(p1) = Instr.Hash
           && instrs.(p2) = Instr.Addr_mask
           && instrs.(p3) = Instr.Addr_offset
           && instrs.(p4) = Instr.Mem_minreadinc -> (
      match (entry_at p2, entry_at p3, virt_mem p4) with
      | Some e2, Some e3, Some (lo, n, r, data) ->
        let row = (Rmt.Device.stage device (stage_of p1)).Rmt.Device.hash_row in
        let m = e2.Table.xmask and o = e3.Table.xoffset in
        (fun st ->
          let a =
            ((mask32 (Rmt.Crc.hash_words2 ~row st.hd0 st.hd1) land m) + o)
            land 0xFFFFFFFF
          in
          st.mar <- a;
          r.Rmt.Register_array.accesses <- r.Rmt.Register_array.accesses + 1;
          let ix = lo + (a mod n) in
          let nv = (load data ix + 1) land 0xFFFFFFFF in
          store data ix nv;
          st.mbr <- nv;
          st.mbr2 <- min nv st.mbr2)
        :: peep rest
      | _ -> ops.(p1) :: peep (p2 :: p3 :: p4 :: rest))
    (* indexed read: MAR_LOAD / ADDR_MASK / ADDR_OFFSET / MEM_READ *)
    | p1 :: p2 :: p3 :: p4 :: rest
      when (match instrs.(p1) with Instr.Mar_load _ -> true | _ -> false)
           && instrs.(p2) = Instr.Addr_mask
           && instrs.(p3) = Instr.Addr_offset
           && instrs.(p4) = Instr.Mem_read -> (
      match (instrs.(p1), entry_at p2, entry_at p3, virt_mem p4) with
      | Instr.Mar_load a, Some e2, Some e3, Some (lo, n, r, data) ->
        let i = Instr.arg_index a in
        let m = e2.Table.xmask and o = e3.Table.xoffset in
        (fun st ->
          let adr = ((st.args.(i) land m) + o) land 0xFFFFFFFF in
          st.mar <- adr;
          r.Rmt.Register_array.accesses <- r.Rmt.Register_array.accesses + 1;
          st.mbr <- load data (lo + (adr mod n)))
        :: peep rest
      | _ -> ops.(p1) :: peep (p2 :: p3 :: p4 :: rest))
    (* threshold test: MAR_LOAD / MEM_READ / MIN / MBR_EQUALS_MBR2 / CRETI *)
    | p1 :: p2 :: p3 :: p4 :: p5 :: rest
      when (match instrs.(p1) with Instr.Mar_load _ -> true | _ -> false)
           && instrs.(p2) = Instr.Mem_read
           && instrs.(p3) = Instr.Min
           && instrs.(p4) = Instr.Mbr_equals_mbr2
           && instrs.(p5) = Instr.Creti -> (
      match (instrs.(p1), virt_mem p2) with
      | Instr.Mar_load a, Some (lo, n, r, data) ->
        let i = Instr.arg_index a in
        (fun st ->
          let adr = st.args.(i) in
          st.mar <- adr;
          let x = min (vread r data lo n adr) st.mbr2 lxor st.mbr2 in
          st.mbr <- x;
          if x = 0 then st.complete <- true)
        :: peep rest
      | _ -> ops.(p1) :: peep (p2 :: p3 :: p4 :: p5 :: rest))
    (* round-robin pool index (power-of-two modulo): COPY_MAR_MBR /
       COPY_MBR_MBR2 / BIT_AND_MAR_MBR / COPY_MBR_MAR / COPY_MBR2_MBR
       leaves counter land (pool-1) in all three registers *)
    | p1 :: p2 :: p3 :: p4 :: p5 :: rest
      when instrs.(p1) = Instr.Copy_mar_mbr
           && instrs.(p2) = Instr.Copy_mbr_mbr2
           && instrs.(p3) = Instr.Bit_and_mar_mbr
           && instrs.(p4) = Instr.Copy_mbr_mar
           && instrs.(p5) = Instr.Copy_mbr2_mbr ->
      (fun st ->
        let x = st.mbr land st.mbr2 in
        st.mar <- x;
        st.mbr <- x;
        st.mbr2 <- x)
      :: peep rest
    (* probe-and-compare: MAR_LOAD / MEM_READ / MBR_EQUALS_DATA / CRET *)
    | p1 :: p2 :: p3 :: p4 :: rest
      when (match instrs.(p1) with Instr.Mar_load _ -> true | _ -> false)
           && instrs.(p2) = Instr.Mem_read
           && (match instrs.(p3) with
              | Instr.Mbr_equals_data _ -> true
              | _ -> false)
           && instrs.(p4) = Instr.Cret -> (
      match (instrs.(p1), instrs.(p3), virt_mem p2) with
      | Instr.Mar_load a, Instr.Mbr_equals_data b, Some (lo, n, r, data) ->
        let ia = Instr.arg_index a and ib = Instr.arg_index b in
        (fun st ->
          let adr = st.args.(ia) in
          st.mar <- adr;
          let v = vread r data lo n adr in
          let x = v lxor st.args.(ib) in
          st.mbr <- x;
          if x <> 0 then st.complete <- true)
        :: peep rest
      | _ -> ops.(p1) :: peep (p2 :: p3 :: p4 :: rest))
    (* same, address already in MAR: MEM_READ / MBR_EQUALS_DATA / CRET *)
    | p1 :: p2 :: p3 :: rest
      when instrs.(p1) = Instr.Mem_read
           && (match instrs.(p2) with
              | Instr.Mbr_equals_data _ -> true
              | _ -> false)
           && instrs.(p3) = Instr.Cret -> (
      match (instrs.(p2), virt_mem p1) with
      | Instr.Mbr_equals_data b, Some (lo, n, r, data) ->
        let ib = Instr.arg_index b in
        (fun st ->
          let v = vread r data lo n st.mar in
          let x = v lxor st.args.(ib) in
          st.mbr <- x;
          if x <> 0 then st.complete <- true)
        :: peep rest
      | _ -> ops.(p1) :: peep (p2 :: p3 :: rest))
    (* RTS reply carrying a read value: RTS / MEM_READ / MBR_STORE /
       RETURN *)
    | p1 :: p2 :: p3 :: p4 :: rest
      when instrs.(p1) = Instr.Rts
           && instrs.(p2) = Instr.Mem_read
           && (match instrs.(p3) with Instr.Mbr_store _ -> true | _ -> false)
           && instrs.(p4) = Instr.Return -> (
      match (instrs.(p3), virt_mem p2) with
      | Instr.Mbr_store b, Some (lo, n, r, data) ->
        let ib = Instr.arg_index b in
        let egress = stage_of p1 >= ingress in
        (fun st ->
          st.rts <- true;
          st.dst <- st.src;
          if egress then begin
            st.port_recircs <- st.port_recircs + 1;
            Rmt.Device.count_recirculation device
          end;
          let v = vread r data lo n st.mar in
          st.mbr <- v;
          st.args.(ib) <- mask32 v;
          st.complete <- true)
        :: peep rest
      | _ -> ops.(p1) :: peep (p2 :: p3 :: p4 :: rest))
    (* RTS acknowledgement of a write: RTS / MEM_WRITE / RETURN *)
    | p1 :: p2 :: p3 :: rest
      when instrs.(p1) = Instr.Rts
           && instrs.(p2) = Instr.Mem_write
           && instrs.(p3) = Instr.Return -> (
      match virt_mem p2 with
      | Some (lo, n, r, data) ->
        let egress = stage_of p1 >= ingress in
        (fun st ->
          st.rts <- true;
          st.dst <- st.src;
          if egress then begin
            st.port_recircs <- st.port_recircs + 1;
            Rmt.Device.count_recirculation device
          end;
          vwrite r data lo n st.mar st.mbr;
          st.complete <- true)
        :: peep rest
      | None -> ops.(p1) :: peep (p2 :: p3 :: rest))
    (* key-to-hashdata load prefix *)
    | p1 :: p2 :: p3 :: p4 :: rest
      when (match (instrs.(p1), instrs.(p2)) with
           | Instr.Mbr_load _, Instr.Mbr2_load _ -> true
           | _ -> false)
           && instrs.(p3) = Instr.Copy_hashdata_mbr
           && instrs.(p4) = Instr.Copy_hashdata_mbr2 -> (
      match (instrs.(p1), instrs.(p2)) with
      | Instr.Mbr_load a, Instr.Mbr2_load b ->
        let ia = Instr.arg_index a and ib = Instr.arg_index b in
        (fun st ->
          let v = st.args.(ia) in
          let v2 = st.args.(ib) in
          st.mbr <- v;
          st.mbr2 <- v2;
          st.hd0 <- v;
          st.hd1 <- v2)
        :: peep rest
      | _ -> assert false)
    (* register-save then bump: COPY_MBR2_MBR / MEM_INCREMENT *)
    | p1 :: p2 :: rest
      when instrs.(p1) = Instr.Copy_mbr2_mbr
           && instrs.(p2) = Instr.Mem_increment -> (
      match virt_mem p2 with
      | Some (lo, n, r, data) ->
        (fun st ->
          st.mbr2 <- st.mbr;
          st.mbr <- vincr r data lo n st.mar)
        :: peep rest
      | None -> ops.(p1) :: peep (p2 :: rest))
    (* loaded-operand stores: MAR_LOAD or MBR(2)_LOAD straight into a
       write *)
    | p1 :: p2 :: rest
      when (match instrs.(p1) with Instr.Mar_load _ -> true | _ -> false)
           && instrs.(p2) = Instr.Mem_write -> (
      match (instrs.(p1), virt_mem p2) with
      | Instr.Mar_load a, Some (lo, n, r, data) ->
        let i = Instr.arg_index a in
        (fun st ->
          let adr = st.args.(i) in
          st.mar <- adr;
          vwrite r data lo n adr st.mbr)
        :: peep rest
      | _ -> ops.(p1) :: peep (p2 :: rest))
    | p1 :: p2 :: rest
      when (match instrs.(p1) with
           | Instr.Mbr_load _ | Instr.Mbr2_load _ -> true
           | _ -> false)
           && instrs.(p2) = Instr.Mem_write -> (
      match (instrs.(p1), virt_mem p2) with
      | Instr.Mbr_load a, Some (lo, n, r, data) ->
        let i = Instr.arg_index a in
        (fun st ->
          let v = st.args.(i) in
          st.mbr <- v;
          vwrite r data lo n st.mar v)
        :: peep rest
      | Instr.Mbr2_load a, Some (lo, n, r, data) ->
        let i = Instr.arg_index a in
        (fun st ->
          st.mbr2 <- st.args.(i);
          vwrite r data lo n st.mar st.mbr)
        :: peep rest
      | _ -> ops.(p1) :: peep (p2 :: rest))
    | p :: rest -> ops.(p) :: peep rest
    | [] -> []
  in
  (* A block starting at [pc] runs the longest chain of non-stoppers, plus
     at most one trailing stopper (the driver re-checks the flags after
     every block), without crossing a pass boundary.  Since every slot of
     the block executes once the block is entered, the per-slot
     [executed]/[last_stage] stores are dead until the block ends: one
     accounting update up front covers the whole block, and NOP slots
     vanish entirely. *)
  let blocks =
    Array.init len (fun pc ->
        let limit = pc + n_stages - (pc mod n_stages) in
        let limit = if limit < len then limit else len in
        let j = ref pc in
        while !j < limit && not stopper.(!j) do
          incr j
        done;
        let stop = if !j < limit then !j + 1 else !j in
        let slots = stop - pc in
        let s_last = (stop - 1) mod n_stages in
        let pcs = ref [] in
        for k = stop - 1 downto pc do
          if instrs.(k) <> Instr.Nop then pcs := k :: !pcs
        done;
        { b_n = slots; b_fn = fuse_acc slots s_last (peep !pcs) })
  in
  let labels =
    Array.init len (fun pc ->
        match lines.(pc).Program.label with Some l -> l | None -> no_label)
  in
  let has_jumps =
    Array.exists
      (function
        | Instr.Cjump _ | Instr.Cjumpi _ | Instr.Ujump _ -> true
        | _ -> false)
      instrs
  in
  (* Jump-free programs (no way to set the disabled flag) compile to one
     whole-program chain: blocks linked on the complete flag, the final pc
     stored as a baked constant after each block, and each pass boundary
     reduced to its statically known outcome — a recirculation count plus
     pass-counter store, or (beyond the allowance) the limit drop. *)
  let straight =
    if has_jumps then None
    else begin
      let links = ref [] in
      let pc = ref 0 in
      while !pc < len do
        if !pc > 0 && !pc mod n_stages = 0 then begin
          let k = !pc / n_stages in
          let link =
            if k > pass_allowance then fun st ->
              drop_with device st Runtime.Recirculation_limit
            else fun st ->
              Rmt.Device.count_recirculation device;
              st.f_passes <- k + 1
          in
          links := link :: !links
        end;
        let b = blocks.(!pc) in
        let after = !pc + b.b_n in
        let fn = b.b_fn in
        links := (fun st -> fn st; st.f_pc <- after) :: !links;
        pc := after
      done;
      Some (chain (List.rev !links))
    end
  in
  {
    ops;
    blocks;
    labels;
    len;
    straight;
    c_n_stages = n_stages;
    c_ingress = ingress;
    pass_allowance;
    c_device = device;
  }

(* Re-enable at a matching label while skipping: the slot executes with
   per-slot accounting (its fused block may include neighbours that must
   stay skipped, so the block form can't be used here). *)
let exec_labelled c st pc =
  st.disabled <- no_label;
  c.ops.(pc) st;
  st.executed <- st.executed + 1;
  st.last_stage <- pc mod c.c_n_stages

(* The driver for programs with jumps: fused blocks while no label is
   pending, one slot at a time while skipping to one.  Mirrors the
   interpreter's pass/disabled/recirculation accounting exactly. *)
let drive c st =
  let pc = ref 0 in
  let passes = ref 0 in
  let limit_hit = ref false in
  while (not st.complete) && !pc < c.len && not !limit_hit do
    if !passes > 0 then begin
      if !passes > c.pass_allowance then begin
        limit_hit := true;
        drop_with c.c_device st Runtime.Recirculation_limit
      end
      else Rmt.Device.count_recirculation c.c_device
    end;
    if not !limit_hit then begin
      let stop =
        let h = !pc + c.c_n_stages in
        if h < c.len then h else c.len
      in
      while !pc < stop && not st.complete do
        if st.disabled < 0 then begin
          let b = Array.unsafe_get c.blocks !pc in
          b.b_fn st;
          pc := !pc + b.b_n
        end
        else begin
          if c.labels.(!pc) = st.disabled then exec_labelled c st !pc;
          incr pc
        end
      done;
      incr passes
    end
  done;
  st.f_pc <- !pc;
  st.f_passes <- (if !passes > 1 then !passes else 1)

(* Load a capsule into the scratch state.  [args] is the working
   argument store, written in place by MBR_STORE and friends and left
   holding the capsule's output args. *)
let load st ~src ~dst ~flow_key args =
  let n_args = Array.length args in
  st.mar <- (if n_args > 0 then args.(0) else 0);
  st.mbr <- (if n_args > 1 then args.(1) else 0);
  st.mbr2 <- (if n_args > 2 then args.(2) else 0);
  st.hd0 <- 0;
  st.hd1 <- 0;
  st.complete <- false;
  st.disabled <- no_label;
  st.rts <- false;
  st.dst <- dst;
  st.dropped <- None;
  st.executed <- 0;
  st.port_recircs <- 0;
  st.forks <- 0;
  st.last_stage <- 0;
  st.f_pc <- 0;
  st.f_passes <- 1;
  st.args <- args;
  st.src <- src;
  st.flow_key <- flow_key

(* A copy of a capsule's args, for the callers that keep their packet.
   The wire format pads every Exec to exactly four argument words, so the
   common case is an inline literal (a pointer-bump allocation) rather
   than the C call behind [Array.copy]. *)
let copy_args args =
  if Array.length args = 4 then
    [|
      Array.unsafe_get args 0;
      Array.unsafe_get args 1;
      Array.unsafe_get args 2;
      Array.unsafe_get args 3;
    |]
  else Array.copy args

let drive_fast c st =
  match c.straight with
  | Some f -> f st
  | None -> drive c st

let pipelines c st =
  let within_ingress = st.last_stage < c.c_ingress in
  ((st.f_passes - 1) * 2) + (if within_ingress then 1 else 2) + (2 * st.port_recircs)

let exec_compiled c ~(meta : Runtime.meta) ~args ~st =
  load st ~src:meta.Runtime.src ~dst:meta.Runtime.dst
    ~flow_key:meta.Runtime.flow_key (copy_args args);
  drive_fast c st;
  let decision =
    match st.dropped with
    | Some r -> Runtime.Dropped r
    | None -> if st.rts then Runtime.Return_to_sender else Runtime.Forward st.dst
  in
  {
    Runtime.decision;
    args_out = st.args;
    executed = st.executed;
    passes = st.f_passes;
    port_recirculations = st.port_recircs;
    pipelines = pipelines c st;
    quiesced = false;
    consumed_prefix = st.f_pc;
    final_mar = st.mar;
    final_mbr = st.mbr;
    final_mbr2 = st.mbr2;
    forks = st.forks;
  }

type outcome = {
  mutable dropped : Runtime.drop_reason option;
  mutable rts : bool;
  mutable dst : int;
  mutable pipelines : int;
  mutable executed : int;
  mutable passes : int;
}

let outcome () =
  { dropped = None; rts = false; dst = 0; pipelines = 0; executed = 0; passes = 0 }

let no_flow_key = [||]

let exec_compiled_into c o ~src ~dst ~args ~st =
  load st ~src ~dst ~flow_key:no_flow_key args;
  drive_fast c st;
  o.dropped <- st.dropped;
  o.rts <- st.rts;
  o.dst <- (if st.rts then src else st.dst);
  o.pipelines <- pipelines c st;
  o.executed <- st.executed;
  o.passes <- st.f_passes

module Telemetry = Activermt_telemetry.Telemetry

let fresh_state () =
  {
    mar = 0;
    mbr = 0;
    mbr2 = 0;
    hd0 = 0;
    hd1 = 0;
    complete = false;
    disabled = no_label;
    rts = false;
    dst = 0;
    dropped = None;
    executed = 0;
    port_recircs = 0;
    forks = 0;
    last_stage = 0;
    f_pc = 0;
    f_passes = 1;
    args = [||];
    src = 0;
    flow_key = [||];
  }

let create ?(enabled = true) ?(telemetry = Telemetry.default) tables =
  let c = { hits = 0; misses = 0; compiles = 0; invalidates = 0 } in
  (* Every counter is read, zero included, so a metrics dump always
     carries the jit stats lines, even for runs that never execute a
     capsule. *)
  Telemetry.source telemetry
    ~read:(fun ~counter ~gauge:_ ->
      counter "jit.compile" c.compiles;
      counter "jit.hit" c.hits;
      counter "jit.miss" c.misses;
      counter "jit.invalidate" c.invalidates)
    ~zero:(fun () ->
      c.hits <- 0;
      c.misses <- 0;
      c.compiles <- 0;
      c.invalidates <- 0);
  Telemetry.set_gauge telemetry "jit.enabled" (if enabled then 1.0 else 0.0);
  {
    tables;
    enabled;
    telemetry;
    cache = Hashtbl.create 64;
    front = Stdx.Slots.create no_entry;
    scratch = fresh_state ();
    counts = c;
  }

let cache_size t = Hashtbl.length t.cache

let stats t =
  let c = t.counts in
  (c.hits, c.misses, c.compiles, c.invalidates)

let invalidate t ~fid =
  if Hashtbl.mem t.cache fid then begin
    Hashtbl.remove t.cache fid;
    Stdx.Slots.remove t.front fid;
    t.counts.invalidates <- t.counts.invalidates + 1
  end

(* The FID's compiled variant of [program]; raises [Not_found] rather
   than returning an option, so a hit allocates nothing.  A client sends
   one program value per variant, so the list is scanned by identity
   first and structurally only when that fails: a program structurally
   equal to a stored one is never stored again, so the first physical
   match is the only match. *)
let rec find_equal progs program =
  match progs with
  | [] -> raise_notrace Not_found
  | (p, c) :: tl -> if Program.equal p program then c else find_equal tl program

let rec find_same all progs program =
  match progs with
  | [] -> find_equal all program
  | (p, c) :: tl -> if p == program then c else find_same all tl program

let find_prog progs program = find_same progs progs program

let compile_into t ~fid ~program entry =
  let c =
    Telemetry.with_span t.telemetry "jit.compile_s" (fun () ->
        compile t.tables ~fid program)
  in
  t.counts.compiles <- t.counts.compiles + 1;
  t.counts.misses <- t.counts.misses + 1;
  (match entry with
  | Some ce ->
    let kept =
      if List.length ce.ce_progs >= max_progs_per_fid then
        List.filteri (fun i _ -> i < max_progs_per_fid - 1) ce.ce_progs
      else ce.ce_progs
    in
    ce.ce_progs <- (program, c) :: kept
  | None ->
    let cell = Table.epoch_ref t.tables ~fid in
    let ce = { ce_cell = cell; ce_version = !cell; ce_progs = [ (program, c) ] } in
    Hashtbl.replace t.cache fid ce;
    Stdx.Slots.set t.front fid ce);
  c

let default_meta = Runtime.meta ~src:0 ~dst:0 ()

(* The FID's cache entry, through its slot; [no_entry], which is never
   valid, when it has none.  Allocates nothing. *)
let entry t fid =
  let ce = Stdx.Slots.find t.front fid in
  if ce != no_entry then ce
  else
    match Hashtbl.find t.cache fid with
    | ce ->
      Stdx.Slots.set t.front fid ce;
      ce
    | exception Not_found -> no_entry

(* A valid epoch implies the FID is installed and not quiesced: install,
   remove and quiescence transitions all bump it. *)
let[@inline] valid ce = !(ce.ce_cell) = ce.ce_version

(* Miss path: the FID has no valid cached closure for this program.
   Uninstalled or quiesced FIDs execute in the interpreter (which handles
   pass-through); otherwise compile against the current allocation. *)
let run_slow t ~meta ~fid ~args ~program ~entry pkt =
  let stale = entry != no_entry && not (valid entry) in
  if stale then invalidate t ~fid;
  if Table.is_quiesced t.tables ~fid || not (Table.installed t.tables ~fid) then
    Runtime.run t.tables ~meta pkt
  else begin
    let entry = if stale || entry == no_entry then None else Some entry in
    let c = compile_into t ~fid ~program entry in
    exec_compiled c ~meta ~args ~st:t.scratch
  end

let run t ?(meta = default_meta) (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Packet.Exec { args; program } when t.enabled -> (
    let fid = pkt.Packet.fid in
    let ce = entry t fid in
    if not (valid ce) then run_slow t ~meta ~fid ~args ~program ~entry:ce pkt
    else
      match find_prog ce.ce_progs program with
      | c ->
        t.counts.hits <- t.counts.hits + 1;
        exec_compiled c ~meta ~args ~st:t.scratch
      | exception Not_found ->
        run_slow t ~meta ~fid ~args ~program ~entry:ce pkt)
  | _ -> Runtime.run t.tables ~meta pkt

(* Anything but a hit on a compiled variant under a valid epoch goes
   through [run]: it compiles, interprets and counts exactly as a [run]
   call would, and its output args are written back into the capsule. *)
let run_copy t o ~src ~dst (pkt : Packet.t) =
  let r = run t ~meta:(Runtime.meta ~src ~dst ()) pkt in
  (match r.Runtime.decision with
  | Runtime.Dropped why -> o.dropped <- Some why
  | Runtime.Return_to_sender ->
    o.dropped <- None;
    o.rts <- true;
    o.dst <- src
  | Runtime.Forward d ->
    o.dropped <- None;
    o.rts <- false;
    o.dst <- d);
  o.pipelines <- r.Runtime.pipelines;
  o.executed <- r.Runtime.executed;
  o.passes <- r.Runtime.passes;
  match pkt.Packet.payload with
  | Packet.Exec { args; _ } ->
    Array.blit r.Runtime.args_out 0 args 0 (Array.length args)
  | Packet.Request _ | Packet.Response _ | Packet.Bare -> ()

(* A FID without tables executes nothing. *)
let run_if_installed t o ~src ~dst (pkt : Packet.t) =
  Table.installed t.tables ~fid:pkt.Packet.fid
  && begin
       run_copy t o ~src ~dst pkt;
       true
     end

(* A valid entry means the FID has tables (see [valid]), so a hit asks
   nothing else. *)
let run_into t o ~src ~dst (pkt : Packet.t) =
  match pkt.Packet.payload with
  | Packet.Exec { args; program } when t.enabled -> (
    let ce = entry t pkt.Packet.fid in
    if not (valid ce) then run_if_installed t o ~src ~dst pkt
    else
      match find_prog ce.ce_progs program with
      | c ->
        t.counts.hits <- t.counts.hits + 1;
        exec_compiled_into c o ~src ~dst ~args ~st:t.scratch;
        true
      | exception Not_found ->
        run_copy t o ~src ~dst pkt;
        true)
  | Packet.Exec _ | Packet.Request _ | Packet.Response _ | Packet.Bare ->
    run_if_installed t o ~src ~dst pkt

let would_specialize t (pkt : Packet.t) =
  t.enabled
  &&
  match pkt.Packet.payload with
  | Packet.Exec _ ->
    let fid = pkt.Packet.fid in
    (not (Table.is_quiesced t.tables ~fid)) && Table.installed t.tables ~fid
  | _ -> false
