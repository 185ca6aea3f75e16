(** The ActiveRMT instruction set (paper Appendix A).

    Programs are sequences of these instructions, executed one per logical
    match-action stage as the packet flows through the pipeline.  Three
    32-bit PHV variables are visible to programs: the memory address
    register MAR and two accumulators MBR and MBR2; HASH reads a separate
    pair of hash-data registers.

    Naming follows the paper with its COPY inconsistency resolved
    destination-first (see DESIGN.md): [Copy_mbr_mar] is MBR <- MAR. *)

type arg = A0 | A1 | A2 | A3
(** Index of one of the four 32-bit data fields in the argument header. *)

val arg_index : arg -> int
val arg_of_index : int -> arg option

type label = int
(** Branch label, 0..6 (three bits on the wire, 0 reserved for "none");
    labels mark instructions later in the program. *)

type t =
  (* A.1 data copying *)
  | Mbr_load of arg  (** MBR <- args[k] *)
  | Mbr_store of arg  (** args[k] <- MBR (written back into the packet) *)
  | Mbr2_load of arg  (** MBR2 <- args[k] *)
  | Mar_load of arg  (** MAR <- args[k] *)
  | Copy_mbr_mbr2  (** MBR <- MBR2 *)
  | Copy_mbr2_mbr  (** MBR2 <- MBR *)
  | Copy_mbr_mar  (** MBR <- MAR *)
  | Copy_mar_mbr  (** MAR <- MBR *)
  | Copy_hashdata_mbr  (** hashdata[0] <- MBR *)
  | Copy_hashdata_mbr2  (** hashdata[1] <- MBR2 *)
  | Hashdata_load_5tuple
      (** hashdata <- the packet's flow key (TCP/UDP 5-tuple digest); used
          by the Cheetah load balancer (Appendix B.2) *)
  (* A.2 data manipulation *)
  | Mbr_add_mbr2  (** MBR <- MBR + MBR2 *)
  | Mar_add_mbr  (** MAR <- MAR + MBR *)
  | Mar_add_mbr2  (** MAR <- MAR + MBR2 *)
  | Mar_mbr_add_mbr2  (** MAR <- MBR + MBR2 *)
  | Mbr_subtract_mbr2  (** MBR <- MBR - MBR2 *)
  | Bit_and_mar_mbr  (** MAR <- MAR land MBR *)
  | Bit_or_mbr_mbr2  (** MBR <- MBR lor MBR2 *)
  | Mbr_equals_mbr2  (** MBR <- MBR lxor MBR2 (0 iff equal) *)
  | Mbr_equals_data of arg  (** MBR <- MBR lxor args[k] (Listing 1) *)
  | Max  (** MBR <- max MBR MBR2 *)
  | Min  (** MBR <- min MBR MBR2 *)
  | Revmin  (** MBR2 <- min MBR MBR2 *)
  | Swap_mbr_mbr2
  | Mbr_not  (** MBR <- lnot MBR *)
  (* A.3 control flow *)
  | Return  (** mark complete; forward to resolved destination *)
  | Cret  (** return if MBR <> 0 *)
  | Creti  (** return if MBR = 0 *)
  | Cjump of label  (** jump to label if MBR <> 0 *)
  | Cjumpi of label  (** jump to label if MBR = 0 *)
  | Ujump of label  (** unconditional jump *)
  (* A.4 memory access *)
  | Mem_write  (** mem[MAR] <- MBR *)
  | Mem_read  (** MBR <- mem[MAR] *)
  | Mem_increment  (** mem[MAR] <- mem[MAR]+1; MBR <- new value *)
  | Mem_minread  (** MBR <- min mem[MAR] MBR *)
  | Mem_minreadinc
      (** mem[MAR] <- mem[MAR]+1; MBR <- new value; MBR2 <- min MBR MBR2
          (semantics from the Appendix B.1 walk-through) *)
  (* A.5 packet forwarding *)
  | Drop
  | Fork  (** clone the packet and continue execution (costs recirculation) *)
  | Set_dst  (** destination <- MBR *)
  | Rts  (** return to sender (ingress-only without recirculation) *)
  | Crts  (** RTS if MBR <> 0 *)
  (* A.6 special *)
  | Eof  (** end of active program marker *)
  | Nop
  | Addr_mask  (** MAR <- MAR land mask(next memory-access stage) *)
  | Addr_offset  (** MAR <- MAR + offset(next memory-access stage) *)
  | Hash  (** MAR <- stage-local CRC of the hash-data registers *)

val equal : t -> t -> bool

val is_memory_access : t -> bool
(** Does the instruction access this stage's register array?  (Requires a
    memory allocation in its execution stage.) *)

val needs_ingress : t -> bool
(** Must execute in the ingress pipeline to avoid an extra recirculation
    (RTS/CRTS; port changes are ingress-only on Tofino). *)

val branch_target : t -> label option

val mnemonic : t -> string
(** Assembly mnemonic, e.g. ["MEM_READ"], ["MBR_LOAD 2"], ["CJUMP L3"]. *)

val of_mnemonic : string -> (t, string) result
(** Parse one assembly line (mnemonic plus optional operand); inverse of
    [mnemonic]. *)

val all_opcodes : t list
(** One representative of every instruction (arg/label families included
    once per operand value), for exhaustive codec tests. *)
