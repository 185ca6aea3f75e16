(** The shared data-plane runtime: interprets active programs one
    instruction per logical stage as the packet traverses the simulated
    pipeline (Section 3.1).

    The runtime enforces memory protection (per-FID MAR ranges from
    [Table]), executes stateful register micro-programs, handles control
    flow via the complete/disabled flags, recirculates packets whose
    programs outrun the pipeline, and honours quiescence: packets of a
    FID under reallocation pass through un-processed. *)

type meta = {
  src : int;  (** source port/address for RTS *)
  dst : int;  (** resolved destination *)
  flow_key : int array;  (** words hashed by HASHDATA_LOAD_5TUPLE *)
}

val meta : ?flow_key:int array -> src:int -> dst:int -> unit -> meta

type drop_reason =
  | Protection_violation of { stage : int; mar : int }
  | No_allocation of { stage : int }
  | Recirculation_limit
      (** device limit, or the FID's [max_passes] allowance (Section 7.2's
          bandwidth-inflation control) *)
  | Privilege_violation of { stage : int }
      (** FORK or SET_DST by an unprivileged FID (Section 7.2's privilege
          levels) *)
  | Explicit_drop  (** DROP instruction *)

type decision =
  | Forward of int  (** deliver to this destination *)
  | Return_to_sender
  | Dropped of drop_reason

type result = {
  decision : decision;
  args_out : int array;  (** argument fields after execution (MBR_STORE) *)
  executed : int;  (** instructions executed (skipped ones excluded) *)
  passes : int;  (** full traversals of the logical pipeline *)
  port_recirculations : int;  (** extra recirculations to change ports *)
  pipelines : int;  (** pipelines traversed; drives the Fig 8b latency *)
  quiesced : bool;  (** FID was deactivated; packet passed through *)
  consumed_prefix : int;
      (** instruction headers whose stage has passed; the parser can strip
          them so the packet shrinks on the wire (Section 3.1) — see
          [Packet.strip_executed] *)
  final_mar : int;
  final_mbr : int;
  final_mbr2 : int;
  forks : int;  (** clones produced by FORK *)
}

type trace_event = {
  tr_pass : int;  (** 0-based pipeline pass *)
  tr_stage : int;  (** logical stage the slot occupied *)
  tr_pc : int;  (** instruction index in the program *)
  tr_instr : Instr.t;
  tr_skipped : bool;  (** slot consumed by a disabled (branched-over) instruction *)
  tr_mar : int;  (** register values after the slot *)
  tr_mbr : int;
  tr_mbr2 : int;
}

val pp_trace_event : Format.formatter -> trace_event -> unit

val run : Table.t -> ?meta:meta -> Packet.t -> result
(** Execute an [Exec] packet's program.  Non-program packets (requests,
    responses, bare) and quiesced FIDs pass through to [meta.dst]
    untouched.  MAR, MBR and MBR2 are preloaded from argument fields 0-2
    (the Appendix C "preloading" optimization).  Never raises on
    well-formed input; malformed programs (validated or not) simply
    execute their instruction stream. *)

val trace : Table.t -> ?meta:meta -> Packet.t -> result * trace_event list
(** [run] with a full per-stage execution trace, for debugging active
    programs (the CLI's [trace] subcommand). *)

val latency_us : Rmt.Params.t -> result -> float
(** Client-observed RTT for this execution under the paper's latency
    model: wire RTT plus [pass_latency_us] per pipeline traversed. *)
