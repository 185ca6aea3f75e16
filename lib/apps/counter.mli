(** A per-flow packet counter: the simplest stateful telemetry service.

    Each activated packet increments its flow's counter (the client hashes
    the flow to a slot, direct addressing as in Section 3.2) and carries
    the updated count back in the packet, so end hosts read their own
    traffic counters inline.  Not one of the paper's three evaluation
    services, but a natural fourth tenant built on MEM_INCREMENT. *)

val program : Activermt.Program.t
(** 4 instructions, one memory access. *)

val service : App.t
(** Inelastic, 4 blocks (1024 flow slots). *)

val arg_count : int

val args : slot:int -> int array

val slot_of_flow : slots:int -> int array -> int
(** Client-side slot hashing over the flow key words. *)
