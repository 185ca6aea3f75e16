(** One stage's stateful register memory.

    An RMT stage owns a register array driven by a stateful ALU.  Per
    packet, a match-table action may trigger exactly one register access at
    one index, running one of a fixed set of register micro-programs
    (Section 3.2 defines four memory semantics; together with plain reads
    and writes they back the Appendix A.4 instructions).

    Values are 32-bit, stored as masked OCaml ints.  Each access is
    counted so tests can assert the one-access-per-stage-per-packet
    invariant end to end. *)

type t = {
  data : int array;
      (** Live backing store.  Exposed (with [accesses]) so compiled
          per-packet code ({!Jit}) can inline accesses it has proven in
          bounds; everything else should go through {!access} or the
          [*_counted] entry points.  Stored values are 32-bit masked —
          writers must mask. *)
  mutable accesses : int;
}

(** The stateful-ALU micro-programs exposed to the data plane. *)
type op =
  | Read  (** result = mem[i] *)
  | Write of int  (** mem[i] <- operand; result = operand *)
  | Add_read of int  (** mem[i] <- mem[i] + operand; result = new value *)
  | Min_read of int  (** result = min(mem[i], operand); mem unchanged *)
  | Max_write of int
      (** mem[i] <- max(mem[i], operand); result = old value *)

type access_result = { value : int }

val create : words:int -> t
val words : t -> int

val access : t -> index:int -> op -> access_result
(** Execute one micro-program at [index].
    @raise Invalid_argument if [index] is out of bounds — the runtime's
    protection tables are supposed to make that impossible, so hitting it
    signals a protection bug, not user error. *)

val read_counted : t -> int -> int
val write_counted : t -> int -> int -> unit
val add_read_counted : t -> int -> int -> int

val min_read_counted : t -> int -> int -> int
(** Counted single-op entry points: [read_counted t i] is
    [(access t ~index:i Read).value] (and likewise [Write]/[Add_read]/
    [Min_read]) with identical bounds checking and access accounting but
    no per-call allocation — for compiled per-packet code ({!Jit}). *)

val get : t -> int -> int
(** Control-plane read (BFRT-style), not counted as a data-plane access. *)

val set : t -> int -> int -> unit
(** Control-plane write. *)

val zero_range : t -> lo:int -> hi:int -> unit
(** Control-plane bulk clear of the inclusive range, used when recycling a
    freed allocation. *)

val access_count : t -> int
(** Total data-plane accesses since creation. *)

val snapshot_range : t -> lo:int -> hi:int -> int array
(** Copy of the inclusive range: a control-plane read of a region. *)

val move : t -> src:int -> dst:int -> len:int -> unit
(** Control-plane copy of the [len] words at [src] to [dst] within the
    array, correct when the two ranges overlap — how the controller
    relocates a reallocated app's state (Section 4.3).
    @raise Invalid_argument if either range leaves the array or
    [len < 0]. *)
