(** One stage's stateful register memory.

    An RMT stage owns a register array driven by a stateful ALU.  Per
    packet, a match-table action may trigger exactly one register access at
    one index, running one of a fixed set of register micro-programs
    (Section 3.2 defines four memory semantics; together with plain reads
    and writes they back the Appendix A.4 instructions).

    Values are packed 32-bit words: stores truncate, loads zero-extend.
    Each access is counted so tests can assert the
    one-access-per-stage-per-packet invariant end to end.

    An array also keeps the access count at which it was last known to
    hold nothing but zeros: {!create} sets it, a {!zero_range} over the
    whole array sets it again, and {!set} forgets it.  While the count
    has not moved since, the array reads all zeros, so {!move} and
    {!zero_range} do nothing: a relocation or a recycle on a stage the
    data plane never touched costs no copy and no fill. *)

type t = {
  data : Bytes.t;
      (** Live backing store: word [i] occupies bytes [4i .. 4i+3] in
          native byte order (it is never serialised).  Exposed (with
          [accesses]) so compiled per-packet code ({!Jit}) can inline
          accesses it has proven in bounds through {!unsafe_get32} and
          {!unsafe_set32}; everything else should go through {!access}
          or the [*_counted] entry points. *)
  mutable accesses : int;
      (** Data-plane accesses since creation.  Whoever stores into
          [data] directly counts the access first, or a later {!move}
          or {!zero_range} may take the array for all zeros. *)
  mutable zero_at : int;
      (** The value of [accesses] at which the array was last known all
          zero, or [-1] once a control-plane write forgot it.  Only this
          module writes it. *)
}

(** {2 Unchecked word access}

    The compiler's own primitives, declared here as [external]s so every
    caller compiles them inline: a function exported from this module
    would be an out-of-line call wherever cross-module inlining is off
    (dune's dev profile compiles with [-opaque]).  Both take a {e byte}
    offset ([4 * index]) and do no bounds check. *)

external unsafe_get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
(** The word at the byte offset, as a signed [int32]: zero-extend with
    [Int32.to_int w land 0xFFFFFFFF]. *)

external unsafe_set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
(** Store a word at the byte offset; [Int32.of_int v] keeps the low 32
    bits of [v]. *)

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
(** Control-plane write.  It is not a counted access, so it forgets that
    the array is known zero. *)

val zero_range : t -> lo:int -> hi:int -> unit
(** Control-plane bulk clear of the inclusive range, used when recycling
    a freed allocation: nothing while the array is known zero, else one
    fill; a clear of the whole array makes it known zero again.  An
    empty range is [hi = lo - 1].
    @raise Invalid_argument if [lo] or [hi] is out of bounds or
    [hi < lo - 1]. *)

val access_count : t -> int
(** Total data-plane accesses since creation. *)

val snapshot_range : t -> lo:int -> hi:int -> int array
(** Copy of the inclusive range: a control-plane read of a region. *)

val move : t -> src:int -> dst:int -> len:int -> unit
(** Control-plane copy of the [len] words at [src] to [dst] within the
    array, correct when the two ranges overlap (memmove semantics) — how
    the controller relocates a reallocated app's state (Section 4.3).
    Nothing while the array is known zero, else one copy.
    @raise Invalid_argument if either range leaves the array or
    [len < 0]. *)
