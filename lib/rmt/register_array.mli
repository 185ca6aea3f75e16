(** One stage's stateful register memory.

    An RMT stage owns a register array driven by a stateful ALU.  Per
    packet, a match-table action may trigger exactly one register access at
    one index, running one of a fixed set of register micro-programs
    (Section 3.2 defines four memory semantics; together with plain reads
    and writes they back the Appendix A.4 instructions).

    Values are packed 32-bit words: stores truncate, loads zero-extend.
    Each access is counted so tests can assert the
    one-access-per-stage-per-packet invariant end to end.

    The words fall into chunks of {!chunk_words}, each with one byte in
    [zeroed] that is set only while the chunk holds nothing but zeros.
    The invariant: a chunk whose byte is set reads all zeros.  Every
    write clears its chunk's byte, so {!zero_range} fills only the
    chunks written since they were last cleared, and a {!move} whose
    source holds no such chunk is that clear of its destination: a
    relocation or a recycle of words the data plane never wrote costs a
    scan of one byte per chunk, not the address range. *)

type t = {
  data : Bytes.t;
      (** Live backing store: word [i] occupies bytes [4i .. 4i+3] in
          native byte order (it is never serialised).  Exposed (with
          [zeroed] and [accesses]) so compiled per-packet code ({!Jit})
          can inline accesses it has proven in bounds through
          {!unsafe_get32} and {!unsafe_set32}; everything else should go
          through {!access} or the [*_counted] entry points. *)
  zeroed : Bytes.t;
      (** Byte [c] is ['\001'] only if words [c * chunk_words] to the
          end of their chunk are all zero, ['\000'] if any of them may
          not be.  Whoever stores into [data] directly clears byte
          [i lsr chunk_shift] of word [i] first, or a later {!move} or
          {!zero_range} takes the stored word for a zero. *)
  mutable accesses : int;
}

val chunk_shift : int
(** A word's chunk is its index shifted right by this (8). *)

val chunk_words : int
(** Words per chunk ([1 lsl chunk_shift] = 256; the last chunk of an
    array whose size is not a multiple is shorter). *)

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
(** Control-plane write. *)

val zero_range : t -> lo:int -> hi:int -> unit
(** Control-plane bulk clear of the inclusive range, used when recycling
    a freed allocation: it fills only the chunks written since they were
    last cleared, then marks each chunk it covers in full.  An empty
    range is [hi = lo - 1].
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
    A source whose chunks are all marked zero is a clear of the
    destination as by {!zero_range}; any other source is copied whole,
    and the destination's chunks are then no longer marked.
    @raise Invalid_argument if either range leaves the array or
    [len < 0]. *)
