(** Wire encoding of instruction headers.

    Each instruction header is two bytes (Section 3.3): a one-byte opcode
    and a one-byte flag.  The flag byte carries
    - bit 0: the "executed" mark the switch sets so the parser can discard
      the field on the way out (packets shrink after execution);
    - bits 1-3: the instruction's own label plus one (0 = unlabelled);
    - bits 4-6: the branch target for CJUMP/CJUMPI/UJUMP. *)

type decoded = { line : Program.line; executed : bool }

val encode : ?executed:bool -> Program.line -> int * int
(** [(opcode_byte, flag_byte)], both in 0..255. *)

val decode : opcode:int -> flag:int -> (decoded, string) result

val encode_program : Program.t -> Bytes.t
(** Instruction headers for every line plus a terminating EOF header. *)

val decode_program :
  Bytes.t -> off:int -> (Program.t * bool array * int, string) result
(** Decode headers starting at [off] up to and including EOF.  Returns the
    program (EOF stripped, named ["wire"]), the per-line executed marks,
    and the offset one past the EOF header.  Any [off] outside the bytes
    is an [Error]. *)

(** {2 Capsule framing}

    A capsule on the wire carries a trailer, back to front: a 16-bit
    one's-complement checksum, a one-byte extension-flags field, and an
    optional 8-byte trace extension (two big-endian u32s: trace id then
    span id) when flags bit 0 is set.  The checksum covers payload,
    extension and flags, and detects every single-byte error (see the
    implementation note), so the fault simulator's bit-flips always
    surface as a clean rejection — corruption behaves like loss, the
    client's retransmission logic recovers, and a damaged frame can never
    yield a bogus trace context. *)

type trace_ctx = { trace_id : int; span_id : int }
(** In-band trace context carried in the frame trailer so a trace follows
    a capsule across hops.  Both ids are truncated to 32 bits on the
    wire. *)

val frame : ?trace:trace_ctx -> Bytes.t -> Bytes.t
(** Append the trailer: optional 8-byte trace extension, flags byte, and
    2-byte checksum (3 bytes without a trace, 11 with one). *)

val unframe_traced : Bytes.t -> (Bytes.t * trace_ctx option, string) result
(** Verify and strip the trailer, returning the payload and the trace
    context when the frame carries one; [Error] describes the mismatch.
    The checksum is verified before the extension is decoded, so corrupt
    frames never produce a context. *)
