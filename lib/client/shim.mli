(** Client shim state machine (Section 5).

    Tracks what state a service is in: operational (programs ride on
    outgoing packets), negotiating (an allocation request/release is in
    flight; active transmission pauses), or memory management (responding
    to a reallocation: extracting and rewriting state).  Illegal
    transitions are rejected so tests can pin the protocol down. *)

type state = Idle | Negotiating | Operational | Memory_management

type t

val create : fid:Activermt.Packet.fid -> t
val state : t -> state

val seq : t -> int
(** Next sequence number (monotonic; stamped into packets). *)

val next_seq : t -> int

type event =
  | Request_sent
  | Response_granted
  | Response_rejected
  | Realloc_notified
  | Extraction_done
  | Released

val transition : t -> event -> (state, string) result
(** Apply a protocol event; [Error] on an illegal transition (state is
    left unchanged). *)

val can_transmit : t -> bool
(** Active transmissions happen only in the operational state. *)
