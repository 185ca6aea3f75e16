(** Active packet formats and their byte-level codec (Section 3.3).

    Every active packet starts with a 10-byte initial header carrying the
    program identifier FID and control flags that select one of the packet
    types: allocation request, allocation response, active program, or a
    bare control signal (used e.g. to announce snapshot completion).

    Active-program packets then carry one 16-byte argument header (four
    32-bit data fields) followed by 2-byte instruction headers terminated
    by EOF.  Allocation requests carry eight 3-byte access-constraint
    entries; allocation responses carry one 8-byte region record per
    logical stage. *)

type fid = int
(** Program/service identifier, 16 bits on the wire. *)

type flags = {
  elastic : bool;  (** memory demand is elastic (Section 4.1) *)
  virtual_addressing : bool;
      (** MAR values are region-relative; the switch confines them to the
          granted region (runtime translation, Section 3.2) *)
  ack : bool;  (** generic acknowledgement bit for control exchanges *)
}

val no_flags : flags

type access_constraint = {
  position : int;  (** 0-based instruction index of the access in the most
                       compact program (the paper's lower bound) *)
  min_gap : int;  (** minimum distance from the previous access (B vector) *)
  demand_blocks : int;  (** blocks wanted in that stage; elastic apps put
                            their minimum (>= 1) here *)
}

type request = {
  prog_length : int;
  rts_position : int option;  (** position of RTS if the program has one *)
  accesses : access_constraint list;  (** at most 8 entries fit the header *)
}

val max_request_accesses : int
(** Access constraints an allocation request's header holds: 8. *)

val decodable_request : request -> bool
(** Whether {!decode} can return the request: its length, RTS position
    and every access's position, gap and demand fit their 8-bit header
    fields, and it has at most {!max_request_accesses} accesses. *)

type region = { start_word : int; n_words : int }

type response_status = Granted | Rejected

type response = {
  status : response_status;
  regions : region option array;  (** one slot per logical stage *)
}

type payload =
  | Request of request
  | Response of response
  | Exec of { args : int array; program : Program.t }
      (** [args] has exactly four 32-bit fields: header fields, which
          the switch step rewrites.  The packet owns the array.
          {!Runtime.run} and {!Jit.run} execute on a copy and leave it
          as it was; {!Jit.run_into} executes on the array itself, so a
          switch that returns or forwards the capsule sends its results
          (MBR_STORE) back in the same packet.  Whoever holds the packet
          when it reaches a switch must therefore own it: a sender hands
          it over with the message, and keeps no reference it reads
          later. *)
  | Bare

type t = { fid : fid; seq : int; flags : flags; payload : payload }

val exec : flags:flags -> fid:fid -> seq:int -> args:int array -> Program.t -> t
(** Convenience constructor; pads/checks args to four fields.  A
    four-element [args] is taken as is, not copied: the packet owns it
    from here, so the caller must not write or read it afterwards.
    @raise Invalid_argument on more than four args. *)

val wire_size : stages:int -> t -> int
(** Size in bytes of [encode t] (header overhead a service adds to each
    packet; Section 3.3 discusses this cost). *)

val strip_executed : t -> upto:int -> t
(** Drop the first [upto] instruction headers of an [Exec] packet — the
    Section 3.1 optimization: once an instruction's stage has passed, the
    parser marks its field for removal and the active packet shrinks on
    the wire.  Other payloads are returned unchanged. *)

val encode : t -> Bytes.t
val decode : Bytes.t -> (t, string) result
(** An allocation response decodes as 20 stages of regions. *)
