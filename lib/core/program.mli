(** Active programs: a sequence of (optionally labelled) instructions.

    A label marks an instruction as a branch target; branches must jump
    strictly forward because execution proceeds stage by stage
    (Section 3.1).  [validate] checks this and the other structural rules
    the runtime relies on. *)

type line = { instr : Instr.t; label : Instr.label option }

type t = private {
  name : string;
  lines : line array;  (** excludes the terminating EOF *)
}

val v : ?name:string -> line list -> t
(** Build without validation (tests use this to make bad programs). *)

val of_array : name:string -> line array -> t
(** {!v} over an array the program keeps: the caller must not write it
    afterwards. *)

val line : ?label:Instr.label -> Instr.t -> line
val plain : Instr.t list -> line list
(** Lines without labels, for label-free programs. *)

val length : t -> int

type error =
  | Backward_or_missing_label of { at : int; target : Instr.label }
  | Duplicate_label of Instr.label
  | Embedded_eof of int
  | Unreachable_after_return of int

val validate : t -> (t, error) result
val error_to_string : error -> string

val memory_access_positions : t -> int list
(** 0-based instruction indices that access stage memory, in order; the
    paper's example quotes Listing 1 as accesses at (1-based) lines 2, 5
    and 9. *)

val position_of_first : t -> f:(Instr.t -> bool) -> int option

val rts_position : t -> int option
(** Position of the first RTS/CRTS, which constrains mutants to the
    ingress pipeline when avoiding recirculation. *)

val parse : ?name:string -> string -> (t, string) result
(** Parse assembly text: one instruction per line; [;] or [//] start
    comments; a leading [Ln:] sets a label; blank lines ignored.
    Validates before returning. *)

val to_assembly : t -> string
val equal : t -> t -> bool
