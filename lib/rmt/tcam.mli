(** TCAM model for memory protection.

    ActiveRMT enforces per-program memory bounds with range matches on MAR
    in TCAM (Section 3.1), and TCAM capacity "ends up being the resource
    bottleneck for the number of distinct address ranges" the switch can
    support.  Hardware TCAMs match ternary prefixes, so an arbitrary
    inclusive range [lo, hi] must be expanded into O(2w) prefixes; we
    implement the standard minimal prefix cover and account entries against
    a per-stage capacity, making admission fail realistically when many
    small allocations fragment a stage. *)

type prefix = { value : int; prefix_len : int }
(** Matches MAR values whose top [prefix_len] bits (of the configured
    width) equal those of [value]. *)

val prefixes_of_range : width:int -> lo:int -> hi:int -> prefix list
(** Minimal prefix cover of the inclusive range; [] if [lo > hi].
    @raise Invalid_argument if the bounds exceed [width] bits. *)

val entries_for_range : width:int -> lo:int -> hi:int -> int
(** Number of TCAM entries the range costs: the length of
    [prefixes_of_range] on the same arguments, counted in O(width) time
    without building the cover.  Raises as [prefixes_of_range] does. *)

type t
(** A per-stage TCAM's entry accounting: how many of its bounded
    capacity the installed ranges' prefix covers take. *)

type handle

val create : width:int -> capacity:int -> t
val used : t -> int
val free : t -> int

val install_range : t -> lo:int -> hi:int -> (handle, [ `Capacity ]) result
(** Charge a range's prefix cover against the capacity; fails without
    side effects if it does not fit. *)

val remove : t -> handle -> unit
(** Remove a previously installed range.  Idempotent. *)
