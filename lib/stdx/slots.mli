(** A direct-mapped front for a table keyed by ints: {!size} slots, key
    [k] in slot [k land (size - 1)], each slot tagged with the key it
    holds.  A lookup is a masked index, a tag compare and a load: it
    never hashes and never allocates.

    The slots only cache.  The table behind them stays the record of
    which keys are bound, and its owner keeps the two in step: {!set}
    whenever it binds a key anew (or finds one there after a miss),
    {!remove} when it unbinds one.  A slot that still holds a value the
    table has since replaced answers with the old value. *)

type 'a t

val size : int
(** Slots per front (64), a power of two. *)

val create : 'a -> 'a t
(** [create none]: every slot empty.  [none] is the value {!find}
    returns on a miss, so it must not be one the caller stores. *)

val find : 'a t -> int -> 'a
(** The value in the key's slot if the slot is tagged with the key,
    else [none]. *)

val set : 'a t -> int -> 'a -> unit
(** Put the value in the key's slot, evicting the key that shared it. *)

val remove : 'a t -> int -> unit
(** Empty the key's slot if it holds the key. *)
