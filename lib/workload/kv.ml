type key = { k0 : int; k1 : int }

(* k0 is a 32-bit mix of the rank; k1 embeds the rank so that the server
   (and tests) can invert keys without a lookup table. *)
let mix32 x =
  let x = (x lxor (x lsr 16)) * 0x45d9f3b land 0xFFFFFFFF in
  let x = (x lxor (x lsr 16)) * 0x45d9f3b land 0xFFFFFFFF in
  x lxor (x lsr 16)

let key_of_rank rank =
  if rank < 0 then invalid_arg "Kv.key_of_rank: negative rank";
  { k0 = mix32 rank; k1 = rank land 0xFFFFFFFF }

let value_of_rank rank = (mix32 (rank + 0x5151) lor 1) land 0xFFFFFFFF

let rank_of_key k =
  let rank = k.k1 in
  if rank >= 0 && (key_of_rank rank).k0 = k.k0 then Some rank else None
