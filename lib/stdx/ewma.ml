type t = { alpha : float; mutable current : float option }

let create ~alpha =
  if not (alpha > 0.0 && alpha <= 1.0) then
    invalid_arg "Ewma.create: alpha must be in (0, 1]";
  { alpha; current = None }

let update t x =
  let v =
    match t.current with
    | None -> x
    | Some prev -> (t.alpha *. x) +. ((1.0 -. t.alpha) *. prev)
  in
  t.current <- Some v;
  v
