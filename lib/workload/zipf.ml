type t = {
  rng : Stdx.Prng.t;
  n : int;
  exponent : float;
  cdf : float array;  (* cdf.(i) = P(rank <= i) *)
  guide : int array;
      (* guide.(j) = the first index whose cdf is >= j / m, for m the
         next power of two >= n *)
  m : float;  (* m, the guide's length *)
}

let create ?(exponent = 0.99) ~n rng =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** exponent)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  let m = ref 1 in
  while !m < n do
    m := 2 * !m
  done;
  let m = !m in
  let guide = Array.make m 0 in
  let i = ref 0 in
  for j = 0 to m - 1 do
    let x = float_of_int j /. float_of_int m in
    while cdf.(!i) < x do
      incr i
    done;
    guide.(j) <- !i
  done;
  { rng; n; exponent; cdf; guide; m = float_of_int m }

(* The first index whose cdf is >= u, by indexed search: u lies in the
   1/m-wide slice [j / m, (j + 1) / m) of [0, 1), so the rank lies
   between the guide entries of slices j and j + 1 (the last index for
   the last slice), and a binary search between them finds it.  As m is
   a power of two, [u *. m] and every [j / m] are exact, so the rank is
   the one a binary search over the whole cdf returns. *)
let sample t =
  let u = Stdx.Prng.float t.rng 1.0 in
  let j = int_of_float (u *. t.m) in
  let lo = ref t.guide.(j) in
  let hi = ref (if j + 1 < Array.length t.guide then t.guide.(j + 1) else t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let pmf t i =
  if i < 0 || i >= t.n then 0.0
  else if i = 0 then t.cdf.(0)
  else t.cdf.(i) -. t.cdf.(i - 1)

let head_mass t k =
  if k <= 0 then 0.0 else if k >= t.n then 1.0 else t.cdf.(k - 1)
