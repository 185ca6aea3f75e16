type t = {
  rng : Stdx.Prng.t;
  n : int;
  exponent : float;
  cdf : float array;  (* cdf.(i) = P(rank <= i) *)
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
  { rng; n; exponent; cdf }

let sample t =
  let u = Stdx.Prng.float t.rng 1.0 in
  (* Binary search for the first index with cdf >= u. *)
  let rec bs lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) >= u then bs lo mid else bs (mid + 1) hi
    end
  in
  bs 0 (t.n - 1)

let pmf t i =
  if i < 0 || i >= t.n then 0.0
  else if i = 0 then t.cdf.(0)
  else t.cdf.(i) -. t.cdf.(i - 1)

let head_mass t k =
  if k <= 0 then 0.0 else if k >= t.n then 1.0 else t.cdf.(k - 1)
