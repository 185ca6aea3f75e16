type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let summarize xs =
  match xs with
  | [] -> { n = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0 }
  | x :: _ ->
    let n = List.length xs in
    let m = mean xs in
    let var =
      List.fold_left (fun acc v -> acc +. ((v -. m) *. (v -. m))) 0.0 xs
      /. float_of_int n
    in
    let mn = List.fold_left min x xs and mx = List.fold_left max x xs in
    { n; mean = m; stddev = sqrt var; min = mn; max = mx }

let percentile xs p =
  if xs = [] then invalid_arg "Stats.percentile: empty sample";
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg "Stats.percentile: p out of range";
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let jain_fairness xs =
  let n = List.length xs in
  if n = 0 then 1.0
  else begin
    let s = List.fold_left ( +. ) 0.0 xs in
    let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if s2 = 0.0 then 1.0 else s *. s /. (float_of_int n *. s2)
  end

type boxplot = {
  q1 : float;
  q2 : float;
  q3 : float;
  whisker_lo : float;
  whisker_hi : float;
}

let boxplot xs =
  let q1 = percentile xs 25.0
  and q2 = percentile xs 50.0
  and q3 = percentile xs 75.0 in
  let iqr = q3 -. q1 in
  let s = summarize xs in
  {
    q1;
    q2;
    q3;
    whisker_lo = Float.max s.min (q1 -. (1.5 *. iqr));
    whisker_hi = Float.min s.max (q3 +. (1.5 *. iqr));
  }
