module Telemetry = Activermt_telemetry.Telemetry
module Json = Activermt_telemetry.Json

type status = Ok | Warn | Page

let status_name = function Ok -> "ok" | Warn -> "warn" | Page -> "page"

type stat = Mean | Min | Max

type kind =
  | Ratio of { good : string; total : string; target : float }
  | Quantile of { series : string; q : float; bound : float }
  | Stat of { series : string; stat : stat; cmp : [ `Le | `Ge ]; bound : float }

type t = {
  slo_name : string;
  slo_description : string;
  slo_kind : kind;
  slo_window : int;
  slo_fast_fraction : float;
  slo_page_burn : float;
  slo_warn_burn : float;
}

let make ~name ~description ~window ~fast_fraction ~page_burn ~warn_burn kind =
  if window < 1 then invalid_arg "Slo: window < 1";
  if fast_fraction <= 0.0 || fast_fraction > 1.0 then
    invalid_arg "Slo: fast_fraction outside (0, 1]";
  {
    slo_name = name;
    slo_description = description;
    slo_kind = kind;
    slo_window = window;
    slo_fast_fraction = fast_fraction;
    slo_page_burn = page_burn;
    slo_warn_burn = warn_burn;
  }

let ratio ~name ?(description = "") ?(window = 40) ?(fast_fraction = 0.05)
    ?(page_burn = 14.4) ?(warn_burn = 6.0) ~good ~total ~target () =
  if target < 0.0 || target > 1.0 then invalid_arg "Slo.ratio: target outside [0, 1]";
  make ~name ~description ~window ~fast_fraction ~page_burn ~warn_burn
    (Ratio { good; total; target })

(* Bound SLOs page at any budget burn and warn at 80% of it. *)
let bound_slo ~name ~description ~window kind =
  make ~name ~description ~window ~fast_fraction:0.05 ~page_burn:1.0
    ~warn_burn:0.8 kind

let quantile ~name ?(description = "") ?(window = 40) ~series ~q ~bound () =
  if Float.is_nan q || q < 0.0 || q > 1.0 then
    invalid_arg "Slo.quantile: q outside [0, 1]";
  bound_slo ~name ~description ~window (Quantile { series; q; bound })

let stat ~name ?(description = "") ?(window = 40) ~series ~stat ~cmp ~bound () =
  bound_slo ~name ~description ~window (Stat { series; stat; cmp; bound })

type evaluation = {
  ev_slo : t;
  ev_status : status;
  ev_measured : float;
  ev_fast_measured : float;
  ev_burn_slow : float;
  ev_burn_fast : float;
  ev_detail : string;
}

let fast_window slo =
  max 1 (int_of_float (Float.ceil (float_of_int slo.slo_window *. slo.slo_fast_fraction)))

(* Burn of an upper bound: fraction of the bound consumed.  Burn of a
   lower bound: deficit relative to the headroom above the bound would be
   ill-defined at bound = 1, so use the shortfall ratio against the
   bound's complement when it exists and a plain ratio otherwise. *)
let threshold_burn ~cmp ~bound measured =
  match cmp with
  | `Le -> if bound > 0.0 then measured /. bound else if measured > 0.0 then infinity else 0.0
  | `Ge ->
    if bound <= 0.0 then 0.0
    else if measured >= bound then (bound -. measured) /. bound (* <= 0: inside budget *)
    else (bound -. measured) /. bound +. 1.0
(* For `Ge the result is <= 0 when healthy and > 1 when breached, so the
   same page/warn thresholds apply. *)

(* (measured, burn) of the SLO's quantity over the newest [last] windows. *)
let measure tel slo ~last =
  match slo.slo_kind with
  | Ratio { good; total; target } ->
    let g = (Telemetry.aggregate ~last tel good).Telemetry.sum in
    let tot = (Telemetry.aggregate ~last tel total).Telemetry.sum in
    let ratio = if tot <= 0.0 then 1.0 else Float.min 1.0 (g /. tot) in
    let error = 1.0 -. ratio in
    let budget = 1.0 -. target in
    let burn =
      if budget > 0.0 then error /. budget else if error > 0.0 then infinity else 0.0
    in
    (ratio, burn)
  | Quantile { series; q; bound } ->
    let v = Telemetry.quantile ~last tel series q in
    (v, threshold_burn ~cmp:`Le ~bound v)
  | Stat { series; stat; cmp; bound } ->
    let a = Telemetry.aggregate ~last tel series in
    let v =
      if a.Telemetry.count = 0 then (match cmp with `Le -> 0.0 | `Ge -> bound)
      else if List.assoc_opt series (Telemetry.windowed tel) = Some `Dist then begin
        match stat with
        | Mean -> a.Telemetry.mean
        | Min -> a.Telemetry.min
        | Max -> a.Telemetry.max
      end
      else begin
        (* counter windows carry no samples: the statistic ranges over
           per-window sums *)
        let sums =
          List.map (fun (_, w) -> w.Telemetry.sum) (Telemetry.windows ~last tel series)
        in
        match stat with
        | Mean -> a.Telemetry.sum /. float_of_int (List.length sums)
        | Min -> List.fold_left Float.min infinity sums
        | Max -> List.fold_left Float.max neg_infinity sums
      end
    in
    (v, threshold_burn ~cmp ~bound v)

let threshold_of slo =
  match slo.slo_kind with
  | Ratio { target; _ } -> target
  | Quantile { bound; _ } -> bound
  | Stat { bound; _ } -> bound

let kind_detail slo =
  match slo.slo_kind with
  | Ratio { good; total; target } ->
    Printf.sprintf "sum(%s)/sum(%s) >= %g" good total target
  | Quantile { series; q; bound } ->
    Printf.sprintf "p%g(%s) <= %g" (q *. 100.0) series bound
  | Stat { series; stat; cmp; bound } ->
    Printf.sprintf "%s(%s) %s %g"
      (match stat with Mean -> "mean" | Min -> "min" | Max -> "max")
      series
      (match cmp with `Le -> "<=" | `Ge -> ">=")
      bound

let evaluate tel slo =
  let slow_measured, burn_slow = measure tel slo ~last:slo.slo_window in
  let fast_measured, burn_fast = measure tel slo ~last:(fast_window slo) in
  let status =
    if burn_slow >= slo.slo_page_burn && burn_fast >= slo.slo_page_burn then Page
    else if burn_slow >= slo.slo_warn_burn then Warn
    else Ok
  in
  let detail =
    Printf.sprintf "%s: measured %g (fast %g), burn %g/%g over %dw (fast %dw)"
      (kind_detail slo) slow_measured fast_measured burn_slow burn_fast
      slo.slo_window (fast_window slo)
  in
  {
    ev_slo = slo;
    ev_status = status;
    ev_measured = slow_measured;
    ev_fast_measured = fast_measured;
    ev_burn_slow = burn_slow;
    ev_burn_fast = burn_fast;
    ev_detail = detail;
  }

let json_of_evaluation ev =
  (* infinities don't survive the JSON printer; clamp to a sentinel *)
  let fin x = if Float.is_finite x then x else 1e9 in
  Json.Obj
    [
      ("name", Json.Str ev.ev_slo.slo_name);
      ("description", Json.Str ev.ev_slo.slo_description);
      ("objective", Json.Str (kind_detail ev.ev_slo));
      ("status", Json.Str (status_name ev.ev_status));
      ("threshold", Json.Num (threshold_of ev.ev_slo));
      ("measured", Json.Num (fin ev.ev_measured));
      ("fast_measured", Json.Num (fin ev.ev_fast_measured));
      ("burn_slow", Json.Num (fin ev.ev_burn_slow));
      ("burn_fast", Json.Num (fin ev.ev_burn_fast));
      ("window", Json.Num (float_of_int ev.ev_slo.slo_window));
      ("detail", Json.Str ev.ev_detail);
    ]
