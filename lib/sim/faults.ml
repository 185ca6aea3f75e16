module Telemetry = Activermt_telemetry.Telemetry

type profile = {
  drop : float;
  duplicate : float;
  corrupt : float;
  jitter_s : float;
  flap_period_s : float;
  flap_down_s : float;
  table_update_slowdown : float;
  table_update_fail : float;
}

let none =
  {
    drop = 0.0;
    duplicate = 0.0;
    corrupt = 0.0;
    jitter_s = 0.0;
    flap_period_s = 0.0;
    flap_down_s = 0.0;
    table_update_slowdown = 1.0;
    table_update_fail = 0.0;
  }

let is_none p = p = none

(* Each check accepts its valid range, so a NaN field fails it. *)
let validate p =
  let prob name v =
    if not (v >= 0.0 && v <= 1.0) then
      invalid_arg (Printf.sprintf "Faults: %s must be in [0, 1], got %g" name v)
  in
  let finite_from lo name v =
    if not (Float.is_finite v && v >= lo) then
      invalid_arg
        (Printf.sprintf "Faults: %s must be finite and >= %g, got %g" name lo v)
  in
  prob "drop" p.drop;
  prob "duplicate" p.duplicate;
  prob "corrupt" p.corrupt;
  prob "table_update_fail" p.table_update_fail;
  finite_from 0.0 "jitter_s" p.jitter_s;
  finite_from 0.0 "flap_period_s" p.flap_period_s;
  finite_from 0.0 "flap_down_s" p.flap_down_s;
  if p.flap_down_s > p.flap_period_s then
    invalid_arg "Faults: flap_down_s must not exceed flap_period_s";
  finite_from 1.0 "table_update_slowdown" p.table_update_slowdown

let lossy ?(drop = 0.0) ?(duplicate = 0.0) ?(corrupt = 0.0) ?(jitter_s = 0.0) () =
  let p = { none with drop; duplicate; corrupt; jitter_s } in
  validate p;
  p

type kind = Drop | Duplicate | Corrupt | Flap | Ctl_fail

let kind_to_string = function
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  | Corrupt -> "corrupt"
  | Flap -> "flap"
  | Ctl_fail -> "ctl_fail"

type event = { time : float; kind : kind }

let pp_event fmt e =
  Format.fprintf fmt "@[<h>t=%.6f %s@]" e.time (kind_to_string e.kind)

(* Bound on the in-memory fault-event trace. *)
let trace_limit = 10_000

type t = {
  profile : profile;
  rng : Stdx.Prng.t;
  tel : Telemetry.t;
  mutable trace : event list; (* newest first *)
  mutable traced : int;
  mutable injected : int;
}

let create ?(seed = 0xFA0175) ?(telemetry = Telemetry.default) profile =
  validate profile;
  {
    profile;
    rng = Stdx.Prng.create ~seed;
    tel = telemetry;
    trace = [];
    traced = 0;
    injected = 0;
  }

let profile t = t.profile
let injected t = t.injected

let record t ~now kind =
  t.injected <- t.injected + 1;
  Telemetry.incr t.tel ("faults.injected." ^ kind_to_string kind);
  if t.traced < trace_limit then begin
    t.trace <- { time = now; kind } :: t.trace;
    t.traced <- t.traced + 1
  end

let events t = List.rev t.trace

(* The flap is a deterministic square wave — a function of simulated time
   only, so it never consumes PRNG state and two runs with the same seed
   see identical link availability regardless of traffic. *)
let link_down t ~now =
  t.profile.flap_period_s > 0.0
  && t.profile.flap_down_s > 0.0
  && Float.rem now t.profile.flap_period_s < t.profile.flap_down_s

type verdict = {
  lose : bool;
  corrupt : bool;
  copies : int;
  cause : kind option;
}

let pass = { lose = false; corrupt = false; copies = 1; cause = None }

(* One fixed draw per probabilistic knob, whether or not it fires, so the
   PRNG stream position depends only on how many packets crossed the
   link — not on which faults happened to trigger. *)
let plan t ~now =
  let u_drop = Stdx.Prng.float t.rng 1.0 in
  let u_corrupt = Stdx.Prng.float t.rng 1.0 in
  let u_dup = Stdx.Prng.float t.rng 1.0 in
  if link_down t ~now then begin
    record t ~now Flap;
    { pass with lose = true; cause = Some Flap }
  end
  else if u_drop < t.profile.drop then begin
    record t ~now Drop;
    { pass with lose = true; cause = Some Drop }
  end
  else if u_corrupt < t.profile.corrupt then begin
    record t ~now Corrupt;
    { pass with corrupt = true; cause = Some Corrupt }
  end
  else if u_dup < t.profile.duplicate then begin
    record t ~now Duplicate;
    { pass with copies = 2; cause = Some Duplicate }
  end
  else pass

let jitter t =
  if t.profile.jitter_s <= 0.0 then 0.0
  else begin
    let j = Stdx.Prng.float t.rng t.profile.jitter_s in
    Telemetry.observe t.tel "faults.jitter_s" j;
    j
  end

let corrupt_bytes t b =
  let damaged = Bytes.copy b in
  if Bytes.length damaged > 0 then begin
    let i = Stdx.Prng.int t.rng (Bytes.length damaged) in
    let mask = 1 + Stdx.Prng.int t.rng 255 in
    Bytes.set_uint8 damaged i (Bytes.get_uint8 damaged i lxor mask)
  end;
  damaged

let scale_table_update t dt = dt *. t.profile.table_update_slowdown

let control_failure t ~now =
  t.profile.table_update_fail > 0.0
  && Stdx.Prng.float t.rng 1.0 < t.profile.table_update_fail
  && begin
       record t ~now Ctl_fail;
       true
     end
