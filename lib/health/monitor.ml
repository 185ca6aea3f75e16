module Telemetry = Activermt_telemetry.Telemetry
module Json = Activermt_telemetry.Json

type recorded_event = { re_at : float; re_trace_id : int option }

type ring = {
  buf : recorded_event option array;
  mutable head : int; (* next write position *)
  mutable count : int;
}

let ring_make cap = { buf = Array.make cap None; head = 0; count = 0 }

let ring_push r e =
  r.buf.(r.head) <- Some e;
  r.head <- (r.head + 1) mod Array.length r.buf;
  if r.count < Array.length r.buf then r.count <- r.count + 1

(* oldest-first *)
let ring_to_list r =
  let cap = Array.length r.buf in
  let out = ref [] in
  for k = 0 to r.count - 1 do
    let i = (r.head - 1 - k + (2 * cap)) mod cap in
    match r.buf.(i) with Some e -> out := e :: !out | None -> ()
  done;
  !out

type trigger =
  | Event_count of { event : string; max : int }
  | Series_sum of { series : string; max : float }

type watchdog = {
  wd_name : string;
  wd_description : string;
  wd_window : int;
  wd_trigger : trigger;
  wd_severity : Slo.status;
}

type incident = {
  i_seq : int;
  i_at : float;
  i_source : string;
  i_severity : Slo.status;
  i_measured : float;
  i_threshold : float;
  i_detail : string;
  i_trace_ids : int list;
}

(* Bound on each event ring; the oldest event is dropped first. *)
let event_capacity = 4096

type t = {
  tel : Telemetry.t;
  events : (string, ring) Hashtbl.t;
  mutable watchdogs : watchdog list; (* insertion order *)
  open_sources : (string, Slo.status) Hashtbl.t; (* currently-tripped rules *)
  mutable log : incident list; (* newest first *)
  mutable n_incidents : int;
  mutable pages : int;
  mutable warns : int;
}

let create ~telemetry () =
  {
    tel = telemetry;
    events = Hashtbl.create 32;
    watchdogs = [];
    open_sources = Hashtbl.create 16;
    log = [];
    n_incidents = 0;
    pages = 0;
    warns = 0;
  }

let telemetry t = t.tel

let event t ?t:tm ?trace_id name =
  let at = match tm with Some x -> x | None -> Telemetry.clock t.tel in
  Telemetry.add t.tel ~at name;
  let r =
    match Hashtbl.find_opt t.events name with
    | Some r -> r
    | None ->
      let r = ring_make event_capacity in
      Hashtbl.add t.events name r;
      r
  in
  ring_push r { re_at = at; re_trace_id = trace_id }

let add_watchdog t wd =
  if wd.wd_window < 1 then invalid_arg "Monitor.add_watchdog: window < 1";
  t.watchdogs <- t.watchdogs @ [ wd ]

let append_incident t ~at ~source ~severity ~measured ~threshold ~detail ~trace_ids =
  let inc =
    {
      i_seq = t.n_incidents;
      i_at = at;
      i_source = source;
      i_severity = severity;
      i_measured = measured;
      i_threshold = threshold;
      i_detail = detail;
      i_trace_ids = trace_ids;
    }
  in
  t.n_incidents <- t.n_incidents + 1;
  (match severity with
  | Slo.Page -> t.pages <- t.pages + 1
  | Slo.Warn -> t.warns <- t.warns + 1
  | Slo.Ok -> ());
  t.log <- inc :: t.log

(* Record a rule's current status; append an incident iff it newly trips
   or escalates (Warn -> Page). *)
let transition t ~at ~source ~status ~measured ~threshold ~detail ~trace_ids =
  let prev = Hashtbl.find_opt t.open_sources source in
  match status with
  | Slo.Ok -> Hashtbl.remove t.open_sources source
  | (Slo.Warn | Slo.Page) as sev ->
    let escalated =
      match prev with
      | None -> true
      | Some Slo.Warn -> sev = Slo.Page
      | Some Slo.Page -> false
      | Some Slo.Ok -> true
    in
    Hashtbl.replace t.open_sources source sev;
    if escalated then
      append_incident t ~at ~source ~severity:sev ~measured ~threshold ~detail
        ~trace_ids

let check_watchdog t ~at wd =
  match wd.wd_trigger with
  | Event_count { event; max } ->
    let horizon = at -. (float_of_int wd.wd_window *. Telemetry.window_s) in
    let recent =
      match Hashtbl.find_opt t.events event with
      | None -> []
      | Some r -> List.filter (fun e -> e.re_at > horizon && e.re_at <= at) (ring_to_list r)
    in
    let n = List.length recent in
    let status = if n > max then wd.wd_severity else Slo.Ok in
    let trace_ids = List.filter_map (fun e -> e.re_trace_id) recent in
    let detail =
      Printf.sprintf "%s: %d %s events in the last %dw (max %d)" wd.wd_description
        n event wd.wd_window max
    in
    transition t ~at ~source:wd.wd_name ~status ~measured:(float_of_int n)
      ~threshold:(float_of_int max) ~detail ~trace_ids
  | Series_sum { series; max } ->
    let v = (Telemetry.aggregate ~last:wd.wd_window t.tel series).Telemetry.sum in
    let status = if v > max then wd.wd_severity else Slo.Ok in
    let detail =
      Printf.sprintf "%s: sum(%s)=%g over %dw (max %g)" wd.wd_description series v
        wd.wd_window max
    in
    transition t ~at ~source:wd.wd_name ~status ~measured:v ~threshold:max ~detail
      ~trace_ids:[]

(* [at] defaults to the registry clock, matching [event] — a monitor
   checked without an explicit instant evaluates "now", not t=0. *)
let check ?at t =
  let at = match at with Some x -> x | None -> Telemetry.clock t.tel in
  List.iter (check_watchdog t ~at) t.watchdogs

let evaluate ?at t slos =
  let at = match at with Some x -> x | None -> Telemetry.clock t.tel in
  check ~at t;
  List.map
    (fun slo ->
      let ev = Slo.evaluate t.tel slo in
      transition t ~at ~source:slo.Slo.slo_name ~status:ev.Slo.ev_status
        ~measured:ev.Slo.ev_measured ~threshold:(Slo.threshold_of slo)
        ~detail:ev.Slo.ev_detail ~trace_ids:[];
      ev)
    slos

let incidents t = List.rev t.log
let page_count t = t.pages
let warn_count t = t.warns
let healthy t = t.pages = 0

let json_of_incident i =
  Json.Obj
    [
      ("seq", Json.Num (float_of_int i.i_seq));
      ("at", Json.Num i.i_at);
      ("source", Json.Str i.i_source);
      ("severity", Json.Str (Slo.status_name i.i_severity));
      ("measured", Json.Num i.i_measured);
      ("threshold", Json.Num i.i_threshold);
      ("detail", Json.Str i.i_detail);
      ( "trace_ids",
        Json.Arr (List.map (fun id -> Json.Num (float_of_int id)) i.i_trace_ids) );
    ]

let json_report ?(slos = []) t =
  Json.Obj
    [
      ("healthy", Json.Bool (healthy t));
      ("pages", Json.Num (float_of_int t.pages));
      ("warns", Json.Num (float_of_int t.warns));
      ("slos", Json.Arr (List.map Slo.json_of_evaluation slos));
      ("incidents", Json.Arr (List.map json_of_incident (incidents t)));
      ("series", Telemetry.series_json t.tel);
    ]
