module App = Activermt_apps.App
module Spec = Activermt_compiler.Spec
module Trace = Activermt_telemetry.Trace

let request_packet ~fid ~seq (app : App.t) =
  let request =
    Spec.to_request ~elastic:app.App.elastic ~demand_blocks:app.App.demand_blocks
      (App.spec app)
  in
  {
    Activermt.Packet.fid;
    seq;
    flags =
      {
        Activermt.Packet.elastic = app.App.elastic;
        virtual_addressing = true;
        ack = false;
      };
    payload = Activermt.Packet.Request request;
  }

let extraction_done_packet ~fid =
  {
    Activermt.Packet.fid;
    seq = 0;
    flags = { Activermt.Packet.no_flags with ack = true };
    payload = Activermt.Packet.Bare;
  }

let release_packet ~fid =
  { Activermt.Packet.fid; seq = 0; flags = Activermt.Packet.no_flags;
    payload = Activermt.Packet.Bare }

let granted_regions (pkt : Activermt.Packet.t) =
  match pkt.Activermt.Packet.payload with
  | Activermt.Packet.Response { status = Activermt.Packet.Granted; regions } ->
    Some regions
  | Activermt.Packet.Response { status = Activermt.Packet.Rejected; _ }
  | Activermt.Packet.Request _ | Activermt.Packet.Exec _ | Activermt.Packet.Bare ->
    None

(* -- Retrying negotiation sessions --------------------------------------- *)

type backoff = {
  base_timeout_s : float;
  multiplier : float;
  max_timeout_s : float;
  jitter : float;
  max_attempts : int;
}

let default_backoff =
  {
    base_timeout_s = 0.25;
    multiplier = 2.0;
    max_timeout_s = 4.0;
    jitter = 0.1;
    max_attempts = 6;
  }

let no_retry = { default_backoff with max_attempts = 1 }

let validate_backoff b =
  if b.base_timeout_s <= 0.0 then
    invalid_arg "Negotiate: base_timeout_s must be positive";
  if b.multiplier < 1.0 then invalid_arg "Negotiate: multiplier must be >= 1";
  if b.max_timeout_s < b.base_timeout_s then
    invalid_arg "Negotiate: max_timeout_s must be >= base_timeout_s";
  if b.jitter < 0.0 || b.jitter >= 1.0 then
    invalid_arg "Negotiate: jitter must be in [0, 1)";
  if b.max_attempts < 1 then invalid_arg "Negotiate: max_attempts must be >= 1"

type outcome =
  | Granted of Activermt.Packet.region option array
  | Rejected
  | Timeout

type session = {
  s_fid : Activermt.Packet.fid;
  app : App.t;
  backoff : backoff;
  rng : Stdx.Prng.t;
  tracer : Trace.t;
  mutable trace : Trace.ctx option;
  mutable attempts : int;
  mutable cur_timeout_s : float;
  mutable deadline_s : float;
  mutable outcome : outcome option;
}

let session ?(backoff = default_backoff) ?(seed = 0x5e55)
    ?(tracer = Trace.noop) ~fid app =
  validate_backoff backoff;
  {
    s_fid = fid;
    app;
    backoff;
    (* Decorrelate per-FID jitter so a fleet of clients created from one
       base seed doesn't retry in lockstep. *)
    rng = Stdx.Prng.create ~seed:(seed lxor (fid * 0x2545F49));
    tracer;
    trace = None;
    attempts = 0;
    cur_timeout_s = backoff.base_timeout_s;
    deadline_s = infinity;
    outcome = None;
  }

let attempts s = s.attempts
let outcome s = s.outcome
let trace s = s.trace

(* Full jitter would defeat the determinism tests' round numbers; a
   bounded symmetric factor keeps the retry spread while staying within
   [1-j, 1+j] of the nominal timeout. *)
let jittered s dt =
  if s.backoff.jitter <= 0.0 then dt
  else dt *. (1.0 +. (s.backoff.jitter *. ((2.0 *. Stdx.Prng.float s.rng 1.0) -. 1.0)))

let transmit s ~now ~send =
  s.attempts <- s.attempts + 1;
  s.deadline_s <- now +. jittered s s.cur_timeout_s;
  (match s.trace with
  | Some ctx ->
    ignore
      (Trace.span s.tracer ctx ~t_start:now ~t_end:now
         ~attrs:
           [
             ("attempt", string_of_int s.attempts);
             ("seq", string_of_int (s.attempts - 1));
             ("timeout_s", Printf.sprintf "%g" (s.deadline_s -. now));
           ]
         "negotiate.attempt")
  | None -> ());
  send (request_packet ~fid:s.s_fid ~seq:(s.attempts - 1) s.app)

let settle s outcome how =
  s.outcome <- Some outcome;
  match s.trace with
  | Some ctx ->
    ignore
      (Trace.instant s.tracer ctx
         ~attrs:
           [ ("outcome", how); ("attempts", string_of_int s.attempts) ]
         "negotiate.settled")
  | None -> ()

let start s ~now ~send =
  if s.attempts > 0 then invalid_arg "Negotiate.start: session already started";
  s.trace <-
    Trace.start_trace s.tracer
      ~attrs:[ ("fid", string_of_int s.s_fid) ]
      "negotiate.session";
  transmit s ~now ~send

let on_packet s (pkt : Activermt.Packet.t) =
  if pkt.Activermt.Packet.fid <> s.s_fid then `Ignored
  else
    match (s.outcome, pkt.Activermt.Packet.payload) with
    | Some _, _ -> `Stale
    | None, Activermt.Packet.Response { status = Activermt.Packet.Granted; regions }
      ->
      (* Any granted response settles the session — responses to older
         attempts are equally valid because the switch dedups by FID. *)
      settle s (Granted regions) "granted";
      `Granted regions
    | None, Activermt.Packet.Response { status = Activermt.Packet.Rejected; _ } ->
      settle s Rejected "rejected";
      `Rejected
    | None, (Activermt.Packet.Request _ | Activermt.Packet.Exec _ | Activermt.Packet.Bare)
      ->
      `Ignored

let on_alloc_failed s =
  if s.outcome = None then settle s Rejected "alloc_failed"

let tick s ~now ~send =
  match s.outcome with
  | Some o -> `Done o
  | None ->
    if s.attempts = 0 then invalid_arg "Negotiate.tick: session not started";
    if now < s.deadline_s then `Wait (s.deadline_s -. now)
    else if s.attempts >= s.backoff.max_attempts then begin
      settle s Timeout "timeout";
      `Done Timeout
    end
    else begin
      s.cur_timeout_s <-
        Float.min (s.cur_timeout_s *. s.backoff.multiplier) s.backoff.max_timeout_s;
      transmit s ~now ~send;
      `Wait (s.deadline_s -. now)
    end
