module Memsync = Activermt_apps.Memsync
module Trace = Activermt_telemetry.Trace

type op = Read | Write of (int -> int list)

type slot = {
  mutable acked : bool;
  mutable last_sent : float;
  mutable seq : int;
  mutable tries : int;
  mutable cur_timeout_s : float;  (* nominal (un-jittered) timeout *)
  mutable armed_timeout_s : float;  (* jittered timeout armed at transmit *)
}

type t = {
  fid : Activermt.Packet.fid;
  stages : int list;
  count : int;
  timeout_s : float;
  multiplier : float;
  max_timeout_s : float;
  jitter : float;
  max_attempts : int;  (* 0 = unbounded (legacy behavior) *)
  rng : Stdx.Prng.t;
  tracer : Trace.t;
  mutable trace : Trace.ctx option;
  op : op;
  program : Activermt.Program.t;
  slots : slot array;
  seq_to_index : (int, int) Hashtbl.t;
  results : int array array;
  mutable next_seq : int;
  mutable sent : int;
}

let vflags = { Activermt.Packet.no_flags with virtual_addressing = true }

let create ?(multiplier = 1.0) ?max_timeout_s ?(jitter = 0.0) ?(max_attempts = 0)
    ?(seed = 0x315d) ?(tracer = Trace.noop) ~fid ~stages ~count ~timeout_s op =
  if count <= 0 then invalid_arg "Memsync_driver.create: count must be positive";
  if timeout_s <= 0.0 then invalid_arg "Memsync_driver.create: timeout must be positive";
  if multiplier < 1.0 then
    invalid_arg "Memsync_driver.create: multiplier must be >= 1";
  if jitter < 0.0 || jitter >= 1.0 then
    invalid_arg "Memsync_driver.create: jitter must be in [0, 1)";
  if max_attempts < 0 then
    invalid_arg "Memsync_driver.create: max_attempts must be >= 0";
  let max_timeout_s = Option.value max_timeout_s ~default:(16.0 *. timeout_s) in
  if max_timeout_s < timeout_s then
    invalid_arg "Memsync_driver.create: max_timeout_s must be >= timeout_s";
  let program =
    match op with
    | Read -> Memsync.read_program ~stages
    | Write _ -> Memsync.write_program ~stages
  in
  {
    fid;
    stages;
    count;
    timeout_s;
    multiplier;
    max_timeout_s;
    jitter;
    max_attempts;
    rng = Stdx.Prng.create ~seed:(seed lxor (fid * 0x9E3779B1));
    tracer;
    trace = None;
    op;
    program;
    slots =
      Array.init count (fun _ ->
          {
            acked = false;
            last_sent = neg_infinity;
            seq = -1;
            tries = 0;
            cur_timeout_s = timeout_s;
            armed_timeout_s = timeout_s;
          });
    seq_to_index = Hashtbl.create (2 * count);
    results = Array.make_matrix (List.length stages) count 0;
    next_seq = 1;
    sent = 0;
  }

let outstanding t =
  Array.fold_left (fun acc s -> if s.acked then acc else acc + 1) 0 t.slots

let is_done t = outstanding t = 0

let slot_exhausted t s =
  (not s.acked) && t.max_attempts > 0 && s.tries >= t.max_attempts

let exhausted t =
  Array.fold_left (fun acc s -> if slot_exhausted t s then acc + 1 else acc) 0 t.slots

let unacked t =
  let acc = ref [] in
  for index = t.count - 1 downto 0 do
    if not t.slots.(index).acked then acc := index :: !acc
  done;
  !acc

let packet_for t ~seq ~index =
  let args =
    match t.op with
    | Read -> Memsync.read_args ~index
    | Write values -> Memsync.write_args ~index ~values:(values index)
  in
  Activermt.Packet.exec ~flags:vflags ~fid:t.fid ~seq ~args t.program

(* Jitter is multiplicative and symmetric; with the default jitter = 0
   this is the identity, keeping the legacy fixed-timeout stream (and
   therefore all existing simulations) bit-identical. *)
let jittered t dt =
  if t.jitter <= 0.0 then dt
  else dt *. (1.0 +. (t.jitter *. ((2.0 *. Stdx.Prng.float t.rng 1.0) -. 1.0)))

let transmit t ~now ~send index =
  let slot = t.slots.(index) in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  slot.seq <- seq;
  slot.last_sent <- now;
  if slot.tries > 0 then
    slot.cur_timeout_s <-
      Float.min (slot.cur_timeout_s *. t.multiplier) t.max_timeout_s;
  slot.armed_timeout_s <- jittered t slot.cur_timeout_s;
  slot.tries <- slot.tries + 1;
  t.sent <- t.sent + 1;
  Hashtbl.replace t.seq_to_index seq index;
  send ~seq (packet_for t ~seq ~index)

let op_string = function Read -> "read" | Write _ -> "write"

let start t ~now ~send =
  if t.trace = None then
    t.trace <-
      Trace.start_trace t.tracer
        ~attrs:
          [
            ("fid", string_of_int t.fid);
            ("op", op_string t.op);
            ("count", string_of_int t.count);
            ("stages", String.concat "," (List.map string_of_int t.stages));
          ]
        "memsync.sync";
  for index = 0 to t.count - 1 do
    if not t.slots.(index).acked then transmit t ~now ~send index
  done

let on_reply t ~seq ~args =
  match Hashtbl.find_opt t.seq_to_index seq with
  | None -> false
  | Some index ->
    Hashtbl.remove t.seq_to_index seq;
    let slot = t.slots.(index) in
    if slot.acked then false
    else begin
      slot.acked <- true;
      (match t.op with
      | Read ->
        List.iteri
          (fun k _stage ->
            if k + 1 < Array.length args then t.results.(k).(index) <- args.(k + 1))
          t.stages
      | Write _ -> ());
      (match t.trace with
      | Some ctx when outstanding t = 0 ->
        ignore
          (Trace.instant t.tracer ctx
             ~attrs:[ ("attempts", string_of_int t.sent) ]
             "memsync.done")
      | Some _ | None -> ());
      true
    end

let tick t ~now ~send =
  let resent = ref 0 in
  for index = 0 to t.count - 1 do
    let slot = t.slots.(index) in
    if
      (not slot.acked)
      && (not (slot_exhausted t slot))
      && now -. slot.last_sent >= slot.armed_timeout_s
    then begin
      transmit t ~now ~send index;
      incr resent
    end
  done;
  (match t.trace with
  | Some ctx when !resent > 0 ->
    ignore
      (Trace.span t.tracer ctx ~t_start:now ~t_end:now
         ~attrs:
           [
             ("resent", string_of_int !resent);
             ("outstanding", string_of_int (outstanding t));
           ]
         "memsync.retry")
  | Some _ | None -> ());
  !resent

let values t = t.results
let attempts t = t.sent
let trace t = t.trace
