module Controller = Activermt_control.Controller
module Telemetry = Activermt_telemetry.Telemetry
module Trace = Activermt_telemetry.Trace

type address = int

let switch_address = 0

type payload =
  | Active of Activermt.Packet.t
  | Kv_request of { key : Workload.Kv.key }
  | Kv_reply of { key : Workload.Kv.key; value : int }
  | Alloc_failed
  | Notify_realloc

type msg = {
  mutable src : address;
  mutable dst : address;
  payload : payload;
  trace : Trace.ctx option;
}

let msg ~src ~dst payload = { src; dst; payload; trace = None }

(* One-way latency of every hop. *)
let wire_latency_s = 5.0e-6

module Addr_tbl = Hashtbl.Make (Int)

(* A count under its metric name, formatted once.  The fabric's source
   closes over its counts, never the fabric, so the registry keeps no
   fabric (nor its controller's device) alive. *)
type count = { name : string; mutable n : int }

let[@inline] bump c = c.n <- c.n + 1

(* Everything the fabric knows of an address: the handler attached to
   it ([None]: its messages go to the default handler), and its receive
   and send counts, made when the address is first seen.  Attaching
   again makes a new record around the same counts.  The counts are
   also in the source's list, which holds no handler: a handler may
   hold the fabric. *)
type node = { handler : (msg -> unit) option; rx : count; tx : count }

(* What a slot holds when empty: never attached, never counted. *)
let no_node =
  { handler = None; rx = { name = ""; n = 0 }; tx = { name = ""; n = 0 } }

type t = {
  engine : Engine.t;
  controller : Controller.t;
  address : address;
  faults : Faults.t option;
  nodes : node Addr_tbl.t;
  slots : node Stdx.Slots.t;  (* direct-mapped front of [nodes] *)
  counts : count list ref;  (* every count, as the source reads them *)
  mutable default_node : (msg -> unit) option;
  owners : (Activermt.Packet.fid, address) Hashtbl.t;
  jit : Activermt.Jit.t;
  tel : Telemetry.t;
  sent : count;
  delivered : count;
  lost : count;
  dropped : count;
  tracer : Trace.t;
  (* Built once per fabric: a hop ends in one of these handlers, and
     untraced capsules execute into [outcome]. *)
  to_switch : msg -> unit;
  to_node : msg -> unit;
  mutable lanes : msg Engine.lane array;
      (* made on first use: [lanes.(0)] runs [to_switch] after the wire
         latency, [lanes.(1 + p)] runs [to_node] after [p] pipeline passes
         and the wire *)
  outcome : Activermt.Jit.outcome;
}

let faults t = t.faults
let jit t = t.jit

(* [addr]'s record, through its slot, then the table; [no_node] when the
   address has none.  A record found in the table takes the slot. *)
let find_node t addr =
  let node = Stdx.Slots.find t.slots addr in
  if node != no_node then node
  else
    match Addr_tbl.find t.nodes addr with
    | node ->
      Stdx.Slots.set t.slots addr node;
      node
    | exception Not_found -> no_node

(* Bind [addr] to [node] in the table and its slot. *)
let bind t addr node =
  Addr_tbl.replace t.nodes addr node;
  Stdx.Slots.set t.slots addr node

(* [addr]'s record, made (unattached, counts at zero) if it has none. *)
let node t addr =
  let node = find_node t addr in
  if node != no_node then node
  else begin
    let count dir = { name = Printf.sprintf "sim.node.%d.%s" addr dir; n = 0 } in
    let node = { handler = None; rx = count "rx"; tx = count "tx" } in
    t.counts := node.rx :: node.tx :: !(t.counts);
    bind t addr node;
    node
  end

let attach t addr handler =
  if addr = t.address then invalid_arg "Fabric.attach: switch address reserved";
  bind t addr { (node t addr) with handler = Some handler }

let attach_default t handler = t.default_node <- Some handler

let register_fid t ~fid ~owner = Hashtbl.replace t.owners fid owner

(* ---- Trace plumbing ----
   A message carries its trace context; each hop chains a child event so
   the trace reads as the capsule's itinerary.  Everything below is a
   no-op (one pointer test) when the message is untraced. *)

let tr_on t m =
  match m.trace with
  | Some c when Trace.enabled t.tracer -> Some c
  | Some _ | None -> None

let sw_attr t = ("switch", string_of_int t.address)
let link_attr m = ("link", Printf.sprintf "%d->%d" m.src m.dst)

(* Terminal fault events: nothing downstream chains off them. *)
let tr_fault t m ?(attrs = []) name =
  match tr_on t m with
  | None -> ()
  | Some c ->
    ignore
      (Trace.instant t.tracer c ~attrs:(sw_attr t :: link_attr m :: attrs) name)

(* Chain a hop event: the message continues under the new child span. *)
let tr_hop t m name =
  match tr_on t m with
  | None -> m
  | Some c ->
    let attrs = [ sw_attr t; ("dst", string_of_int m.dst) ] in
    { m with trace = Some (Trace.instant t.tracer c ~attrs name) }

let wire_ctx (c : Trace.ctx) : Activermt.Wire.trace_ctx =
  { Activermt.Wire.trace_id = c.Trace.trace_id; span_id = c.Trace.span_id }

(* Corruption damages the capsule's on-the-wire bytes; the receiving
   parser verifies the frame checksum and discards on mismatch.  A
   single-byte flip is always caught (see Wire.checksum), so the effect
   is loss — but it goes through the real encode/verify path (including
   the in-band trace extension) and is accounted separately.  Non-capsule
   payloads have no frame to damage; a corrupted one is simply
   unparseable, i.e. lost. *)
let corruption_rejected t f m =
  let rejected =
    match m.payload with
    | Active pkt -> (
      let trace = Option.map wire_ctx m.trace in
      let framed = Activermt.Wire.frame ?trace (Activermt.Packet.encode pkt) in
      match Activermt.Wire.unframe_traced (Faults.corrupt_bytes f framed) with
      | Error _ -> true
      | Ok _ -> false)
    | Kv_request _ | Kv_reply _ | Alloc_failed | Notify_realloc -> true
  in
  if rejected then Telemetry.incr t.tel "faults.rejected.checksum";
  rejected

(* A duplicate of [m] that shares nothing the switch step rewrites: its
   own message, and for a capsule its own packet and args. *)
let copy_msg m =
  let payload =
    match m.payload with
    | Active ({ Activermt.Packet.payload = Activermt.Packet.Exec e; _ } as pkt) ->
      let args = Array.copy e.args in
      Active
        { pkt with Activermt.Packet.payload = Activermt.Packet.Exec { e with args } }
    | (Active _ | Kv_request _ | Kv_reply _ | Alloc_failed | Notify_realloc) as p -> p
  in
  { m with payload }

(* One network hop under the fault model: decide the delivery's fate,
   then schedule the surviving copies (each with its own jitter, so
   duplicates and back-to-back sends can reorder).  Every copy after the
   first is a [copy_msg], so each is rewritten on its own.  A jittered
   copy goes straight to the engine's heap: its time is the float
   [Engine.schedule] would compute from the same delay, and one-off
   delays would only churn the engine's lanes of thunks. *)
let faulty_hop t f m ~delay ~event handler =
  let now = Engine.now t.engine in
  let v = Faults.plan f ~now in
  if v.Faults.lose then `Lost v.Faults.cause
  else if v.Faults.corrupt then `Corrupted
  else begin
    for i = 1 to v.Faults.copies do
      let m = if i = 1 then m else copy_msg m in
      Engine.schedule_at t.engine
        ~time:(now +. (delay +. Faults.jitter f))
        (fun () -> handler (tr_hop t m event))
    done;
    `Scheduled v.Faults.copies
  end

let cause_attr = function
  | None -> []
  | Some k -> [ ("cause", Faults.kind_to_string k) ]

(* Schedule one hop of [m] toward [handler] (which receives the message
   with its trace advanced by an [event] child), emitting fault events
   under the message's trace as verdicts land. *)
let traced_or_faulty_hop t m ~delay ~event handler =
  match t.faults with
  | None -> Engine.schedule t.engine ~delay (fun () -> handler (tr_hop t m event))
  | Some f -> (
    match faulty_hop t f m ~delay ~event handler with
    | `Scheduled copies ->
      if copies > 1 then
        tr_fault t m
          ~attrs:[ ("cause", "duplicate"); ("copies", string_of_int copies) ]
          "fault.duplicate"
    | `Lost cause ->
      tr_fault t m ~attrs:(cause_attr cause) "fault.drop";
      bump t.lost
    | `Corrupted ->
      tr_fault t m "fault.corrupt";
      if corruption_rejected t f m then begin
        tr_fault t m ~attrs:[ ("cause", "corrupt") ] "fault.drop";
        bump t.lost
      end)

(* What a fired lane cell holds: never delivered. *)
let no_msg = { src = 0; dst = 0; payload = Alloc_failed; trace = None }

(* The delay of a hop to a node after [pipelines] pipeline passes: the
   pass latency of each, then the wire. *)
let node_delay t pipelines =
  let params = Rmt.Device.params (Controller.device t.controller) in
  (1.0e-6 *. params.Rmt.Params.pass_latency_us *. float_of_int pipelines)
  +. wire_latency_s

(* Lane [i], made with every lane below it that [t] lacks. *)
let add_lanes t i =
  let have = t.lanes in
  let make j =
    if j < Array.length have then have.(j)
    else if j = 0 then Engine.lane t.engine ~delay:wire_latency_s ~none:no_msg t.to_switch
    else Engine.lane t.engine ~delay:(node_delay t (j - 1)) ~none:no_msg t.to_node
  in
  t.lanes <- Array.init (i + 1) make;
  t.lanes.(i)

let[@inline] lane t i =
  let lanes = t.lanes in
  if i < Array.length lanes then Array.unsafe_get lanes i else add_lanes t i

(* Without a trace context or faults [tr_hop] is the identity, so an
   untraced hop on a fault-free fabric pushes the message as it is onto
   one of the fabric's lanes: no closure, no cell, no float.  Any other
   hop takes [traced_or_faulty_hop], the one path that computes a
   delay. *)
let deliver t m ~pipelines =
  match (m.trace, t.faults) with
  | None, None -> Engine.push (lane t (1 + pipelines)) m
  | Some _, _ | _, Some _ ->
    traced_or_faulty_hop t m ~delay:(node_delay t pipelines) ~event:"sim.deliver"
      t.to_node

(* A controller response, after its modeled delay: one closure per
   request. *)
let respond t m ~delay = traced_or_faulty_hop t m ~delay ~event:"sim.deliver" t.to_node

let arrive t m =
  let node = find_node t m.dst in
  match node.handler with
  | Some handler ->
    bump t.delivered;
    bump node.rx;
    handler m
  | None -> (
    match t.default_node with
    | Some handler ->
      bump t.delivered;
      handler m
    | None -> ())

let notify_impacted ?trace t fids =
  List.iter
    (fun fid ->
      match Hashtbl.find_opt t.owners fid with
      | None -> ()
      | Some owner ->
        deliver t
          { src = t.address; dst = owner; payload = Notify_realloc; trace }
          ~pipelines:0)
    fids

let decision_string (o : Activermt.Jit.outcome) =
  match o.Activermt.Jit.dropped with
  | Some reason ->
    let why =
      match reason with
      | Activermt.Runtime.Protection_violation _ -> "protection"
      | Activermt.Runtime.No_allocation _ -> "no_allocation"
      | Activermt.Runtime.Recirculation_limit -> "recirc_limit"
      | Activermt.Runtime.Privilege_violation _ -> "privilege"
      | Activermt.Runtime.Explicit_drop -> "drop"
    in
    "dropped:" ^ why
  | None ->
    if o.Activermt.Jit.rts then "rts" else Printf.sprintf "forward:%d" o.Activermt.Jit.dst

(* Send an executed capsule on after the pass latency of every pipeline
   it traversed and the wire: back to its source on RTS, else toward
   [fwd] (0 keeps it on its way).  The switch owns [m] and rewrites its
   addresses as it does the capsule's args. *)
let send_on t m ~rts ~fwd ~pipelines =
  if rts then begin
    let src = m.src in
    m.src <- m.dst;
    m.dst <- src
  end
  else if fwd <> 0 then m.dst <- fwd;
  deliver t m ~pipelines

(* Act on the switch's decision for a capsule, from the fabric's outcome:
   count a drop, or send the capsule on.  [Jit.run_into] already left the
   results in the capsule's args. *)
let forward_outcome t m (o : Activermt.Jit.outcome) =
  match o.Activermt.Jit.dropped with
  | Some _ -> bump t.dropped
  | None ->
    send_on t m ~rts:o.Activermt.Jit.rts ~fwd:o.Activermt.Jit.dst
      ~pipelines:o.Activermt.Jit.pipelines

let compiles t =
  let _, _, compiles, _ = Activermt.Jit.stats t.jit in
  compiles

(* Execute a traced capsule whose FID has tables under a device.exec
   span, then forward it as an untraced one, in a new message chained
   under the span: the result and a drop hang off the span, and admit.*
   attrs link the data plane back to the control-plane provision span
   that placed this program. *)
let exec_traced t m pkt c =
  let fid = pkt.Activermt.Packet.fid in
  let exec_attrs =
    let jit_attr =
      ( "jit",
        if Activermt.Jit.would_specialize t.jit pkt then "true" else "false" )
    in
    match Controller.admit_trace t.controller ~fid with
    | None -> [ sw_attr t; ("fid", string_of_int fid); jit_attr ]
    | Some a ->
      [
        sw_attr t;
        ("fid", string_of_int fid);
        jit_attr;
        ("admit.trace_id", string_of_int a.Trace.trace_id);
        ("admit.span_id", string_of_int a.Trace.span_id);
      ]
  in
  let o = t.outcome in
  let exec_ctx =
    Trace.with_span t.tracer (Some c) ~attrs:exec_attrs "device.exec"
    @@ fun ec ->
    let compiled = compiles t in
    ignore (Activermt.Jit.run_into t.jit o ~src:m.src ~dst:m.dst pkt);
    (match ec with
    | Some c when compiles t <> compiled ->
      ignore
        (Trace.instant t.tracer c
           ~attrs:[ sw_attr t; ("fid", string_of_int fid) ]
           "jit.compile")
    | Some _ | None -> ());
    ec
  in
  match exec_ctx with
  | None -> forward_outcome t m o
  | Some c ->
    ignore
      (Trace.instant t.tracer c
         ~attrs:
           [
             sw_attr t;
             ("decision", decision_string o);
             ("executed", string_of_int o.Activermt.Jit.executed);
             ("passes", string_of_int o.Activermt.Jit.passes);
             ("pipelines", string_of_int o.Activermt.Jit.pipelines);
           ]
         "device.result");
    if Option.is_some o.Activermt.Jit.dropped then
      ignore
        (Trace.instant t.tracer c
           ~attrs:[ sw_attr t; ("reason", decision_string o) ]
           "device.drop");
    forward_outcome t { m with trace = exec_ctx } o

let at_switch t m =
  match m.payload with
  | Kv_request _ | Kv_reply _ | Alloc_failed | Notify_realloc ->
    (* Transit traffic: forward to the destination. *)
    deliver t m ~pipelines:0
  | Active pkt -> (
    match pkt.Activermt.Packet.payload with
    | Activermt.Packet.Request _ -> (
      match Controller.handle_request ?trace:(tr_on t m) t.controller pkt with
      | Ok provision ->
        (* Only the modeled provisioning time delays the response: the
           allocator's measured compute time would make simulated time,
           and every fault draw after it, depend on the machine. *)
        let dt = Activermt_control.Cost_model.modeled provision.Controller.timing in
        let dt =
          match t.faults with
          | Some f -> Faults.scale_table_update f dt
          | None -> dt
        in
        (match provision.Controller.phase with
        | Controller.Awaiting_extraction { impacted } ->
          notify_impacted ?trace:m.trace t impacted
        | Controller.Committed -> ());
        (* A failed table-update RPC loses the response after the
           controller committed; the client's timed-out re-request is
           answered idempotently from the existing allocation. *)
        let response_failed =
          match t.faults with
          | Some f -> Faults.control_failure f ~now:(Engine.now t.engine)
          | None -> false
        in
        if response_failed then
          tr_fault t m ~attrs:[ ("cause", "ctl_fail") ] "fault.drop"
        else
          respond t
            {
              src = t.address;
              dst = m.src;
              payload = Active provision.Controller.response;
              trace = m.trace;
            }
            ~delay:(dt +. wire_latency_s)
      | Error (`Rejected _) ->
        respond t
          { src = t.address; dst = m.src; payload = Alloc_failed; trace = m.trace }
          ~delay:(0.01 +. wire_latency_s)
      | Error (`Bad_packet _) -> ())
    | Activermt.Packet.Bare ->
      let fid = pkt.Activermt.Packet.fid in
      if pkt.Activermt.Packet.flags.Activermt.Packet.ack then begin
        Controller.complete_extraction t.controller ~fid;
        (* Tell the client where its (possibly moved) allocation now
           lives so it can re-synthesize and repopulate. *)
        match Controller.regions_packet t.controller ~fid with
        | Some response ->
          deliver t
            { src = t.address; dst = m.src; payload = Active response; trace = m.trace }
            ~pipelines:0
        | None -> ()
      end
      else begin
        (* Release: the service departs and its memory is redistributed;
           expanded apps are told to re-synchronize. *)
        let _timing, expanded =
          Controller.handle_departure ?trace:(tr_on t m) t.controller ~fid
        in
        (* The epoch bump already makes any cached closures unreachable;
           the explicit invalidate frees them eagerly. *)
        Activermt.Jit.invalidate t.jit ~fid;
        Hashtbl.remove t.owners fid;
        notify_impacted ?trace:m.trace t expanded
      end
    | Activermt.Packet.Response _ -> deliver t m ~pipelines:0
    | Activermt.Packet.Exec _ ->
      (* A FID without tables matches no entry: the packet forwards as
         plain traffic. *)
      match tr_on t m with
      | None ->
        if Activermt.Jit.run_into t.jit t.outcome ~src:m.src ~dst:m.dst pkt then
          forward_outcome t m t.outcome
        else deliver t m ~pipelines:0
      | Some c ->
        if
          Activermt.Table.installed (Controller.tables t.controller)
            ~fid:pkt.Activermt.Packet.fid
        then exec_traced t m pkt c
        else deliver t m ~pipelines:0)

let source telemetry counts =
  let each f = List.iter f !counts in
  Telemetry.source telemetry
    ~read:(fun ~counter ~gauge:_ -> each (fun k -> if k.n > 0 then counter k.name k.n))
    ~zero:(fun () -> each (fun k -> k.n <- 0))

let create ?(address = switch_address) ?faults ?(jit = true)
    ?(telemetry = Telemetry.default) ?(tracer = Trace.noop) ~engine ~controller
    () =
  (* A faults handle with an all-off profile is the same as no handle:
     take the legacy (zero-cost, bit-identical) paths. *)
  let faults =
    match faults with
    | Some f when Faults.is_none (Faults.profile f) -> None
    | other -> other
  in
  let count what = { name = "sim.packets." ^ what; n = 0 } in
  let sent = count "sent" and delivered = count "delivered" in
  let lost = count "lost" and dropped = count "dropped" in
  let counts = ref [ sent; delivered; lost; dropped ] in
  source telemetry counts;
  let rec t =
    {
      engine;
      controller;
      address;
      faults;
      nodes = Addr_tbl.create 16;
      slots = Stdx.Slots.create no_node;
      counts;
      default_node = None;
      owners = Hashtbl.create 16;
      jit =
        Activermt.Jit.create ~enabled:jit ~telemetry
          (Controller.tables controller);
      tel = telemetry;
      sent;
      delivered;
      lost;
      dropped;
      tracer;
      to_switch = (fun m -> at_switch t m);
      to_node = (fun m -> arrive t m);
      lanes = [||];
      outcome = Activermt.Jit.outcome ();
    }
  in
  t

let send t m =
  bump t.sent;
  bump (node t m.src).tx;
  match (m.trace, t.faults) with
  | None, None -> Engine.push (lane t 0) m
  | Some _, _ | _, Some _ ->
    traced_or_faulty_hop t m ~delay:wire_latency_s ~event:"sim.hop" t.to_switch

(* Head-based sampling happens exactly once, here, when a capsule enters
   the network — bridged or forwarded messages go through [send] and keep
   whatever decision was made at injection. *)
let inject t m =
  let m =
    match (m.trace, m.payload) with
    | None, Active pkt when Trace.enabled t.tracer ->
      let kind =
        match pkt.Activermt.Packet.payload with
        | Activermt.Packet.Request _ -> "request"
        | Activermt.Packet.Response _ -> "response"
        | Activermt.Packet.Exec _ -> "exec"
        | Activermt.Packet.Bare -> "bare"
      in
      let attrs =
        [
          sw_attr t;
          ("fid", string_of_int pkt.Activermt.Packet.fid);
          ("seq", string_of_int pkt.Activermt.Packet.seq);
          ("kind", kind);
          ("src", string_of_int m.src);
          ("dst", string_of_int m.dst);
        ]
      in
      (match Trace.start_trace t.tracer ~attrs "capsule.inject" with
      | None -> m
      | Some c -> { m with trace = Some c })
    | _ -> m
  in
  send t m

let stats_drops t = t.dropped.n
