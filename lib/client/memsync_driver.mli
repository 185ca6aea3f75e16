(** Reliable bulk memory synchronization over memsync packets.

    Section 4.3: reads and writes are idempotent, every packet replies via
    RTS, and "packets that fail execution (i.e., are dropped) do not
    generate a response.  Since reads and writes are idempotent the client
    can safely retransmit after a timeout."  This driver implements that
    loop as a pure state machine (the caller supplies time and a send
    function), covering a whole index range of up to three stages per
    packet. *)

type op = Read | Write of (int -> int list)
(** For writes, the function gives the values (one per stage) to store at
    each index. *)

type t

val create :
  ?multiplier:float ->
  ?max_timeout_s:float ->
  ?jitter:float ->
  ?max_attempts:int ->
  ?seed:int ->
  ?tracer:Activermt_telemetry.Trace.t ->
  fid:Activermt.Packet.fid ->
  stages:int list ->
  count:int ->
  timeout_s:float ->
  op ->
  t
(** Synchronize indices [0, count) of the given stages (at most 3,
    ascending, >= 2 apart — memsync packet geometry).

    Retransmission policy (all optional; the defaults reproduce the
    original fixed-timeout driver exactly, including its float
    comparisons, so existing simulations are bit-identical):
    - [multiplier] (default 1): per-retry exponential growth of the
      slot's timeout, capped at [max_timeout_s] (default
      [16 * timeout_s]);
    - [jitter] (default 0): symmetric fraction in [0, 1) scaling each
      armed timeout by a factor in [1-jitter, 1+jitter], drawn from a
      PRNG seeded by [seed] mixed with [fid];
    - [max_attempts] (default 0 = unbounded): per-index transmission
      budget; an index that spends it stops retransmitting and counts as
      {!exhausted}.

    [tracer] (default [Trace.noop]) records the sync as a trace:
    {!start} opens a head-sampled [memsync.sync] root (fid, op, count,
    stages), each {!tick} that retransmits emits one batch
    [memsync.retry] event (resent/outstanding counts), and the reply
    completing the sync emits [memsync.done].
    @raise Invalid_argument on out-of-range parameters. *)

val outstanding : t -> int
(** Indices not yet acknowledged. *)

val exhausted : t -> int
(** Indices that are unacknowledged *and* out of retry budget — the
    driver will never retransmit them; the caller should fall back
    (e.g. to a control-plane write) for exactly {!unacked}'s survivors.
    Always 0 when [max_attempts] is unbounded. *)

val unacked : t -> int list
(** Unacknowledged indices, ascending — for targeted fallback. *)

val is_done : t -> bool

val start : t -> now:float -> send:(seq:int -> Activermt.Packet.t -> unit) -> unit
(** Transmit every index once.  [send] is called synchronously; seqs are
    unique per index attempt. *)

val on_reply : t -> seq:int -> args:int array -> bool
(** Feed a reply (the RTS'd packet's argument fields).  Returns false if
    the seq is unknown/duplicate (already satisfied).  For reads the
    values are recorded. *)

val tick : t -> now:float -> send:(seq:int -> Activermt.Packet.t -> unit) -> int
(** Retransmit every index whose last attempt timed out; returns how many
    were resent. *)

val values : t -> int array array
(** For reads, one array per stage (in the order given to [create]),
    [count] words each; zeros where no reply arrived yet. *)

val attempts : t -> int
(** Total packets sent, for loss accounting. *)

val trace : t -> Activermt_telemetry.Trace.ctx option
(** The sync's trace context once started (and head-sampled) — attach it
    to outgoing fabric messages so capsule hops chain under the
    [memsync.sync] trace. *)
