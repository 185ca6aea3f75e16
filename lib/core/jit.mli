(** Data-plane specialization tier: compiles an admitted FID's program
    into a chain of fused native closures and caches it keyed by
    [(fid, allocation_epoch)].

    The compiled form resolves at compile time everything the interpreter
    re-derives per packet — granted region bounds, translation constants,
    privilege, the recirculation allowance, stage register arrays — and
    keeps branches only at the data-dependent points (complete/disabled
    flags, recirculation checks).  Execution is bit-identical to
    {!Runtime.run}: the same [result] and the same register-array and
    device-counter side effects.

    Invalidation is automatic: {!Table.epoch} is bumped by every install
    and remove, so reallocation, migration, departure, and privilege or
    pass-limit changes all make cached closures stale; the next packet
    recompiles against the new allocation.  Quiescence remains a dynamic
    per-packet check.  Non-[Exec] packets, quiesced FIDs, uninstalled FIDs
    and disabled JITs ([enabled = false], the [--no-jit] escape hatch)
    fall back to the interpreter. *)

type t

val create : ?enabled:bool -> ?telemetry:Activermt_telemetry.Telemetry.t -> Table.t -> t
(** A JIT over a switch's match tables.  [enabled] (default true) false
    turns every execution into an interpreter fallback.  The
    [jit.enabled] gauge and the [jit.compile] span land in [telemetry]
    (default {!Activermt_telemetry.Telemetry.default}).  The JIT counts
    hits, misses, compiles and invalidations in plain ints, which
    [telemetry] reads through a source as
    [jit.hit]/[jit.miss]/[jit.compile]/[jit.invalidate], always current
    and present even at zero.  The source holds the counts alone, never
    the JIT or the tables it compiled against. *)

val run : t -> ?meta:Runtime.meta -> Packet.t -> Runtime.result
(** Drop-in replacement for {!Runtime.run}: it executes on a copy of the
    packet's args and never writes the packet. *)

(** What a switch needs of an execution to act on it, in a record the
    caller owns and reuses, as a pipeline slot owns its header vector. *)
type outcome = {
  mutable dropped : Runtime.drop_reason option;
      (** [Some why] when the switch dropped the capsule *)
  mutable rts : bool;
      (** when not dropped: returned to sender, else forwarded to [dst] *)
  mutable dst : int;  (** the forward destination; the source on RTS *)
  mutable pipelines : int;  (** as {!Runtime.result.pipelines} *)
  mutable executed : int;  (** as {!Runtime.result.executed} *)
  mutable passes : int;  (** as {!Runtime.result.passes} *)
}

val outcome : unit -> outcome
(** A blank outcome, to be filled by {!run_into}. *)

val run_into : t -> outcome -> src:int -> dst:int -> Packet.t -> bool
(** Whether [pkt]'s FID has tables ({!Table.installed}).  If it has none,
    nothing executes and [o] and [pkt] are left as they were: a switch
    forwards such a packet as plain traffic.  Otherwise [run_into t o
    ~src ~dst pkt] is [run t ~meta:(Runtime.meta ~src ~dst ()) pkt]
    written into [o] and into the capsule itself: it executes on [pkt]'s
    own args, which afterwards hold {!Runtime.result.args_out}, as a
    pipeline rewrites a packet's header fields.  The caller must own
    [pkt] (see {!Packet.payload}).  A capsule whose FID has a compiled
    variant of its program, under a valid epoch, runs the same drivers
    as [run], allocates nothing and asks the tables nothing: install,
    reinstall, remove, quiesce and unquiesce all bump the epoch, and
    closures are compiled only for an installed FID that is not
    quiesced.  Anything else — misses, quiesced FIDs, non-[Exec]
    packets, a disabled JIT — goes through [run] and copies its result
    into [o] and the args, so the outcome, the args, the device state
    and the stats are always those of [run]. *)

val would_specialize : t -> Packet.t -> bool
(** Whether [run] would take the compiled path for this packet (modulo
    compilation itself): enabled, [Exec] payload, installed, not
    quiesced.  Cheap; used to stamp trace spans before execution. *)

val invalidate : t -> fid:Packet.fid -> unit
(** Drop any cached closures for the FID (counted under
    [jit.invalidate]).  Purely an eviction: correctness never depends on
    it, because stale closures are already unreachable once the
    allocation epoch moves. *)

val cache_size : t -> int

val stats : t -> int * int * int * int
(** [(hits, misses, compiles, invalidates)] since creation, or since the
    last [Telemetry.reset] of the JIT's registry, which zeroes them. *)
