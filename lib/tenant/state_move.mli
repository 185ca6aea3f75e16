open Import

(** Moving a service's register state off its allocation and back on
    (Appendix C memsync, Section 4.3).

    [extract] drains each of a FID's regions; [inject] repopulates the
    regions of a later allocation, on the same switch or another one,
    positionally.  A region of at most [word_budget] words moves as
    memsync read/write capsules that the switch's JIT executes; larger
    regions, and reads with [~data_plane:false] (a dead switch executes
    nothing), go through the controller's region access.  An index a
    data-plane run never got through falls back to the control plane on
    its own, so every word arrives either way. *)

type state = (int * int array) list
(** One entry per region, ascending stage: the stage it was read from
    and its words. *)

type faults = now:float -> int
(** How many copies of a memsync capsule sent at synthetic time [now]
    arrive intact: 0 when it is lost or fails its checksum.  The request
    and its reply share one verdict. *)

type tally = data_plane:int -> fallback:int -> unit
(** Called once per region that went through the data plane, with the
    words that crossed as capsules and the words that fell back. *)

val extract :
  Controller.t ->
  Jit.t ->
  faults:faults option ->
  word_budget:int ->
  tally:tally ->
  data_plane:bool ->
  fid:Activermt.Packet.fid ->
  state
(** The FID's regions, read; [[]] when it holds none.  With [faults],
    lost capsules are retransmitted under a synthetic clock, at most 16
    times per index; without, one pass is loss-free. *)

val inject :
  Controller.t ->
  Jit.t ->
  faults:faults option ->
  word_budget:int ->
  tally:tally ->
  fid:Activermt.Packet.fid ->
  state ->
  unit
(** Write the k-th captured region into the FID's k-th current region,
    the smaller of the two sizes.  Writes are idempotent, so only the
    indices that never got through are rewritten by the control
    plane. *)
