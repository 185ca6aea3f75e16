(** Client-side logic of the frequent-item (heavy-hitter) monitor.

    The client activates its object requests with the monitor program;
    after a measurement window it extracts the per-slot thresholds and
    stored keys (via memsync or the control plane) and computes the
    frequent-item set used to populate a cache (Section 6.3). *)

type t

val create :
  Rmt.Params.t ->
  policy:Activermt_compiler.Mutant.policy ->
  fid:Activermt.Packet.fid ->
  regions:Activermt.Packet.region option array ->
  (t, string) result

val granted : t -> Synthesis.granted
val n_slots : t -> int
(** Threshold/key slots available (words of the threshold region). *)

val monitor_packet : t -> seq:int -> Workload.Kv.key -> Activermt.Packet.t

val threshold_stage : t -> int
val key0_stage : t -> int
val key1_stage : t -> int
(** Stages to extract from. *)

val frequent_items :
  thresholds:int array ->
  key0s:int array ->
  key1s:int array ->
  (Workload.Kv.key * int) list
(** Combine extracted arrays into (key, count) pairs, highest count
    first; slots never hit (threshold 0) are skipped. *)
