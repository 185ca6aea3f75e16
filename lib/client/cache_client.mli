(** Client-side logic of the in-network cache service.

    Once an allocation is granted the client knows its bucket capacity
    (the smallest of its three per-stage regions), computes buckets for
    keys by hashing (direct addressing, Section 3.2), activates its
    application-level object requests with the query program and
    populates/refreshes the cache with the populate program. *)

type t

val create :
  Rmt.Params.t ->
  policy:Activermt_compiler.Mutant.policy ->
  fid:Activermt.Packet.fid ->
  regions:Activermt.Packet.region option array ->
  (t, string) result
(** Build from an allocation response's regions. *)

val granted : t -> Synthesis.granted
val n_buckets : t -> int

val bucket_of_key : t -> Workload.Kv.key -> int

val query_packet : t -> seq:int -> Workload.Kv.key -> Activermt.Packet.t
val populate_packet :
  t -> seq:int -> Workload.Kv.key -> value:int -> Activermt.Packet.t

val plan_population :
  t -> objects:(Workload.Kv.key * int) list -> (Workload.Kv.key * int) list
(** Select the subset to install: at most one object per bucket (the
    first-listed wins, so pass objects most-popular first). *)
