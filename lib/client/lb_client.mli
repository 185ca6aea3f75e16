(** Client-side logic of the Cheetah load balancer.

    Handles synthesis of the SYN (server-selection) program against the
    granted mutant, alignment of the stateless flow program's HASH onto
    the same stage as the SYN's cookie hash (the two must use the same
    hash engine for cookies to decode), VIP-pool installation through
    memsync writes, and cookie bookkeeping. *)

type t

val create :
  Rmt.Params.t ->
  policy:Activermt_compiler.Mutant.policy ->
  fid:Activermt.Packet.fid ->
  regions:Activermt.Packet.region option array ->
  (t, string) result

val granted : t -> Synthesis.granted

val access_stages : t -> int array
(** The four access stages of the granted mutant (pool size, counter,
    page table, VIP pool), for [Cheetah_lb.install_pool]. *)

val pool_write_packets :
  t -> ports:int array -> (int * Activermt.Packet.t) list
(** Memsync write packets that install the VIP pool ([ports] must be a
    power of two); each is paired with the seq it carries so acks can be
    matched. *)

val syn_packet : t -> seq:int -> salt:int -> Activermt.Packet.t

val flow_packet : t -> seq:int -> salt:int -> cookie:int -> Activermt.Packet.t
