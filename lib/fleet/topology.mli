(** Multi-switch topology: runtime-programmable switches joined by
    latency-weighted, capacity-annotated links, with clients homed to
    edge switches.

    Switches are numbered [0 .. switches - 1].  Routing is {e
    incremental ECMP-aware SSSP}: a per-destination route table
    (distance from every source plus the full equal-cost first-hop set)
    is built lazily by one Dijkstra run the first time that destination
    is queried, and a link flap or switch failure repairs only the
    affected (source, destination) pairs of already-built tables
    (Ramalingam–Reps-style delete/insert repair) instead of recomputing
    an all-pairs matrix.  {!all_pairs_reference} keeps the old
    Floyd–Warshall router as an oracle for equivalence checks.

    Datacenter constructors ({!fat_tree}, {!leaf_spine}) additionally
    carry pod membership, which the fleet's hierarchical placement uses
    to keep placement cost sub-linear in fleet size.  Client homes let
    the fleet's {!Placement.Locality} policy and its fabric bridging
    know which switch a client hangs off. *)

type switch_id = int

type t

val create : switches:int -> links:(switch_id * switch_id * float) list -> t
(** [links] are bidirectional [(a, b, latency_s)] edges.
    @raise Invalid_argument on [switches < 1], endpoints out of range,
    self-loops, or non-positive latencies. *)

val full_mesh : switches:int -> latency_s:float -> t
(** Every pair of switches joined directly at [latency_s]. *)

val line : switches:int -> latency_s:float -> t
(** A chain [0 - 1 - ... - n-1], each hop at [latency_s]. *)

val star : switches:int -> latency_s:float -> t
(** Switch 0 as hub, every other switch a spoke at [latency_s]. *)

val fat_tree : ?pods:int -> k:int -> unit -> t
(** A [k]-ary fat-tree (k even, >= 2): [pods] pods (default [k], may be
    fewer for a partially built fabric) of [k/2] edge and [k/2]
    aggregation switches each, plus [(k/2)^2] core switches.  Pod [i]'s
    edge switches are [i*k .. i*k + k/2 - 1], its aggregation switches
    [i*k + k/2 .. i*k + k - 1]; cores follow at [pods*k ..].
    Aggregation switch [j] of every pod uplinks to cores
    [j*(k/2) .. (j+1)*(k/2) - 1], giving [(k/2)^2] equal-cost paths
    between edge switches of different pods.  Edge-aggregation links
    carry 10e9 bps, aggregation-core links 40e9 bps; every hop costs
    5e-6 s.  Pod ids: [0 .. pods - 1] for the server pods, pod
    [pods] for the core layer.
    @raise Invalid_argument on odd or non-positive [k], or [pods]
    outside [1, k]. *)

val leaf_spine : ?pod_size:int -> leaves:int -> spines:int -> unit -> t
(** A 2-tier leaf–spine fabric: leaves [0 .. leaves - 1], spines
    [leaves .. leaves + spines - 1], every leaf linked to every spine at
    5e-6 s and 40e9 bps — so leaf-to-leaf traffic has [spines]
    equal-cost 2-hop paths.  Leaves are grouped into placement pods of
    [pod_size] (default 16) consecutive ids; the spine layer is the final
    pod.
    @raise Invalid_argument on non-positive [leaves], [spines], or
    [pod_size]. *)

val switches : t -> int

val n_links : t -> int
(** Physical links, up or down. *)

val connected : t -> src:switch_id -> dst:switch_id -> bool

val latency : t -> src:switch_id -> dst:switch_id -> float
(** Shortest-path latency; 0 for [src = dst].
    @raise Invalid_argument if unreachable or out of range. *)

val next_hop : t -> src:switch_id -> dst:switch_id -> switch_id option
(** First switch on a shortest [src -> dst] path ([dst] itself when
    adjacent); [None] when unreachable or [src = dst].  With several
    equal-cost first hops this returns the lowest-numbered one, so
    replays stay deterministic. *)

val next_hops : t -> src:switch_id -> dst:switch_id -> switch_id list
(** The complete equal-cost first-hop set, ascending; [] when
    unreachable or [src = dst]. *)

val link_capacity : t -> a:switch_id -> b:switch_id -> float option
(** Capacity metadata of the direct link [a - b] (bps); [None] when no
    such link exists.  Links created via plain {!create} carry no
    capacity annotation and report [None]. *)

(** {1 Dynamic link state}

    Links flap; switches fail.  Each transition repairs only the routes
    it invalidates: already-built destination tables whose shortest-path
    DAG used (or now gains) the link get a bounded repair, everything
    else is untouched, and destinations never queried cost nothing. *)

val set_link : t -> a:switch_id -> b:switch_id -> up:bool -> bool
(** Take the direct link [a - b] down or bring it back up.  Returns
    false (and does nothing) when no such link exists or it already was
    in the requested state. *)

val isolate : t -> sw:switch_id -> int
(** Take every incident link of [sw] down (a switch failure as the
    routing layer sees it).  Returns the number of links transitioned. *)

val restore : t -> sw:switch_id -> int
(** Bring every incident link of [sw] back up; returns transitions. *)

(** {1 Pods} *)

val n_pods : t -> int
(** Placement pods.  1 for {!create}/{!full_mesh}/{!line}/{!star}
    topologies (flat fleets degrade hierarchical placement to
    first-fit), [pods + 1] for {!fat_tree} (the core layer is the last
    pod), [ceil(leaves / pod_size) + 1] for {!leaf_spine}. *)

val pod_of : t -> sw:switch_id -> int
(** The pod the switch belongs to. *)

val pod_members : t -> pod:int -> switch_id list
(** Ascending switch ids of one pod.
    @raise Invalid_argument when [pod] is out of range. *)

(** {1 Routing internals (stats and oracle)} *)

type stats = {
  sssp_runs : int;  (** full per-destination Dijkstra builds *)
  repairs : int;  (** incremental per-destination repairs after a flap *)
  pairs_touched : int;
      (** (source, destination) route entries recomputed or whose
          first-hop set changed across all flaps so far *)
  flaps : int;  (** link state transitions applied *)
}

val stats : t -> stats

val routed_pairs : t -> int
(** [switches * built_tables]: the route entries currently materialized
    — the denominator for a "fraction of pairs touched by this flap"
    gate. *)

val build_all_routes : t -> unit
(** Force every destination's table (for benchmarks that want flap
    costs isolated from lazy build costs). *)

val all_pairs_reference : t -> float array array
(** The previous router: one Floyd–Warshall sweep over the current up
    links, returning the all-pairs distance matrix ([infinity] when
    unreachable).  O(n^3) — kept as the equivalence oracle for the
    incremental router, not used on any hot path. *)

(** {1 Client homing} *)

val home : t -> client:int -> switch_id -> unit
(** Record that [client] (a fabric address) hangs off the given edge
    switch.  Re-homing replaces the previous entry.
    @raise Invalid_argument if the switch is out of range. *)

val home_of : t -> client:int -> switch_id option
