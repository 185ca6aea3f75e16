(** A NetVRM-style baseline allocator (the closest prior system,
    Sections 2.3-2.4 and 5), for head-to-head comparison with ActiveRMT's
    allocator.

    Modeled after the paper's critique of NetVRM [47]:
    - register memory is virtualized behind page-based address
      translation whose overhead leaves **less than half** of each
      stage's match-action resources usable by applications;
    - page sizes come from a **fixed set of powers of two chosen at
      compile time**, so demands round up (internal fragmentation);
    - allocation is **coarse-grained across stages** — an application
      cannot be placed per stage, it receives the same share of every
      stage's (virtualized) pool;
    - the application set is **pre-compiled**: only registered app types
      can arrive at runtime.

    This is a deliberately simplified model: it reproduces the
    granularity and overhead characteristics the paper compares against,
    not NetVRM's utility-gradient policy. *)

type t

val create : Rmt.Params.t -> t
(** [Rmt.Resource.netvrm_availability] (0.45) of each stage is usable;
    the compile-time page sizes are the powers of two 1..256 blocks; the
    pre-compiled app types are the paper's three services. *)

type outcome =
  | Granted of { pages : int; page_blocks : int; waste_blocks : int }
      (** per-stage pages granted and internal fragmentation *)
  | Rejected_capacity
  | Rejected_unregistered
      (** app type not in the compile-time image: deploying it means a
          recompile, which this baseline cannot do at runtime *)

val admit : t -> fid:int -> app_type:string -> demand_blocks:int -> outcome
(** [demand_blocks] is the app's per-stage demand; it rounds up to the
    smallest fitting page size and is charged against every stage. *)

val utilization : t -> float
(** Useful blocks (pre-rounding demand) over the device's raw capacity —
    directly comparable with [Allocator.utilization]. *)

val gross_utilization : t -> float
(** Blocks actually reserved (pages + overhead) over raw capacity. *)

val waste_blocks : t -> int
(** Total internal fragmentation across residents (per stage). *)
