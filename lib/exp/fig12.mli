(** Figure 12: allocation granularity.  Total control-plane allocation
    time for a sequence of 100 arrivals, for four application workloads,
    as the per-stage block count varies over 128, 256, 512 and 1024
    blocks (block size 2 KB down to 256 B;
    the paper's default is 1 KB / 256 blocks).  Finer granularity means
    more blocks to track and a more complex allocation problem; inelastic
    byte demands are held constant by rescaling block demands. *)

val run : ?n:int -> Rmt.Params.t -> unit
