(** Deficit-weighted round-robin over per-tenant FIFO queues.

    The scheduling half of switch virtualization: each tenant has its
    own FIFO of pending items, and {!take} assembles an admission batch
    by visiting non-empty queues round-robin, granting each a per-round
    credit equal to its weight (OS4C's [tx_scheduler_w] ported to the
    control plane).  Each round starts one position past the previous
    round's leader (a rotating cursor persisted across calls), so no
    tenant is pinned to the tail of every batch — position in the batch
    matters downstream, where the allocator admits first-come until the
    epoch's capacity runs out.  Credits persist across calls, so a
    tenant short-changed in one epoch catches up in the next; a queue
    that empties forfeits its accumulated credit (classic DRR), so idle
    tenants cannot hoard bursts.

    Everything is deterministic: same pushes, weights and classifier
    decisions produce the same batches. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> tenant:int -> 'a -> unit
val push_front : 'a t -> tenant:int -> 'a -> unit
(** Re-queue at the head — retries keep their position. *)

val depth : 'a t -> int
(** Total queued items across tenants. *)

val tenant_depth : 'a t -> tenant:int -> int

type 'a batch = {
  taken : (int * 'a) list;  (** (tenant, item) in pick order *)
  dropped : (int * 'a) list;  (** classifier-rejected, in scan order *)
}

val take :
  'a t ->
  weight:(int -> int) ->
  classify:(tenant:int -> 'a -> [ `Take | `Defer | `Drop ]) ->
  max:int ->
  'a batch
(** Assemble up to [max] items.  Per item the classifier decides:
    [`Take] consumes one credit and joins the batch; [`Drop] removes the
    item without consuming credit (a terminal rejection); [`Defer] puts
    the item back at the head and blocks that tenant's queue for the
    rest of this call (head-of-line order within a tenant is
    deliberate — a deferred request must not be overtaken by its own
    tenant's later requests).  Returns when the batch is full or no
    unblocked queue remains.  [weight] must be positive for any tenant
    that has queued items. *)
