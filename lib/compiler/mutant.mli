(** Program mutants (Section 4.1).

    Because every logical stage exposes the same instruction set, memory
    accesses can be pushed to later stages by inserting NOPs, without
    changing program semantics.  A mutant is one feasible placement of the
    program's memory accesses onto logical positions; the allocator picks
    among mutants to fit the current memory occupancy.

    The "most constrained" policy admits only mutants that add no
    recirculation (and keep any RTS in the ingress pipeline); "least
    constrained" also considers mutants that spill into additional passes,
    trading bandwidth for placement flexibility (Section 6.1). *)

type policy = Most_constrained | Least_constrained

val policy_to_string : policy -> string

type t = {
  shifts : int array;  (** non-decreasing per-access NOP shift *)
  positions : int array;  (** 0-based logical position of each access *)
  stages : int array;  (** 0-based execution stage: position mod n_stages *)
  passes : int;  (** pipeline passes the mutated program needs *)
  port_recirc : bool;  (** RTS lands outside ingress, costing one more pass *)
}

val base_passes : Rmt.Params.t -> Spec.t -> int
(** Passes the compact (unshifted) program needs. *)

val enumerate : ?limit:int -> Rmt.Params.t -> policy -> Spec.t -> t list
(** Mutants under the policy, in systematic (lexicographic shift) order —
    the order "first fit" picks from.  When the feasibility region exceeds
    [limit] (default 4096) an even, deterministic stride through the
    sequence is returned instead of a lexicographic prefix, so candidates
    stay diverse and client-side synthesis reproduces the same list.
    A program with no memory access yields the single identity mutant.

    Fast path: one DFS walk buffers candidates while counting (spaces up
    to 64k placements never walk twice), and the feasible-space count is
    memoized per shift-headroom shape, so any repeated shape — across
    allocator instances too — materializes in a single pass.  The
    candidate list is bit-identical to [enumerate_reference]. *)

val enumerate_reference : ?limit:int -> Rmt.Params.t -> policy -> Spec.t -> t list
(** The seed's two-pass (count, then materialize) enumeration, kept as the
    oracle for property tests; [enumerate] must return exactly this list. *)

val count : Rmt.Params.t -> policy -> Spec.t -> int

val identity : Spec.t -> t
(** The compact, unshifted placement. *)

val synthesize : Spec.t -> t -> Activermt.Program.t
(** Materialize the mutant: insert NOPs immediately before each shifted
    access so the accesses land on [positions]. *)

val demand_by_stage : t -> demand_blocks:int array -> (int * int) list
(** Fold per-access block demands into per-stage demands, sorted by
    stage.  Accesses of a recirculated program that revisit a stage share
    the app's single region there, so demands merge by [max]. *)

val demand_by_stage_arrays : t -> demand_blocks:int array -> int array * int array
(** [demand_by_stage] as parallel flat [(stages, demands)] arrays sorted
    by stage, allocation-light for the allocator's per-mutant scoring. *)
