(** Shared restructuring steps of the compression processes (§5.2, §5.4):
    merge / redistribute an adjacent sibling pair under the parent's lock
    (three locks held: parent first, then the two children — Theorem 2's
    deadlock-freedom argument), and root collapses. Internal to
    {!Compress} and {!Compactor}. *)

open Repro_storage

(** Ablation toggle (benchmarks only): rewrite the losing child first
    during redistribution, inverting the paper's §5.2 advice, to measure
    the advice's effect on reader restarts. Set before a run only. *)
val ablate_losing_child_first : bool ref

module Make_on_store (K : Key.S) (S : Page_store.S with type key = K.t) : sig
  type outcome = Merged | Redistributed | Untouched

  val rearrange :
    (K.t, S.t) Handle.t ->
    Handle.ctx ->
    ?queue:K.t Cqueue.t ->
    fptr:Node.ptr ->
    f:K.t Node.t ->
    right_slot:int ->
    one_ptr:Node.ptr ->
    a:K.t Node.t ->
    two_ptr:Node.ptr ->
    b:K.t Node.t ->
    enqueue_children:bool ->
    stack:Node.ptr list ->
    unit ->
    outcome
  (** Rearrange the pair (A = [one], B = [two]) under parent [f]. All
      three locks are held on entry and consumed here — each node is
      unlocked immediately after it is rewritten, the gaining child first
      (the §5.2 rewrite order). With [enqueue_children], nodes left sparse
      are pushed onto [queue] (default: the tree's shared queue) while
      their lock is held. *)

  val collapse_two_children :
    (K.t, S.t) Handle.t -> Handle.ctx -> fptr:Node.ptr -> f:K.t Node.t -> bool
  (** Merge the two children of root [f] (locked) into a new root (§5.4).
      On success all locks are consumed; on failure the children are
      unlocked but [fptr] stays locked for the caller's fallback. *)

  val try_collapse_root : (K.t, S.t) Handle.t -> Handle.ctx -> bool
  (** Reduce the height when the root has a single child (walking the
      single-child chain down any number of levels) or two mergeable
      children. [true] when the height changed. *)
end
