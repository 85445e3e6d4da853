(** Queue-driven compression (§5.4): compactor workers pop under-half-full
    nodes (enqueued by deletions), locate and lock the parent, validate
    the (pointer, high value) pair, lock the node and one neighbour, and
    merge or redistribute — implementing all of the paper's cases
    (discard-if-high-changed, requeue-on-pending-insertion, the
    left-neighbour fallback, single-pointer parents, root collapses and
    whole-level-deleted detection). *)

open Repro_storage

module Make_on_store (K : Key.S) (S : Page_store.S with type key = K.t) : sig
  val compact_node :
    (K.t, S.t) Handle.t ->
    Handle.ctx ->
    ptr:Node.ptr ->
    level:int ->
    high:K.t Bound.t ->
    stack:Node.ptr list ->
    int
  (** §5.4 arrangement (3): a compression process with its own private
      queue, seeded with one node; compresses it and every consequence
      until the private queue drains (or 100,000 steps pass). Returns
      merges+redistributions. *)

  val run_until_empty :
    (K.t, S.t) Handle.t -> Handle.ctx -> [ `Drained | `Step_limit ]
  (** Drain the shared queue (retrying requeued entries); [`Step_limit]
      after 10,000,000 steps. *)

  val run_worker : (K.t, S.t) Handle.t -> Handle.ctx -> stop:bool Atomic.t -> unit
  (** Background worker loop: process entries until [stop], backing off
      while the queue is empty. Spawn any number of these (Theorem 2). *)
end

module Make (K : Key.S) : module type of Make_on_store (K) (Store.For_key (K))
