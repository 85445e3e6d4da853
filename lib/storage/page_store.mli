(** The PAGE_STORE signature: the paper's secondary-storage model (§2.2)
    as a first-class interface, with indivisible [get]/[put], per-page
    writer latches that never block readers, and a recycling allocator.
    {!Store} (in-memory) and {!Paged_store} (durable, its node cache over a paged file)
    both satisfy it; the concurrent tree is functorized over it. *)

exception Freed_page of int
(** Raised by [get] on a released page — the one shared exception every
    implementation raises, so backend-generic code catches reclamation
    races uniformly. *)

module type S = sig
  type key
  type t

  val create : unit -> t
  (** Fresh empty non-durable store with default sizing. *)

  val alloc : t -> key Node.t -> Node.ptr
  (** Allocate a page initialised to the node; immediately readable from
      all domains. *)

  val reserve : t -> Node.ptr
  (** Reserve a page id with no contents; the caller must [put] before
      making the id reachable (Fig 3). *)

  val get : t -> Node.ptr -> key Node.t
  (** Indivisible read. @raise Freed_page on a released page. *)

  val put : t -> Node.ptr -> key Node.t -> unit
  (** Indivisible rewrite (under the page's lock once reachable). *)

  val lock : t -> Node.ptr -> unit
  (** Page latch: blocks other lockers, never blocks readers. *)

  val unlock : t -> Node.ptr -> unit
  val try_lock : t -> Node.ptr -> bool

  val release : t -> Node.ptr -> unit
  (** Return a page to the allocator once its deletion epoch has passed. *)

  val live_count : t -> int
  val total_allocated : t -> int
  val total_freed : t -> int

  val iter : t -> (Node.ptr -> key Node.t -> unit) -> unit
  (** Over all live pages; only meaningful when quiescent. *)

  val set_meta : t -> Bytes.t -> unit
  (** Opaque metadata blob, persisted by durable backends on [sync]. *)

  val get_meta : t -> Bytes.t option

  val sync : t -> unit
  (** Make prior [put]s and metadata durable (no-op in memory). *)

  val commit : t -> unit
  (** Durably commit every completed operation — the fine-grained,
      concurrency-safe durability point (optional capability: WAL
      backends group-commit, plain durable backends degrade to [sync],
      in-memory stores no-op). *)
end
