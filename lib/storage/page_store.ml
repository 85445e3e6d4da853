(** The PAGE_STORE signature: the paper's model of secondary storage
    (§2.2) as a first-class interface.

    The model asks for pages with indivisible [get]/[put], a per-page
    lock that serialises writers without ever blocking readers, and an
    allocator that recycles released pages. Two implementations satisfy
    it: {!Store} (in-memory slots behind atomics — the reference
    substrate every test battery runs on) and {!Paged_store} (a durable
    backend whose decoded-node cache reads and writes a {!Paged_file}
    directly through {!Page_codec}, with a per-page latch table and
    write-back on eviction). The concurrent
    tree in [Repro_core] is functorized over this signature, so the full
    Sagiv algorithm — one-lock insertions, compression, epoch
    reclamation — runs unchanged on either. *)

exception Freed_page of int
(** Raised by [get] on a released (reclaimed) page. Declared here, once,
    so that every implementation raises the {e same} exception and
    generic code (and code written against {!Store} directly) can catch
    it without knowing the backend. Under correct epoch protection it
    cannot fire within a pinned operation; cross-operation references
    (queue stacks) catch it and restart. *)

(** What the functorized tree needs from a page store. [get]/[put] must
    be indivisible (readers see complete node snapshots, never torn
    ones); [lock] must serialise writers without blocking readers. *)
module type S = sig
  type key
  (** The key type of the nodes stored (fixed per instantiation so the
      store can encode nodes for a durable medium). *)

  type t

  val create : unit -> t
  (** A fresh, empty, non-durable store with default sizing — what tree
      constructors use when the caller does not supply a store. Durable
      implementations offer richer constructors ([create_file], ...)
      outside this signature. *)

  val alloc : t -> key Node.t -> Node.ptr
  (** Allocate a page initialised to the node; the id is readable from
      all domains as soon as this returns. *)

  val reserve : t -> Node.ptr
  (** Reserve a page id with no contents; the caller must [put] before
      making the id reachable (a split writes the new right sibling
      before linking it, Fig 3). [get] before that [put] raises
      {!Freed_page}. *)

  val get : t -> Node.ptr -> key Node.t
  (** Indivisible read. @raise Freed_page on a released page. *)

  val put : t -> Node.ptr -> key Node.t -> unit
  (** Indivisible rewrite. Writers to reachable pages hold the page's
      lock; the initial [put] after {!reserve} targets a page no other
      process can name yet, so it may go unlatched. *)

  val lock : t -> Node.ptr -> unit
  (** Page latch: blocks other lockers, never blocks readers (§2.2). *)

  val unlock : t -> Node.ptr -> unit
  val try_lock : t -> Node.ptr -> bool

  val release : t -> Node.ptr -> unit
  (** Return a page to the allocator; call only once its deletion epoch
      has passed (see {!Epoch}). The contents become unreadable. *)

  val live_count : t -> int
  (** Pages currently holding a node (allocated minus freed). *)

  val total_allocated : t -> int
  val total_freed : t -> int

  val iter : t -> (Node.ptr -> key Node.t -> unit) -> unit
  (** Iterate over all live pages. {b Only meaningful when quiescent}:
      concurrent writers make the traversal a mix of old and new states,
      and durable backends may fault pages in mid-iteration. *)

  val set_meta : t -> Bytes.t -> unit
  (** Attach an opaque metadata blob (tree geometry, prime-block state).
      Durable implementations persist it in their header on [sync];
      call at quiescent points only. *)

  val get_meta : t -> Bytes.t option

  val sync : t -> unit
  (** Make all prior [put]s and the metadata durable (no-op for purely
      in-memory stores). Quiescent points only. *)

  val commit : t -> unit
  (** Durably commit every {e completed} operation — the fine-grained
      durability point. This is an {e optional capability}: backends
      with a write-ahead log satisfy it with a group commit (one batched
      log fsync covers every concurrent caller) that is safe to call
      from many domains at once, concurrently with other operations.
      Durable backends {e without} one degrade to [sync] — the degraded
      path inherits [sync]'s quiescence requirement (concurrent commit
      calls are merely serialised against each other, which does not
      make a full sync safe against in-flight operations). Purely
      in-memory stores treat it as a no-op. Callers who need the
      concurrent contract must therefore know their backend has a log
      (e.g. was opened in WAL mode). *)
end
