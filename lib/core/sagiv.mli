(** Sagiv's B*-tree with overtaking: the paper's primary contribution.

    Searches take no locks; an insertion or deletion locks {b one node at
    a time} (the paper's improvement over Lehman–Yao's 2–3); compression
    runs in {!Compress} (background scans, §5.1) and {!Compactor}
    (queue-driven, §5.4). All operations may run concurrently from any
    number of domains; each domain needs its own {!ctx}.

    The tree is a functor over the key type {e and} a
    {!Repro_storage.Page_store.S} backend ({!Make_on_store});
    {!Make} is the in-memory convenience instantiation over {!Store}. *)

open Repro_storage

module Make_on_store (K : Key.S) (S : Page_store.S with type key = K.t) : sig
  type t = (K.t, S.t) Handle.t
  type ctx = Handle.ctx

  val ctx : slot:int -> ctx
  (** A worker context. [slot] must be unique per concurrent domain (it
      indexes the epoch-reclamation table). *)

  val create : ?order:int -> ?enqueue_on_delete:bool -> ?store:S.t -> unit -> t
  (** [order] is the paper's k: non-root nodes hold between k and 2k pairs
      (default 8). [enqueue_on_delete] (default false) makes deletions
      push under-half-full leaves onto the compression queue (§5.4); off,
      deletions behave exactly as in Lehman–Yao / §4. [store] supplies
      the (empty) page store; default [S.create ()]. *)

  val order : t -> int

  val of_sorted :
    ?order:int -> ?fill:float -> ?store:S.t -> (K.t * Node.ptr) list -> t
  (** Bulk-load from strictly ascending (key, payload) pairs: a quiescent
      constructor packing nodes to [fill] (default 0.9) of capacity —
      much faster and denser than repeated {!insert}.
      @raise Invalid_argument on unsorted keys. *)

  val bulk_add : ?fill:float -> t -> (K.t * Node.ptr) list -> bool
  (** Pack strictly ascending pairs into an {e empty} tree in place —
      {!of_sorted}'s fast path for callers handed an already-created
      handle (preload). Returns [false] without touching anything when
      the tree is not empty (fall back to {!insert}). Quiescent only.
      @raise Invalid_argument on unsorted keys. *)

  val search : t -> ctx -> K.t -> Node.ptr option
  (** The record pointer stored with the key; entirely lock-free. *)

  val insert : t -> ctx -> K.t -> Node.ptr -> [ `Ok | `Duplicate ]
  (** Insert a (key, record pointer) pair. The tree is a dense index:
      an existing key is reported, never overwritten. *)

  val delete : t -> ctx -> K.t -> bool
  (** Remove the key's pair by rewriting its leaf (§4); [true] if present. *)

  val take : t -> ctx -> K.t -> Node.ptr option
  (** {!delete} returning the record pointer that was removed (for callers
      that own the records, e.g. {!Kv}). *)

  val update : t -> ctx -> K.t -> Node.ptr -> Node.ptr option
  (** Atomically repoint the key's pair at a new record pointer; returns
      the old pointer, or [None] when the key is absent. *)

  val fold_range :
    t -> ctx -> lo:K.t -> hi:K.t -> init:'a -> ('a -> K.t -> Node.ptr -> 'a) -> 'a
  (** Lock-free ordered fold over pairs with [lo <= key <= hi] along the
      leaf chain. Keys are emitted strictly ascending, exactly once; every
      pair present for the whole scan is emitted; pairs concurrently
      inserted/deleted/moved may or may not be. Exact when quiescent. *)

  val range : t -> ctx -> lo:K.t -> hi:K.t -> (K.t * Node.ptr) list

  val fold_all : t -> ctx -> init:'a -> ('a -> K.t -> Node.ptr -> 'a) -> 'a
  (** {!fold_range} without bounds: lock-free ordered fold over every
      pair, starting at the leftmost leaf. Same concurrency contract.
      The online save/validate paths are built on this. *)

  val cardinal : t -> int
  (** Number of stored keys (leaf-chain walk; quiescent only). *)

  val to_list : t -> (K.t * Node.ptr) list
  (** All pairs in order (quiescent only). *)

  val height : t -> int

  val reclaim : t -> int
  (** Release deleted pages whose grace period has passed (§5.3); returns
      how many. Call periodically or after compression. *)

  exception Corrupt of string

  val encode_meta : t -> Bytes.t
  (** The metadata blob {!flush}/{!commit} persist (magic, order, levels,
      leftmost pointers). Exposed so layered stores ({!Repro_core.Mvcc}'s
      durable mode) can append their own extension after it —
      {!open_existing} tolerates trailing bytes. *)

  val flush : t -> unit
  (** Persist the tree's geometry (order, levels, leftmost pointers) into
      the store's metadata blob and {!Page_store.S.sync} the store.
      Quiescent only. On a durable store ({!Paged_store}) the tree then
      survives close + reopen; on {!Store} it is a harmless no-op beyond
      recording the metadata. *)

  val commit : t -> unit
  (** Durably commit every {e completed} operation: refresh the metadata
      blob and {!Page_store.S.commit} the store. On a {!Paged_store}
      this is a group commit through its log — concurrency-safe, no
      quiescence needed; in memory it is a no-op. *)

  val open_existing : ?enqueue_on_delete:bool -> S.t -> t
  (** Rebuild a handle over a store that was {!flush}ed (and possibly
      closed and reopened). Never run two handles over one store
      concurrently — they would have separate epochs and queues.
      @raise Corrupt when the store holds no (or damaged) tree metadata. *)
end

module Make (K : Key.S) : module type of Make_on_store (K) (Store.For_key (K))
(** The tree over the in-memory {!Store} (all historical call sites). *)
