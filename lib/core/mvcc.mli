(** Multi-version store: the Sagiv tree as a dense index over
    version-chained records ({!Repro_storage.Record_store}), giving
    lock-free point-in-time snapshot reads with zero writer stalls.
    Deletes are logical (tombstones); [vacuum] removes dead pairs behind
    every pin through a seal -> take -> retire barrier. Several stores
    can share one {!Repro_storage.Epoch} so a group snapshot is a single
    consistent cut across all of them (cross-shard scans). *)

open Repro_storage

(** {2 Durable representation (backend-independent)}

    Version chains persist as {e version-record (vrec) pages}: pseudo-nodes
    at {!Node.vrec_level} in the tree's own page store, carrying a flat
    int stream in their [ptrs] array (codec v5 varint-packs it). Record
    slots are grouped; a {e fold} serializes a group to a head page
    ([is_root = true]) plus link-chained continuations. Over a store
    with a log, a commit does not fold: it logs the new state of each
    slot it changed as {e logical records}, and the store's checkpoint
    folds. The store's metadata blob grows a fixed extension (clock,
    prune horizon, slot frontier) after the Sagiv geometry. See
    doc/RECOVERY.md. *)

type meta_ext = {
  group_bits : int;  (** log2 slots per group *)
  clock : int;  (** epoch clock at persist — bounds every persisted stamp *)
  horizon : int;  (** [min_pinned] at persist — recovery re-prunes here *)
  frontier : int;  (** record-slot bump frontier *)
}

val decode_meta_ext : Bytes.t -> meta_ext option
(** Parse the extension from a full metadata blob (tree meta first);
    [None] = plain unversioned store. *)

exception Corrupt_vrec of string

val encode_logical :
  budget:int ->
  enc:('v -> int) ->
  (int * 'v Record_store.slot_state) list ->
  Bytes.t list
(** One capture's logical records: each [(slot, state)] in the slot
    encoding a group stream uses, cut into records of at most [budget]
    bytes (a slot may span records). [[]] for no slots. *)

val decode_logical :
  dec:(int -> 'v) -> Bytes.t list -> (int * 'v Record_store.slot_state) list
(** The [(slot, state)] entries of whole captures, in order.
    @raise Corrupt_vrec on a malformed record or a capture cut short. *)

module Make_on_store (K : Key.S) (S : Page_store.S with type key = K.t) : sig
  module T : module type of Sagiv.Make_on_store (K) (S)

  type 'v t
  type ctx = Handle.ctx

  val ctx : slot:int -> ctx

  val create :
    ?order:int ->
    ?enqueue_on_delete:bool ->
    ?epoch:Epoch.t ->
    ?size:('v -> int) ->
    unit ->
    'v t
  (** [epoch] shares a clock (and its pins) with other stores for group
      snapshots; [size] prices payloads for the bytes gauge. *)

  val tree : 'v t -> T.t
  val records : 'v t -> 'v Record_store.t
  val epoch : 'v t -> Epoch.t

  val get : 'v t -> ctx -> K.t -> 'v option
  (** Current value, lock-free. *)

  val insert : 'v t -> ctx -> K.t -> 'v -> [ `Ok | `Duplicate ]
  (** Insert-if-absent (resurrects tombstoned keys in place). *)

  val upsert : 'v t -> ctx -> K.t -> 'v -> unit
  (** Bind-or-overwrite: appends a live version. *)

  val delete : 'v t -> ctx -> K.t -> bool
  (** Logical delete (tombstone); [true] when the key was live. *)

  val fold_range :
    'v t -> ctx -> lo:K.t -> hi:K.t -> init:'a -> ('a -> K.t -> 'v -> 'a) -> 'a
  (** Current-time scan — weak (not a cut), tombstones skipped. *)

  val range : 'v t -> ctx -> lo:K.t -> hi:K.t -> (K.t * 'v) list
  val cardinal : 'v t -> int

  type snap

  val snap_epoch : snap -> int

  val snapshot : 'v t -> snap
  (** A consistent cut: pins a snapshot slot, ticks the clock, waits out
      writers already in flight (writers never wait). Release with
      {!release}. *)

  val snapshot_group : 'v t array -> snap
  (** One cut across stores sharing an epoch (single pin + tick + wait).
      @raise Invalid_argument when they do not share one. *)

  val release : snap -> unit
  (** Unpin (idempotent). Prune/vacuum horizons pass the cut after this. *)

  val snap_get : 'v t -> snap -> ctx -> K.t -> 'v option
  (** Point read at the cut. *)

  val snap_range : 'v t -> snap -> ctx -> lo:K.t -> hi:K.t -> (K.t * 'v) list
  (** Consistent ordered scan at the cut. *)

  val vacuum : 'v t -> ctx -> int
  (** Prune cold version tails; physically remove pairs dead below every
      pin (seal -> take -> retire). Returns pairs removed. *)

  val reclaim : 'v t -> int
  (** Release record slots and tree pages whose grace period passed. *)

  (** {2 Durable mode} *)

  val create_durable :
    ?order:int ->
    ?enqueue_on_delete:bool ->
    ?epoch:Epoch.t ->
    ?group_bits:int ->
    enc:('v -> int) ->
    dec:(int -> 'v) ->
    S.t ->
    'v t
  (** MVCC over an empty durable store: tree and version heap share it,
      {!commit} makes both durable in one batch. [enc]/[dec] map payloads
      into the vrec int stream, which is cut into vrec pages by encoded
      bytes: each page takes as many varints as
      {!Repro_storage.Page_codec.vrec_budget} allows at the store's
      {!Repro_storage.Page_store.S.page_size}. *)

  val open_durable :
    ?enqueue_on_delete:bool ->
    ?epoch:Epoch.t ->
    ?group_bits:int ->
    enc:('v -> int) ->
    dec:(int -> 'v) ->
    S.t ->
    'v t
  (** Reopen after close or crash recovery: restores every chain exactly
      as persisted, restarts the clock above all persisted stamps,
      re-prunes at the persisted horizon (pruned versions never
      resurrect past a checkpoint) and heals the bounded crash windows
      (dangling pairs, sealed-not-taken pairs, orphaned slots). A store
      with no MVCC extension — a plain unversioned tree — is migrated in
      place, each payload becoming a one-version chain. *)

  val commit : 'v t -> unit
  (** Durable group commit of completed operations. In durable mode the
      chain changes ride the same batch, as logical records of the new
      state of every changed slot
      ({!Repro_storage.Page_store.S.log_logical}); their groups' pages
      are rewritten at the next checkpoint. Falls back to {!T.commit} on
      non-durable stores. *)

  val flush : 'v t -> unit
  (** Quiescent full sync (checkpoint path): folds every group changed
      since the last fold into its pages, then syncs. A durable store's
      own checkpoint (its close) folds the same way, through
      {!Repro_storage.Page_store.S.on_checkpoint}. *)

  val durable : 'v t -> bool

  val bulk_add : ?fill:float -> 'v t -> (K.t * 'v) list -> bool
  (** Quiescent preload into an empty tree: one-version chains packed
      through the tree's bulk builder. [false] (nothing allocated
      durably) when the tree is not empty. *)

  val persisted_versions : 'v t -> int
  (** Version records in vrec pages as of the last fold (0 when
      volatile). *)

  val persisted_pages : 'v t -> int
  (** vrec pages currently allocated (0 when volatile). *)

  val gc_pending : 'v t -> int
  val live_versions : 'v t -> int
  val pruned_versions : 'v t -> int
  val bytes_stored : 'v t -> int
  val min_pinned : 'v t -> int

  val io_stats : 'v t -> Repro_storage.Stats.io
  (** The MVCC gauges ([epoch_min_pinned], [snap_pins], [mvcc_versions],
      [mvcc_pruned]) as a {!Repro_storage.Stats.io} record with every
      other field zero — made to be {!Repro_storage.Stats.io_merge}d
      into a backing store's line. *)

  (** {2 A follower's chains}

      A read-only view of the durable chains in a store that a follower
      fills with a primary's shipped batches: the group pages, overlaid
      with the logical records of the current generation. *)

  type 'v view

  val view : dec:(int -> 'v) -> 'v view

  val view_batch : 'v view -> gen:int -> logical:Bytes.t list -> unit
  (** Note a batch installed into the store: its generation and logical
      records ({!Repro_storage.Wal.Apply.batch}). A higher generation
      first drops the overlay: the checkpoint between folded it.
      @raise Corrupt_vrec on a malformed record. *)

  val view_reader : 'v view -> S.t -> meta_ext -> int -> 'v option
  (** [view_reader v store ext] resolves a leaf payload (a record slot)
      to its newest version at or below [ext.clock], the committed cut;
      [None] for a tombstone or an unknown slot. Build one per read: it
      memoises group decodes. *)
end

module Make (K : Key.S) : module type of Make_on_store (K) (Store.For_key (K))
