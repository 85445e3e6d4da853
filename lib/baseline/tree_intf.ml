(** First-class uniform interface over the concurrent trees (int keys),
    so the workload driver and the benches can sweep implementations. *)

open Repro_core

type sharding = {
  shard_count : int;
  shard_of_key : int -> int;
      (** deterministic key → shard routing ({!Repro_storage.Shard_router}) *)
  commit_shard : int -> unit;
      (** durably commit one shard's completed operations — independent
          shards' commits run fully in parallel (separate WALs, separate
          group-commit leaders) *)
}

type snap = {
  snap_epoch : int;  (** the cut's boundary epoch *)
  snap_search : Handle.ctx -> int -> int option;
      (** point read at the cut: the value bound at pin time, whatever
          writers have done since *)
  snap_range : Handle.ctx -> lo:int -> hi:int -> (int * int) list;
      (** consistent ordered scan at the cut — on a sharded handle the
          k-way merge reads every shard at the same cut *)
  snap_release : unit -> unit;  (** unpin (idempotent) *)
}
(** A pinned point-in-time view over an MVCC-backed handle. Holding it
    costs writers nothing; it only defers version pruning. *)

type mvcc_gauges = {
  g_min_pinned : int;  (** reclamation horizon; [max_int] = nothing pinned *)
  g_snap_pins : int;  (** snapshots currently held *)
  g_live_versions : int;  (** version records across all chains *)
  g_pruned_versions : int;  (** versions pruned since creation *)
  g_gc_pending : int;  (** vacuum candidates queued *)
}

type mvcc = {
  snapshot : unit -> snap;
      (** pin a consistent cut (single cut across all shards on a
          sharded handle) — O(1), never blocks writers *)
  vacuum : Handle.ctx -> int;
      (** prune cold version tails, physically remove dead pairs behind
          every pin, release reclaimable slots/pages; returns pairs
          removed *)
  gauges : unit -> mvcc_gauges;
}
(** The snapshot surface of an MVCC-backed handle. *)

type handle = {
  name : string;
  search : Handle.ctx -> int -> int option;
  insert : Handle.ctx -> int -> int -> [ `Ok | `Duplicate ];
  delete : Handle.ctx -> int -> bool;
  cardinal : unit -> int;
  height : unit -> int;
  commit : unit -> unit;
      (** durably commit completed operations (group commit on the
          disk backend, no-op in memory) — callable from any worker
          domain *)
  range : (Handle.ctx -> lo:int -> hi:int -> (int * int) list) option;
      (** lock-free ordered scan of [lo <= key <= hi] along the leaf
          chain; [None] on backends without a leaf chain to walk (the
          network server answers RANGE with "unsupported" there).
          {b Weak}: not a consistent cut under concurrent writers — each
          leaf is atomic but the scan as a whole is not serialisable;
          use [mvcc] for point-in-time scans *)
  sharding : sharding option;
      (** partition-layer surface: present on sharded handles so the
          server can route batches and commit only the shards a batch
          touched; [None] on monolithic backends *)
  bulk_add : (?fill:float -> (int * int) list -> bool) option;
      (** quiescent bulk load of strictly ascending pairs into an
          {e empty} tree ([false] = tree not empty, caller falls back to
          [insert]); [None] on backends without a packing constructor.
          [fill] is the node-packing fraction (default 0.9 — dense);
          preload paths that model an incrementally built tree pass a
          lower fill so nodes start near the compaction threshold *)
  mvcc : mvcc option;
      (** snapshot surface: present on version-stamped backends
          ([sagiv-mvcc] and its sharded composition); [None] elsewhere *)
}

type impl = { impl_name : string; make : order:int -> handle }

(** What a tree must provide to be wrapped into a {!handle}: the common
    shape every backend's functor output already has. Backends whose
    operations carry extra variants (e.g. the optimistic / preemptive
    lock-couplers) conform through a small inline module literal. *)
module type TREE_OPS = sig
  type t

  val search : t -> Handle.ctx -> int -> int option
  val insert : t -> Handle.ctx -> int -> int -> [ `Ok | `Duplicate ]
  val delete : t -> Handle.ctx -> int -> bool
  val cardinal : t -> int
  val height : t -> int
end

(** Close a tree value over its operations: the one place the [handle]
    record is built, so a new backend registers in ~5 lines. [commit]
    defaults to a no-op — in-memory backends have nothing to make
    durable; [range] defaults to unsupported. *)
let of_ops (type a) ?(commit = fun () -> ()) ?range ?sharding ?bulk_add ?mvcc
    ~name (module M : TREE_OPS with type t = a) (t : a) =
  {
    name;
    search = M.search t;
    insert = M.insert t;
    delete = M.delete t;
    cardinal = (fun () -> M.cardinal t);
    height = (fun () -> M.height t);
    commit;
    range;
    sharding;
    bulk_add;
    mvcc;
  }

(* K-way merge of per-shard range results: each list is sorted and the
   router partitions the keyspace, so the shard lists are disjoint and a
   fold of 2-way merges reproduces one globally ordered scan. *)
let merge_ranges lists =
  List.fold_left (List.merge (fun (a, _) (b, _) -> compare a b)) [] lists

(** Compose per-shard handles (each from {!of_ops}) into one handle that
    routes every keyed operation through {!Repro_storage.Shard_router}.
    [cardinal] sums, [height] maxes, [commit] commits every shard, and
    [range] k-way merges the per-shard leaf-chain scans; the [sharding]
    field exposes the router and per-shard commit so the server can fold
    a pipeline batch's acks into only the shards it touched. *)
let sharded ~name (subs : handle array) =
  let shards = Array.length subs in
  if shards = 0 then invalid_arg "Tree_intf.sharded: no shards";
  let route k = Repro_storage.Shard_router.shard_of ~shards k in
  let range =
    if Array.for_all (fun h -> h.range <> None) subs then
      Some
        (fun ctx ~lo ~hi ->
          merge_ranges
            (Array.to_list
               (Array.map (fun h -> (Option.get h.range) ctx ~lo ~hi) subs)))
    else None
  in
  let bulk_add =
    if Array.for_all (fun h -> h.bulk_add <> None) subs then
      Some
        (fun ?fill pairs ->
          (* partition the sorted pairs per shard; order (and thus
             strict ascent) is preserved within each shard *)
          let per = Array.make shards [] in
          List.iter
            (fun ((k, _) as p) -> per.(route k) <- p :: per.(route k))
            pairs;
          let ok = ref true in
          Array.iteri
            (fun i ps ->
              if not ((Option.get subs.(i).bulk_add) ?fill (List.rev ps))
              then ok := false)
            per;
          !ok)
    else None
  in
  {
    name;
    search = (fun ctx k -> subs.(route k).search ctx k);
    insert = (fun ctx k v -> subs.(route k).insert ctx k v);
    delete = (fun ctx k -> subs.(route k).delete ctx k);
    cardinal = (fun () -> Array.fold_left (fun a h -> a + h.cardinal ()) 0 subs);
    height = (fun () -> Array.fold_left (fun a h -> max a (h.height ())) 0 subs);
    commit = (fun () -> Array.iter (fun h -> h.commit ()) subs);
    range;
    sharding =
      Some
        {
          shard_count = shards;
          shard_of_key = route;
          commit_shard = (fun i -> subs.(i).commit ());
        };
    bulk_add;
    (* a generic composition cannot give ONE cut across shards (that
       needs a shared epoch clock underneath) — the mvcc-sharded
       constructor below overrides this with a true group snapshot *)
    mvcc = None;
  }

module Sagiv_int = Sagiv.Make (Repro_storage.Key.Int)
module Mvcc_int = Mvcc.Make (Repro_storage.Key.Int)
module Paged_int = Repro_storage.Paged_store.Make (Repro_storage.Key.Int)
module Sagiv_disk = Sagiv.Make_on_store (Repro_storage.Key.Int) (Paged_int)
module Mvcc_disk = Mvcc.Make_on_store (Repro_storage.Key.Int) (Paged_int)

module Sharded_int =
  Repro_storage.Sharded_store.Make (Repro_storage.Key.Int) (Paged_int)
module Ly_int = Lehman_yao.Make (Repro_storage.Key.Int)
module Lc_int = Lock_couple.Make (Repro_storage.Key.Int)
module Coarse_int = Coarse.Make (Repro_storage.Key.Int)

let sagiv ?(enqueue_on_delete = false) () =
  {
    impl_name = "sagiv";
    make =
      (fun ~order ->
        let t = Sagiv_int.create ~order ~enqueue_on_delete () in
        of_ops ~range:(Sagiv_int.range t)
          ~bulk_add:(fun ?fill ps -> Sagiv_int.bulk_add ?fill t ps)
          ~name:"sagiv" (module Sagiv_int) t);
  }

(** Like {!sagiv} but also hands back the raw tree, for benches that run
    compaction workers alongside. *)
let sagiv_raw ?(enqueue_on_delete = false) ~order () =
  let t = Sagiv_int.create ~order ~enqueue_on_delete () in
  ( t,
    of_ops ~range:(Sagiv_int.range t)
      ~bulk_add:(fun ?fill ps -> Sagiv_int.bulk_add ?fill t ps)
      ~name:"sagiv" (module Sagiv_int) t )

(* -- the MVCC-backed tree: version-stamped records under the Sagiv
      index, exposing the snapshot surface -- *)

let mvcc_snap_of (t : int Mvcc_int.t) (s : Mvcc_int.snap) =
  {
    snap_epoch = Mvcc_int.snap_epoch s;
    snap_search = (fun ctx k -> Mvcc_int.snap_get t s ctx k);
    snap_range = (fun ctx ~lo ~hi -> Mvcc_int.snap_range t s ctx ~lo ~hi);
    snap_release = (fun () -> Mvcc_int.release s);
  }

let mvcc_gauges_of (ts : int Mvcc_int.t array) () =
  {
    g_min_pinned = Mvcc_int.min_pinned ts.(0);
    g_snap_pins = Repro_storage.Epoch.pinned_snapshots (Mvcc_int.epoch ts.(0));
    g_live_versions =
      Array.fold_left (fun a t -> a + Mvcc_int.live_versions t) 0 ts;
    g_pruned_versions =
      Array.fold_left (fun a t -> a + Mvcc_int.pruned_versions t) 0 ts;
    g_gc_pending = Array.fold_left (fun a t -> a + Mvcc_int.gc_pending t) 0 ts;
  }

let mvcc_sub_handle (t : int Mvcc_int.t) ~name =
  of_ops
    ~range:(fun ctx ~lo ~hi -> Mvcc_int.range t ctx ~lo ~hi)
    ~bulk_add:(fun ?fill ps -> Mvcc_int.bulk_add ?fill t ps)
    ~mvcc:
      {
        snapshot = (fun () -> mvcc_snap_of t (Mvcc_int.snapshot t));
        vacuum =
          (fun ctx ->
            let removed = Mvcc_int.vacuum t ctx in
            ignore (Mvcc_int.reclaim t);
            removed);
        gauges = mvcc_gauges_of [| t |];
      }
    ~name
    (module struct
      type nonrec t = int Mvcc_int.t

      let search = Mvcc_int.get
      let insert = Mvcc_int.insert
      let delete = Mvcc_int.delete
      let cardinal = Mvcc_int.cardinal
      let height t = Mvcc_int.T.height (Mvcc_int.tree t)
    end)
    t

(** The MVCC tree plus its handle, for callers that also scan/vacuum
    through the typed API (benches, tests). *)
let sagiv_mvcc_raw ?(enqueue_on_delete = false) ~order () =
  let t = Mvcc_int.create ~order ~enqueue_on_delete () in
  (t, mvcc_sub_handle t ~name:"sagiv-mvcc")

let sagiv_mvcc ?(enqueue_on_delete = false) () =
  {
    impl_name = "sagiv-mvcc";
    make =
      (fun ~order ->
        let t = Mvcc_int.create ~order ~enqueue_on_delete () in
        mvcc_sub_handle t ~name:"sagiv-mvcc");
  }

let mvcc_sharded_name shards = Printf.sprintf "sagiv-mvcc-x%d" shards

(** [shards] MVCC trees sharing ONE epoch clock, composed into a routed
    handle whose [mvcc.snapshot] is a {e group} snapshot: one pin + one
    tick + one wait, then every shard reads at the same cut — the k-way
    merged [snap_range] is point-in-time consistent across shards. *)
let sagiv_mvcc_sharded_raw ?(enqueue_on_delete = false) ~shards ~order () =
  if shards < 1 then invalid_arg "Tree_intf.sagiv_mvcc_sharded: shards >= 1";
  let epoch = Repro_storage.Epoch.create () in
  let ts =
    Array.init shards (fun _ ->
        Mvcc_int.create ~order ~enqueue_on_delete ~epoch ())
  in
  let name = mvcc_sharded_name shards in
  let base =
    sharded ~name (Array.map (fun t -> mvcc_sub_handle t ~name) ts)
  in
  let route k = Repro_storage.Shard_router.shard_of ~shards k in
  let snapshot () =
    let s = Mvcc_int.snapshot_group ts in
    {
      snap_epoch = Mvcc_int.snap_epoch s;
      snap_search = (fun ctx k -> Mvcc_int.snap_get ts.(route k) s ctx k);
      snap_range =
        (fun ctx ~lo ~hi ->
          merge_ranges
            (Array.to_list
               (Array.map (fun t -> Mvcc_int.snap_range t s ctx ~lo ~hi) ts)));
      snap_release = (fun () -> Mvcc_int.release s);
    }
  in
  let vacuum ctx =
    let removed =
      Array.fold_left (fun a t -> a + Mvcc_int.vacuum t ctx) 0 ts
    in
    Array.iter (fun t -> ignore (Mvcc_int.reclaim t)) ts;
    removed
  in
  ( ts,
    { base with mvcc = Some { snapshot; vacuum; gauges = mvcc_gauges_of ts } }
  )

let sagiv_mvcc_sharded ?enqueue_on_delete ~shards () =
  {
    impl_name = mvcc_sharded_name shards;
    make =
      (fun ~order ->
        snd (sagiv_mvcc_sharded_raw ?enqueue_on_delete ~shards ~order ()));
  }

(* Key.Int encodes every key in 8 bytes. *)
let page_size_for_order order =
  Repro_storage.Page_codec.page_size_for ~key_bytes:8 ~order

let check_page_fits ~order store =
  let need = Repro_storage.Page_codec.node_frame_bound ~key_bytes:8 ~order in
  let have = Paged_int.page_size store in
  if need > have then
    invalid_arg
      (Printf.sprintf
         "order %d needs %d-byte pages (its full node frames %d B); the store's pages are %d B"
         order (page_size_for_order order) need have)

let make_disk_store ?cache_pages ?stripes ?commit_interval ?commit_batch ~order
    () =
  Paged_int.create_memory ~page_size:(page_size_for_order order) ?cache_pages
    ?stripes ?commit_interval ?commit_batch ()

(** The same Sagiv tree over the durable {!Repro_storage.Paged_store}
    (memory-backed data and log devices: full pager stack, no
    filesystem); [handle.commit] group-commits through the log. *)
let sagiv_disk ?(enqueue_on_delete = false) ?cache_pages ?stripes
    ?commit_interval ?commit_batch () =
  {
    impl_name = "sagiv-disk";
    make =
      (fun ~order ->
        let store =
          make_disk_store ?cache_pages ?stripes ?commit_interval ?commit_batch
            ~order ()
        in
        let t = Sagiv_disk.create ~order ~enqueue_on_delete ~store () in
        of_ops
          ~commit:(fun () -> Sagiv_disk.commit t)
          ~range:(Sagiv_disk.range t)
          ~bulk_add:(fun ?fill ps -> Sagiv_disk.bulk_add ?fill t ps)
          ~name:"sagiv-disk" (module Sagiv_disk) t);
  }

(** Like {!sagiv_raw} for the disk backend: hands back the raw tree for
    compaction workers, store statistics (the store is
    [raw.Handle.store]) and validation. *)
let sagiv_disk_raw ?(enqueue_on_delete = false) ?cache_pages ?stripes
    ?commit_interval ?commit_batch ~order () =
  let store =
    make_disk_store ?cache_pages ?stripes ?commit_interval ?commit_batch ~order ()
  in
  let t = Sagiv_disk.create ~order ~enqueue_on_delete ~store () in
  ( t,
    of_ops
      ~commit:(fun () -> Sagiv_disk.commit t)
      ~range:(Sagiv_disk.range t)
      ~bulk_add:(fun ?fill ps -> Sagiv_disk.bulk_add ?fill t ps)
      ~name:"sagiv-disk" (module Sagiv_disk) t )

let disk_sub_handle t =
  of_ops
    ~commit:(fun () -> Sagiv_disk.commit t)
    ~range:(Sagiv_disk.range t)
    ~bulk_add:(fun ?fill ps -> Sagiv_disk.bulk_add ?fill t ps)
    ~name:"sagiv-disk" (module Sagiv_disk) t

let sharded_name shards = Printf.sprintf "sagiv-disk-x%d" shards

(** One Sagiv tree per shard of an existing {!Sharded_int.t}, composed
    into a routed handle — how file-backed callers (CLI serve, benches)
    shard: create/open the store themselves, then wrap. Hands back the
    raw trees for flush/validation. *)
let sagiv_disk_sharded_on ?(enqueue_on_delete = false) ~order sst =
  let stores = Sharded_int.stores sst in
  Array.iter (check_page_fits ~order) stores;
  let trees =
    Array.map
      (fun store -> Sagiv_disk.create ~order ~enqueue_on_delete ~store ())
      stores
  in
  ( trees,
    sharded
      ~name:(sharded_name (Sharded_int.count sst))
      (Array.map disk_sub_handle trees) )

(** Rebuild the routed handle over a reopened {!Sharded_int.t} (every
    shard's tree metadata was {!Sagiv_disk.flush}ed, or recovered from
    its WAL). *)
let sagiv_disk_sharded_open ?(enqueue_on_delete = false) sst =
  let trees =
    Array.map
      (fun store ->
        let t = Sagiv_disk.open_existing ~enqueue_on_delete store in
        check_page_fits ~order:(Sagiv_disk.order t) store;
        t)
      (Sharded_int.stores sst)
  in
  ( trees,
    sharded
      ~name:(sharded_name (Sharded_int.count sst))
      (Array.map disk_sub_handle trees) )

(** Memory-backed sharded disk tree: [shards] fully independent
    {!Paged_int} stores (own node cache, WAL, group-commit leader),
    one Sagiv tree each, routed by {!Repro_storage.Shard_router}. Hands
    back the sharded store (per-shard io stats) and the raw
    trees alongside the handle. *)
let sagiv_disk_sharded_raw ?(enqueue_on_delete = false) ?cache_pages ?stripes
    ?commit_interval ?commit_batch ~shards ~order () =
  let sst =
    Sharded_int.create_memory ~page_size:(page_size_for_order order)
      ?cache_pages ?stripes ?commit_interval ?commit_batch ~shards ()
  in
  let trees, h = sagiv_disk_sharded_on ~enqueue_on_delete ~order sst in
  (sst, trees, h)

(* -- durable MVCC: version chains persisted through the paged store
      (vrec pages in the same WAL/commit/recovery path as the tree) -- *)

let mvcc_disk_sub_handle (t : int Mvcc_disk.t) ~name =
  of_ops
    ~commit:(fun () -> Mvcc_disk.commit t)
    ~range:(fun ctx ~lo ~hi -> Mvcc_disk.range t ctx ~lo ~hi)
    ~bulk_add:(fun ?fill ps -> Mvcc_disk.bulk_add ?fill t ps)
    ~mvcc:
      {
        snapshot =
          (fun () ->
            let s = Mvcc_disk.snapshot t in
            {
              snap_epoch = Mvcc_disk.snap_epoch s;
              snap_search = (fun ctx k -> Mvcc_disk.snap_get t s ctx k);
              snap_range =
                (fun ctx ~lo ~hi -> Mvcc_disk.snap_range t s ctx ~lo ~hi);
              snap_release = (fun () -> Mvcc_disk.release s);
            });
        vacuum =
          (fun ctx ->
            let removed = Mvcc_disk.vacuum t ctx in
            ignore (Mvcc_disk.reclaim t);
            removed);
        gauges =
          (fun () ->
            {
              g_min_pinned = Mvcc_disk.min_pinned t;
              g_snap_pins =
                Repro_storage.Epoch.pinned_snapshots (Mvcc_disk.epoch t);
              g_live_versions = Mvcc_disk.live_versions t;
              g_pruned_versions = Mvcc_disk.pruned_versions t;
              g_gc_pending = Mvcc_disk.gc_pending t;
            });
      }
    ~name
    (module struct
      type nonrec t = int Mvcc_disk.t

      let search = Mvcc_disk.get
      let insert = Mvcc_disk.insert
      let delete = Mvcc_disk.delete
      let cardinal = Mvcc_disk.cardinal
      let height t = Mvcc_disk.T.height (Mvcc_disk.tree t)
    end)
    t

let mvcc_disk_name shards =
  if shards = 1 then "sagiv-mvcc-disk"
  else Printf.sprintf "sagiv-mvcc-disk-x%d" shards

(* Compose per-shard durable MVCC trees (sharing ONE epoch clock) into a
   routed handle whose snapshot is a group cut, exactly like
   {!sagiv_mvcc_sharded_raw} — but over durable stores. *)
let mvcc_disk_compose ~name (ts : int Mvcc_disk.t array) =
  let shards = Array.length ts in
  let base =
    sharded ~name (Array.map (fun t -> mvcc_disk_sub_handle t ~name) ts)
  in
  let route k = Repro_storage.Shard_router.shard_of ~shards k in
  let snapshot () =
    let s = Mvcc_disk.snapshot_group ts in
    {
      snap_epoch = Mvcc_disk.snap_epoch s;
      snap_search = (fun ctx k -> Mvcc_disk.snap_get ts.(route k) s ctx k);
      snap_range =
        (fun ctx ~lo ~hi ->
          merge_ranges
            (Array.to_list
               (Array.map (fun t -> Mvcc_disk.snap_range t s ctx ~lo ~hi) ts)));
      snap_release = (fun () -> Mvcc_disk.release s);
    }
  in
  let vacuum ctx =
    let removed =
      Array.fold_left (fun a t -> a + Mvcc_disk.vacuum t ctx) 0 ts
    in
    Array.iter (fun t -> ignore (Mvcc_disk.reclaim t)) ts;
    removed
  in
  let gauges () =
    {
      g_min_pinned = Mvcc_disk.min_pinned ts.(0);
      g_snap_pins =
        Repro_storage.Epoch.pinned_snapshots (Mvcc_disk.epoch ts.(0));
      g_live_versions =
        Array.fold_left (fun a t -> a + Mvcc_disk.live_versions t) 0 ts;
      g_pruned_versions =
        Array.fold_left (fun a t -> a + Mvcc_disk.pruned_versions t) 0 ts;
      g_gc_pending = Array.fold_left (fun a t -> a + Mvcc_disk.gc_pending t) 0 ts;
    }
  in
  { base with mvcc = Some { snapshot; vacuum; gauges } }

(** Durable MVCC trees over an existing (empty) {!Sharded_int.t}: one
    {!Mvcc_disk} per shard store, all sharing one epoch clock so the
    composed handle's snapshot is a true cross-shard cut. Hands back the
    raw trees for commit/flush/validation. *)
let sagiv_mvcc_disk_on ?(enqueue_on_delete = false) ~order sst =
  let epoch = Repro_storage.Epoch.create () in
  let ts =
    Array.map
      (fun store ->
        check_page_fits ~order store;
        Mvcc_disk.create_durable ~order ~enqueue_on_delete ~epoch ~enc:Fun.id
          ~dec:Fun.id store)
      (Sharded_int.stores sst)
  in
  (ts, mvcc_disk_compose ~name:(mvcc_disk_name (Array.length ts)) ts)

(** Reopen durable MVCC trees over a reopened {!Sharded_int.t} (recovery
    replay already ran in the stores' open): every shard's chains restore
    exactly as persisted, the shared clock restarts above all persisted
    stamps. *)
let sagiv_mvcc_disk_open ?(enqueue_on_delete = false) sst =
  let epoch = Repro_storage.Epoch.create () in
  let ts =
    Array.map
      (fun store ->
        Mvcc_disk.open_durable ~enqueue_on_delete ~epoch ~enc:Fun.id
          ~dec:Fun.id store)
      (Sharded_int.stores sst)
  in
  (ts, mvcc_disk_compose ~name:(mvcc_disk_name (Array.length ts)) ts)

let lehman_yao =
  {
    impl_name = "lehman-yao";
    make =
      (fun ~order ->
        of_ops ~name:"lehman-yao" (module Ly_int) (Ly_int.create ~order ()));
  }

let lock_couple =
  {
    impl_name = "lock-couple";
    make =
      (fun ~order ->
        of_ops ~name:"lock-couple" (module Lc_int) (Lc_int.create ~order ()));
  }

(** Bayer–Schkolnick's improved protocol: optimistic writers (shared
    latches down, exclusive leaf, pessimistic retry on splits). *)
let lock_couple_optimistic =
  {
    impl_name = "lc-optimistic";
    make =
      (fun ~order ->
        of_ops ~name:"lc-optimistic"
          (module struct
            include Lc_int

            let insert = Lc_int.insert_optimistic
            let delete = Lc_int.delete_optimistic
          end)
          (Lc_int.create ~order ()));
  }

(** Top-down preemptive splitting (Guibas–Sedgewick style): full nodes
    split on the way down, max two exclusive latches per writer. *)
let lock_couple_preemptive =
  {
    impl_name = "lc-preemptive";
    make =
      (fun ~order ->
        of_ops ~name:"lc-preemptive"
          (module struct
            include Lc_int

            let insert = Lc_int.insert_preemptive
            let delete = Lc_int.delete_optimistic
          end)
          (Lc_int.create ~order ()));
  }

let coarse =
  {
    impl_name = "coarse";
    make =
      (fun ~order ->
        of_ops ~name:"coarse" (module Coarse_int) (Coarse_int.create ~order ()));
  }

let all =
  [
    sagiv ();
    sagiv_disk ();
    sagiv_mvcc ();
    lehman_yao;
    lock_couple;
    lock_couple_optimistic;
    lock_couple_preemptive;
    coarse;
  ]
