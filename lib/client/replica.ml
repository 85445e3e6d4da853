(** The follower side of WAL-shipping replication: pull durable log
    pages from a primary over the wire ({!Client.wal_fetch}), feed them
    through {!Repro_storage.Wal.Apply} — the same scan-one-record step
    local recovery replays with — and install each promoted commit batch
    into a private {!Paged_store}. The replica serves lock-free
    search/range at its {e replay horizon} (the LSN of the last applied
    COMMIT): always a prefix of the primary's committed history, never a
    torn batch, because [Apply] only surfaces whole promoted batches.

    The tree view is a {!Sagiv.open_existing} handle over the replica's
    store, rebuilt only when a batch ships new tree metadata (a root
    split or level change); between meta changes the existing view reads
    the freshly installed page images through the store, because
    [apply_replicated] invalidates any cached copy. A small mutex
    serialises view swaps against reads — the replica's apply loop is
    single-threaded, so this is the only coordination needed.

    Promotion ({!promote}) turns the replica read-write in place: once
    the operator decides the primary is gone (and after draining
    whatever the feed still has — see the crash harness for the oracle),
    the same store and view start accepting inserts/deletes, picking up
    exactly the acked history the stream delivered. *)

module PS = Repro_baseline.Tree_intf.Paged_int
module Sg = Repro_baseline.Tree_intf.Sagiv_disk
module Wal = Repro_storage.Wal
module Mvcc = Repro_core.Mvcc
module MV = Repro_baseline.Tree_intf.Mvcc_disk

exception Stream_error of string
(** The shipped stream failed the apply policy (LSN gap, regressed
    generation/incarnation, torn record): the feed is not a valid
    continuation and the replica must re-seed. *)

(* Log pages asked for per pull. *)
let max_pages = 256

type t = {
  shard : int;
  mu : Mutex.t;  (** view swaps vs. reads *)
  mutable store : PS.t option;  (** created on the first shipped page *)
  mutable view : Sg.t option;  (** rebuilt on meta-carrying batches *)
  mutable apply : Wal.Apply.t option;
  mutable next_lsn : int;  (** where the next pull starts *)
  mutable horizon : int;  (** LSN of the last applied COMMIT; -1 = none *)
  mutable batches : int;
  mutable promoted : bool;
  mutable mvcc : Mvcc.meta_ext option;
      (** decoded from the last shipped metadata blob; [Some] iff the
          primary runs durable MVCC. Its [clock] is the replica's
          snapshot read horizon: every persisted version stamp is
          bounded by it, so resolving chains at [<= clock] reads the
          exact committed cut the primary persisted. *)
  chains : int MV.view;
      (** the replicated version chains: vrec pages overlaid with the
          current generation's logical records *)
}

let create ?(shard = 0) () =
  {
    shard;
    mu = Mutex.create ();
    store = None;
    view = None;
    apply = None;
    next_lsn = 0;
    horizon = -1;
    batches = 0;
    promoted = false;
    mvcc = None;
    chains = MV.view ~dec:Fun.id;
  }

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let horizon t = t.horizon
let next_lsn t = t.next_lsn
let batches t = t.batches
let promoted t = t.promoted

(* Lazily build the store + scanner from the first shipped page: its
   size is the primary's log page size, which fixes the data page size
   (and therefore the whole store geometry) without any side channel. *)
let ensure_machinery t page =
  match (t.store, t.apply) with
  | Some store, Some apply -> (store, apply)
  | _ ->
      let data_page_size = Bytes.length page - Wal.header_bytes in
      if data_page_size <= 0 then
        raise (Stream_error "shipped page smaller than a record header");
      let store = PS.create_memory ~page_size:data_page_size () in
      let apply = Wal.Apply.create ~data_page_size () in
      t.store <- Some store;
      t.apply <- Some apply;
      (store, apply)

(** Feed one raw log page (exactly as shipped). Applies a whole batch
    when the page is its COMMIT. @raise Stream_error on a page that is
    not a valid continuation of the stream. *)
let feed t page =
  let store, apply = ensure_machinery t page in
  match Wal.Apply.step apply page with
  | Wal.Apply.Progress -> ()
  | Wal.Apply.Reject msg -> raise (Stream_error msg)
  | Wal.Apply.Batch b ->
      (* The whole install happens under the view mutex: a reader that
         holds it for the duration of a scan ([range] below) reads every
         leaf at one replay horizon. Installing the page images outside
         the mutex let a long scan straddle a batch — its tail leaves
         showed writes whose horizon the scan's head never saw. *)
      with_mu t (fun () ->
          PS.apply_replicated store ~gen:b.Wal.Apply.b_gen
            ~logical:b.Wal.Apply.b_logical ~images:b.Wal.Apply.b_images
            ~meta:b.Wal.Apply.b_meta;
          (match b.Wal.Apply.b_meta with
          | Some m ->
              t.view <- Some (Sg.open_existing store);
              (* a durable-MVCC primary appends its extension (group
                 geometry + clock + prune horizon) to every shipped
                 metadata blob; a plain primary ships none and the
                 replica reads leaf payloads directly *)
              t.mvcc <- Mvcc.decode_meta_ext m
          | None -> ());
          (* chain changes ride the same stream: logical records, and vrec
             pages at each checkpoint's fold *)
          (try
             MV.view_batch t.chains ~gen:b.Wal.Apply.b_gen
               ~logical:b.Wal.Apply.b_logical
           with Mvcc.Corrupt_vrec msg -> raise (Stream_error msg));
          t.horizon <- b.Wal.Apply.b_lsn;
          t.batches <- t.batches + 1)

(** One pull-and-apply round over [client]. [`Applied n] — n batches
    landed; [`Caught_up] — nothing new within [wait_ms]; raises
    {!Client.Remote_error} [("stale")] when the replica has fallen out
    of the primary's retention window. *)
let poll ?(wait_ms = 500) t client =
  let before = t.batches in
  let pages, next =
    Client.wal_fetch client ~shard:t.shard ~from_lsn:t.next_lsn
      ~max_pages ~wait_ms
  in
  List.iter (feed t) pages;
  t.next_lsn <- next;
  if pages = [] then `Caught_up else `Applied (t.batches - before)

(* ---- durable-MVCC chain resolution (all under [mu]) ----

   On a durable-MVCC primary a leaf payload is not the value: it is a
   record-slot pointer whose version chain persists in vrec pseudo-pages
   ({!Repro_storage.Node.vrec_level}) and, between the primary's
   checkpoints, in logical records — both shipped in the same stream as
   tree pages. The replica resolves [rptr] through {!MV.view_reader} to
   the newest version stamped at or below the persisted clock: the same
   cut the primary committed, so a scan at the replay horizon is a true
   snapshot — no half-applied chain can be observed because whole
   batches install under [mu]. *)

let search t ctx key =
  with_mu t (fun () ->
      match (t.view, t.store) with
      | Some v, Some store -> (
          match Sg.search v ctx key with
          | None -> None
          | Some payload -> (
              match t.mvcc with
              | None -> Some payload
              | Some ext -> MV.view_reader t.chains store ext payload))
      | _ -> None)

(* Holding [mu] across the whole walk pins the scan to one replay
   horizon — batch installs ([feed]) also run under [mu], so no leaf
   read here can be newer than another. *)
let range t ctx ~lo ~hi =
  with_mu t (fun () ->
      match (t.view, t.store) with
      | Some v, Some store -> (
          let pairs = Sg.range v ctx ~lo ~hi in
          match t.mvcc with
          | None -> pairs
          | Some ext ->
              let read = MV.view_reader t.chains store ext in
              List.filter_map
                (fun (k, rptr) ->
                  match read rptr with
                  | Some value -> Some (k, value)
                  | None -> None)
                pairs)
      | _ -> [])

let cardinal t =
  with_mu t (fun () ->
      match (t.view, t.store) with
      | Some v, Some store -> (
          match t.mvcc with
          | None -> Sg.cardinal v
          | Some ext ->
              (* live pairs at the cut: tombstoned keys still hold tree
                 pairs until the primary vacuums them *)
              let read = MV.view_reader t.chains store ext in
              Sg.fold_range v (Repro_core.Handle.ctx ~slot:0) ~lo:min_int
                ~hi:max_int ~init:0 (fun acc _k rptr ->
                  match read rptr with
                  | Some _ -> acc + 1
                  | None -> acc))
      | _ -> 0)

let mvcc_horizon t =
  with_mu t (fun () ->
      match t.mvcc with
      | None -> None
      | Some ext -> Some ext.Mvcc.clock)

let height t =
  with_mu t (fun () ->
      match t.view with None -> 0 | Some v -> Sg.height v)

(** Flip the replica read-write: subsequent mutations through
    {!handle} run against the replicated store, continuing exactly from
    the applied horizon. The feed must be drained (and stopped) first —
    the caller owns that ordering; see the promotion oracle in
    [lib/harness/crash.ml]. *)
let promote t = t.promoted <- true

let not_writable () = failwith "replica: read-only (not promoted)"

let not_mvcc_writable () =
  failwith
    "replica: durable-MVCC store — promote by reopening the replicated \
     files through Mvcc.open_durable, not through the plain-tree handle \
     (raw payloads would corrupt the version chains)"

(** A {!Tree_intf.handle} over the replica, servable by {!Server} like
    any other backend: search/range/stats work at the replay horizon;
    insert/delete/commit fail until {!promote}. *)
let handle t =
  {
    Repro_baseline.Tree_intf.name = "replica";
    search = (fun ctx k -> search t ctx k);
    insert =
      (fun ctx k v ->
        if not t.promoted then not_writable ()
        else if t.mvcc <> None then not_mvcc_writable ()
        else
          with_mu t (fun () ->
              match t.view with
              | Some view -> Sg.insert view ctx k v
              | None -> not_writable ()));
    delete =
      (fun ctx k ->
        if not t.promoted then not_writable ()
        else if t.mvcc <> None then not_mvcc_writable ()
        else
          with_mu t (fun () ->
              match t.view with
              | Some view -> Sg.delete view ctx k
              | None -> not_writable ()));
    cardinal = (fun () -> cardinal t);
    height = (fun () -> height t);
    commit =
      (fun () ->
        if t.promoted then
          with_mu t (fun () ->
              match t.view with Some view -> Sg.commit view | None -> ()));
    range = Some (fun ctx ~lo ~hi -> range t ctx ~lo ~hi);
    sharding = None;
    bulk_add = None;
    mvcc = None;
    log = None;
  }
