(** Concurrent page store: the paper's model of secondary storage (§2.2).

    Each page slot holds an immutable node snapshot behind an [Atomic.t],
    so [get] and [put] are indivisible exactly as the model requires, and
    readers never block. Each slot also carries the page latch used by
    [lock]/[unlock]; a latch never blocks readers — it only serialises
    writers, again per the model.

    Pages live in a {!Slot_table}: chunks that never move, so readers
    index without synchronisation, and a free list the allocator recycles
    from; the {!Epoch} manager decides {e when} it is safe to free
    (§5.3). *)

type 'k slot = { content : 'k Node.t option Atomic.t; latch : Mutex.t }

type 'k t = {
  slots : 'k slot Slot_table.t;
  meta : Bytes.t option Atomic.t;  (** opaque client blob (see {!Page_store.S}) *)
  mutable checkpoint_hook : unit -> unit;  (** run by every [sync] *)
}

let create () =
  {
    slots =
      Slot_table.create ~name:"Store" (fun () ->
          { content = Atomic.make None; latch = Mutex.create () });
    meta = Atomic.make None;
    checkpoint_hook = ignore;
  }

let slot t ptr = Slot_table.get t.slots ptr

(** Allocate a page initialised to [node]; the id is valid for [get] in all
    domains as soon as this returns. *)
let alloc t node =
  let p = Slot_table.alloc t.slots in
  Atomic.set (slot t p).content (Some node);
  p

(** Reserve a page id without contents; the caller must [put] before the
    id becomes reachable by any other process (e.g. a split writes the new
    right sibling before linking it, Fig 3). *)
let reserve t = Slot_table.alloc t.slots

exception Freed_page = Page_store.Freed_page

(** Indivisible read of a page. Raises {!Freed_page} on a reclaimed page —
    with correct epoch protection this never happens; tests rely on the
    exception to catch reclamation bugs. *)
let get t ptr =
  match Atomic.get (slot t ptr).content with
  | Some n -> n
  | None -> raise (Freed_page ptr)

(** Indivisible rewrite of a page. *)
let put t ptr node = Atomic.set (slot t ptr).content (Some node)

(** Page latch: blocks other lockers, never blocks readers (§2.2). *)
let lock t ptr = Mutex.lock (slot t ptr).latch

let unlock t ptr = Mutex.unlock (slot t ptr).latch
let try_lock t ptr = Mutex.try_lock (slot t ptr).latch

(** Return a page to the allocator. Only call once its deletion epoch has
    passed (see {!Epoch}); the contents become unreadable immediately. *)
let release t ptr =
  Atomic.set (slot t ptr).content None;
  Slot_table.release t.slots ptr

(** Pages currently holding a node (allocated minus freed). *)
let live_count t = Slot_table.live t.slots

let total_allocated t = Slot_table.allocated t.slots
let total_freed t = Slot_table.freed t.slots

(** Iterate over all live pages. Only meaningful when quiescent. *)
let iter t f =
  for p = 0 to Slot_table.frontier t.slots - 1 do
    match Slot_table.find t.slots p with
    | Some { content; _ } -> Option.iter (f p) (Atomic.get content)
    | None -> ()
  done

let set_meta t bytes = Atomic.set t.meta (Some (Bytes.copy bytes))
let get_meta t = Atomic.get t.meta
let sync t = t.checkpoint_hook ()
let on_checkpoint t f = t.checkpoint_hook <- f
let commit _t = ()

(** {!Page_store.S} view of the store at one key type, so the functorized
    tree runs on it. [type t = K.t t] is kept transparent: code written
    against ['k Store.t] directly (tests poking at handles) and code
    going through the functor see the same type. *)
module For_key (K : Key.S) : Page_store.S with type key = K.t and type t = K.t t =
struct
  type key = K.t
  type nonrec t = K.t t

  let create = create
  let alloc = alloc
  let reserve = reserve
  let get = get
  let put = put
  let lock = lock
  let unlock = unlock
  let try_lock = try_lock
  let release = release
  let live_count = live_count
  let total_allocated = total_allocated
  let total_freed = total_freed
  let iter = iter
  let page_size _ = max_int
  let set_meta = set_meta
  let get_meta = get_meta
  let sync = sync
  let commit = commit

  (* Nothing durable: a client's records are dropped, and it folds its
     state into pages at [flush]. *)
  let log_logical _ _ = ()
  let replayed_logical _ = []
  let on_checkpoint = on_checkpoint
end
