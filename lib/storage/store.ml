(** Concurrent page store: the paper's model of secondary storage (§2.2).

    Each page slot holds an immutable node snapshot behind an [Atomic.t],
    so [get] and [put] are indivisible exactly as the model requires, and
    readers never block. Each slot also carries the page latch used by
    [lock]/[unlock]; a latch never blocks readers — it only serialises
    writers, again per the model.

    Pages live in fixed-size chunks that are allocated on demand and never
    move, so readers index without synchronisation. Freed pages go to a
    Treiber-stack free list and are recycled by the allocator; the {!Epoch}
    manager decides {e when} it is safe to free (§5.3). *)

type 'k slot = { content : 'k Node.t option Atomic.t; latch : Mutex.t }

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let max_chunks = 1 lsl 14 (* 64 M pages *)

type 'k t = {
  chunks : 'k slot array option Atomic.t array;
  next : int Atomic.t;  (** bump allocator frontier *)
  free_list : int list Atomic.t;
  freed : int Atomic.t;  (** total pages ever freed *)
  allocated : int Atomic.t;  (** total pages ever allocated *)
  meta : Bytes.t option Atomic.t;  (** opaque client blob (see {!Page_store.S}) *)
}

let create () =
  {
    chunks = Array.init max_chunks (fun _ -> Atomic.make None);
    next = Atomic.make 0;
    free_list = Atomic.make [];
    freed = Atomic.make 0;
    allocated = Atomic.make 0;
    meta = Atomic.make None;
  }

let new_chunk () =
  Array.init chunk_size (fun _ -> { content = Atomic.make None; latch = Mutex.create () })

let ensure_chunk t ci =
  if ci >= max_chunks then failwith "Store: out of pages";
  match Atomic.get t.chunks.(ci) with
  | Some c -> c
  | None ->
      let fresh = new_chunk () in
      if Atomic.compare_and_set t.chunks.(ci) None (Some fresh) then fresh
      else (
        match Atomic.get t.chunks.(ci) with Some c -> c | None -> assert false)

let slot t ptr =
  let ci = ptr lsr chunk_bits in
  match Atomic.get t.chunks.(ci) with
  | Some c -> c.(ptr land (chunk_size - 1))
  | None -> invalid_arg (Printf.sprintf "Store: page %d not allocated" ptr)

let pop_free t =
  let rec go () =
    match Atomic.get t.free_list with
    | [] -> None
    | p :: rest as old ->
        if Atomic.compare_and_set t.free_list old rest then Some p else go ()
  in
  go ()

let push_free t p =
  let rec go () =
    let old = Atomic.get t.free_list in
    if not (Atomic.compare_and_set t.free_list old (p :: old)) then go ()
  in
  go ()

(** Allocate a page initialised to [node]; the id is valid for [get] in all
    domains as soon as this returns. *)
let alloc t node =
  Atomic.incr t.allocated;
  match pop_free t with
  | Some p ->
      Atomic.set (slot t p).content (Some node);
      p
  | None ->
      let p = Atomic.fetch_and_add t.next 1 in
      let chunk = ensure_chunk t (p lsr chunk_bits) in
      Atomic.set chunk.(p land (chunk_size - 1)).content (Some node);
      p

(** Reserve a page id without contents; the caller must [put] before the
    id becomes reachable by any other process (e.g. a split writes the new
    right sibling before linking it, Fig 3). *)
let reserve t =
  Atomic.incr t.allocated;
  match pop_free t with
  | Some p -> p
  | None ->
      let p = Atomic.fetch_and_add t.next 1 in
      ignore (ensure_chunk t (p lsr chunk_bits));
      p

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
  Atomic.incr t.freed;
  push_free t ptr

(** Pages currently holding a node (allocated minus freed). *)
let live_count t = Atomic.get t.allocated - Atomic.get t.freed

let total_allocated t = Atomic.get t.allocated
let total_freed t = Atomic.get t.freed

(** Iterate over all live pages. Only meaningful when quiescent. *)
let iter t f =
  let frontier = Atomic.get t.next in
  for p = 0 to frontier - 1 do
    match Atomic.get t.chunks.(p lsr chunk_bits) with
    | None -> ()
    | Some c -> (
        match Atomic.get c.(p land (chunk_size - 1)).content with
        | Some n -> f p n
        | None -> ())
  done

let set_meta t bytes = Atomic.set t.meta (Some (Bytes.copy bytes))
let get_meta t = Atomic.get t.meta
let sync _t = ()
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
  let on_checkpoint _ _ = ()
end
