(** Concurrent multi-version record heap.

    The paper's leaves store pairs (v, p) where "p points to the record
    with key value v" and assumes "space has already been allocated to r"
    (§3.1). This module is that allocation, extended with multiversioning:
    each slot holds a short {e version chain} — immutable
    [{epoch; value; prev}] records, newest first — so lock-free readers
    pinned to an old epoch keep seeing the value that was current then
    while writers CAS fresh versions onto the head. A [value] of [None] is
    a tombstone: the record is logically absent from that epoch on, but
    the chain (and the tree pair pointing at it) survives until vacuum.

    Like {!Store}, slots never move, so readers index without
    synchronisation; every chain transition is a single CAS on the slot.

    Lifecycle of a slot: [Empty] -> [Chain _] (via {!put}) -> ... appends
    ... -> [Sealed] (vacuum proved the chain dead below every pin and
    {!seal}ed it so late appenders retry elsewhere) -> [Empty] (via
    {!free}, deferred through an {!Epoch} manager past all pins).
    {!prune} truncates the cold tail of a chain once no pin can reach it;
    versions at or above [horizon] always survive. *)

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let max_chunks = 1 lsl 14

type 'v version = {
  epoch : int;  (** the writer's pinned epoch when this version landed *)
  value : 'v option;  (** [None] = tombstone (logical delete) *)
  prev : 'v version option;  (** next-older version, [None] at the tail *)
}

(* A slot's whole state; transitions are single CASes on the slot atomic.
   [Sealed] is the vacuum barrier: a chain proven dead below every pin is
   sealed before its tree pair is removed, so a concurrent appender that
   still holds the old record pointer fails with [`Gone] and retries from
   a fresh tree search instead of resurrecting an orphaned record. *)
type 'v state = Empty | Chain of 'v version | Sealed

type 'v t = {
  chunks : 'v state Atomic.t array option Atomic.t array;
  next : int Atomic.t;
  free_list : int list Atomic.t;
  allocated : int Atomic.t;
  freed : int Atomic.t;
  bytes_stored : int Atomic.t;
  versions : int Atomic.t;  (** live version records across all chains *)
  live_values : int Atomic.t;  (** chains whose head is a non-tombstone *)
  pruned : int Atomic.t;  (** versions dropped by {!prune} since create *)
  size : 'v -> int;  (** payload size for the [bytes_stored] gauge *)
}

let create ?(size = fun _ -> 0) () =
  {
    chunks = Array.init max_chunks (fun _ -> Atomic.make None);
    next = Atomic.make 0;
    free_list = Atomic.make [];
    allocated = Atomic.make 0;
    freed = Atomic.make 0;
    bytes_stored = Atomic.make 0;
    versions = Atomic.make 0;
    live_values = Atomic.make 0;
    pruned = Atomic.make 0;
    size;
  }

let ensure_chunk t ci =
  if ci >= max_chunks then failwith "Record_store: out of slots";
  match Atomic.get t.chunks.(ci) with
  | Some c -> c
  | None ->
      let fresh = Array.init chunk_size (fun _ -> Atomic.make Empty) in
      if Atomic.compare_and_set t.chunks.(ci) None (Some fresh) then fresh
      else (
        match Atomic.get t.chunks.(ci) with Some c -> c | None -> assert false)

let slot t ptr =
  let ci = ptr lsr chunk_bits in
  match Atomic.get t.chunks.(ci) with
  | Some c -> c.(ptr land (chunk_size - 1))
  | None ->
      invalid_arg (Printf.sprintf "Record_store: record %d not allocated" ptr)

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

let vsize t v = match v.value with Some x -> t.size x | None -> 0

let chain_stats t v =
  let rec go n b = function
    | None -> (n, b)
    | Some v -> go (n + 1) (b + vsize t v) v.prev
  in
  go 0 0 (Some v)

exception Freed_record of int

(** Allocate a slot whose chain is the single live version
    [{epoch; value; prev = None}]; the pointer is immediately valid in
    all domains. *)
let put t ~epoch value =
  Atomic.incr t.allocated;
  Atomic.incr t.versions;
  Atomic.incr t.live_values;
  ignore (Atomic.fetch_and_add t.bytes_stored (t.size value));
  let v = { epoch; value = Some value; prev = None } in
  match pop_free t with
  | Some p ->
      Atomic.set (slot t p) (Chain v);
      p
  | None ->
      let p = Atomic.fetch_and_add t.next 1 in
      let chunk = ensure_chunk t (p lsr chunk_bits) in
      Atomic.set chunk.(p land (chunk_size - 1)) (Chain v);
      p

(** Current value: the chain head's payload. [None] on a tombstoned or
    sealed chain (logically absent). @raise Freed_record on a reclaimed
    slot. *)
let get t ptr =
  match Atomic.get (slot t ptr) with
  | Empty -> raise (Freed_record ptr)
  | Sealed -> None
  | Chain v -> v.value

(** Value as of epoch [at]: the newest version with [epoch <= at],
    walking from the head. Appends are newest-first, and every version a
    pin at [at] could need survives {!prune} (see the horizon rule), so
    the first hit is the visible one even when concurrent writers pinned
    to different epochs interleaved their appends out of epoch order.
    @raise Freed_record on a reclaimed slot. *)
let get_at t ptr ~at =
  match Atomic.get (slot t ptr) with
  | Empty -> raise (Freed_record ptr)
  | Sealed -> None
  | Chain v ->
      let rec visible = function
        | Some v when v.epoch > at -> visible v.prev
        | Some v -> v.value
        | None -> None
      in
      visible (Some v)

(** Chain head, for vacuum's dead-chain test. [None] on a sealed chain.
    @raise Freed_record on a reclaimed slot. *)
let head t ptr =
  match Atomic.get (slot t ptr) with
  | Empty -> raise (Freed_record ptr)
  | Sealed -> None
  | Chain v -> Some v

(** Append a live version over a {e dead} head (insert-if-absent
    semantics — the resurrection half of {!Repro_core.Mvcc}'s insert).
    [`Live] — head is live, the key is taken; [`Ok] — appended; [`Gone]
    — chain sealed, the pair is being vacuumed: retry from the tree.
    @raise Freed_record on a reclaimed slot. *)
let rec insert_version t ptr ~epoch value =
  let a = slot t ptr in
  match Atomic.get a with
  | Empty -> raise (Freed_record ptr)
  | Sealed -> `Gone
  | Chain h as old -> (
      match h.value with
      | Some _ -> `Live
      | None ->
          if
            Atomic.compare_and_set a old
              (Chain { epoch; value = Some value; prev = Some h })
          then begin
            Atomic.incr t.versions;
            Atomic.incr t.live_values;
            ignore (Atomic.fetch_and_add t.bytes_stored (t.size value));
            `Ok
          end
          else insert_version t ptr ~epoch value)

(** Append a live version unconditionally (bind-or-overwrite). Reports
    what it covered; [`Gone] as in {!insert_version}.
    @raise Freed_record on a reclaimed slot. *)
let rec upsert t ptr ~epoch value =
  let a = slot t ptr in
  match Atomic.get a with
  | Empty -> raise (Freed_record ptr)
  | Sealed -> `Gone
  | Chain h as old ->
      if
        Atomic.compare_and_set a old
          (Chain { epoch; value = Some value; prev = Some h })
      then begin
        Atomic.incr t.versions;
        ignore (Atomic.fetch_and_add t.bytes_stored (t.size value));
        match h.value with
        | Some _ -> `Over_live
        | None ->
            Atomic.incr t.live_values;
            `Over_dead
      end
      else upsert t ptr ~epoch value

(** Append a tombstone over a live head (logical delete). [`Dead] — the
    head was already a tombstone; [`Gone] as in {!insert_version}.
    @raise Freed_record on a reclaimed slot. *)
let rec kill t ptr ~epoch =
  let a = slot t ptr in
  match Atomic.get a with
  | Empty -> raise (Freed_record ptr)
  | Sealed -> `Gone
  | Chain h as old -> (
      match h.value with
      | None -> `Dead
      | Some _ ->
          if
            Atomic.compare_and_set a old
              (Chain { epoch; value = None; prev = Some h })
          then begin
            Atomic.incr t.versions;
            Atomic.decr t.live_values;
            `Killed
          end
          else kill t ptr ~epoch)

(** Truncate the chain below the newest version with [epoch < horizon].
    Every pin is at [>= horizon], and a reader at epoch [E] stops at the
    first-from-head version with [epoch <= E]; the first version below
    [horizon] satisfies every such reader, so everything older is
    unreachable for all current pins — and for all future ones, since the
    clock only advances. Returns the number of versions dropped (0 on a
    sealed chain or when nothing is below the keeper).
    @raise Freed_record on a reclaimed slot. *)
let rec prune t ptr ~horizon =
  let a = slot t ptr in
  match Atomic.get a with
  | Empty -> raise (Freed_record ptr)
  | Sealed -> 0
  | Chain h as old -> (
      (* path: head..keeper (the first version with epoch < horizon);
         dropped: everything below the keeper *)
      let rec split acc v =
        if v.epoch < horizon then (v :: acc, v.prev)
        else
          match v.prev with
          | Some p -> split (v :: acc) p
          | None -> (v :: acc, None)
      in
      let rev_path, dropped = split [] h in
      match dropped with
      | None -> 0
      | Some _ ->
          (* rebuild the spine with the keeper's prev cut *)
          let rec rebuild = function
            | [] -> None
            | v :: older -> Some { v with prev = rebuild older }
          in
          let path = List.rev rev_path in
          let fresh =
            match rebuild path with Some v -> v | None -> assert false
          in
          if Atomic.compare_and_set a old (Chain fresh) then begin
            let n, b = chain_stats t (Option.get dropped) in
            ignore (Atomic.fetch_and_add t.versions (-n));
            ignore (Atomic.fetch_and_add t.pruned n);
            ignore (Atomic.fetch_and_add t.bytes_stored (-b));
            n
          end
          else prune t ptr ~horizon)

(** CAS the chain [Chain expect -> Sealed] (physical equality on the head
    version). The caller (vacuum) must have proved [expect] is a lone
    tombstone older than every pin; on [true] it owns the removal of the
    tree pair. [false] — the chain changed (a concurrent append or a
    racing vacuum won); re-examine. *)
let seal t ptr ~expect =
  let a = slot t ptr in
  match Atomic.get a with
  | Chain h as old when h == expect ->
      if Atomic.compare_and_set a old Sealed then begin
        let n, b = chain_stats t h in
        ignore (Atomic.fetch_and_add t.versions (-n));
        ignore (Atomic.fetch_and_add t.bytes_stored (-b));
        true
      end
      else false
  | Empty | Sealed | Chain _ -> false

(** Return a slot to the allocator. Callers racing readers must defer
    this through an {!Epoch} manager, as {!Repro_core.Mvcc} does. *)
let free t ptr =
  let a = slot t ptr in
  (match Atomic.get a with
  | Chain h ->
      let n, b = chain_stats t h in
      ignore (Atomic.fetch_and_add t.versions (-n));
      ignore (Atomic.fetch_and_add t.bytes_stored (-b));
      (match h.value with
      | Some _ -> Atomic.decr t.live_values
      | None -> ())
  | Empty | Sealed -> ());
  Atomic.set a Empty;
  Atomic.incr t.freed;
  push_free t ptr

let live_count t = Atomic.get t.allocated - Atomic.get t.freed
let bytes_stored t = Atomic.get t.bytes_stored
let live_versions t = Atomic.get t.versions
let live_values t = Atomic.get t.live_values
let pruned_total t = Atomic.get t.pruned

(* -- persistence hooks (durable MVCC) --

   The heap itself is volatile; {!Repro_core.Mvcc} serializes slot states
   into version-record pages of its page store and rebuilds the heap on
   recovery with the functions below. [export] is safe concurrently (one
   atomic read per slot — the chain is immutable past the head); the
   restore path is recovery-only, strictly single-threaded, before any
   worker touches the store. *)

type 'v slot_state = Slot_empty | Slot_sealed | Slot_chain of 'v version

(** Observe slot [ptr]'s state without materialising it. Unlike the
    accessors above this never raises: unallocated slots read as
    [Slot_empty], which is exactly what the serializer should persist. *)
let export t ptr =
  let ci = ptr lsr chunk_bits in
  if ci >= max_chunks then Slot_empty
  else
    match Atomic.get t.chunks.(ci) with
    | None -> Slot_empty
    | Some c -> (
        match Atomic.get c.(ptr land (chunk_size - 1)) with
        | Empty -> Slot_empty
        | Sealed -> Slot_sealed
        | Chain v -> Slot_chain v)

(** Install slot [ptr]'s state exactly as persisted (recovery only),
    replacing whatever an earlier [restore] put there. Gauges move as if
    the chain had been built by normal appends; allocation accounting
    is settled afterwards by {!finish_restore}. *)
let restore t ptr st =
  let chunk = ensure_chunk t (ptr lsr chunk_bits) in
  let a = chunk.(ptr land (chunk_size - 1)) in
  let count sign = function
    | Empty | Sealed -> ()
    | Chain v ->
        let n, b = chain_stats t v in
        ignore (Atomic.fetch_and_add t.versions (sign * n));
        ignore (Atomic.fetch_and_add t.bytes_stored (sign * b));
        if v.value <> None then ignore (Atomic.fetch_and_add t.live_values sign)
  in
  count (-1) (Atomic.get a);
  let s = match st with Slot_empty -> Empty | Slot_sealed -> Sealed | Slot_chain v -> Chain v in
  Atomic.set a s;
  count 1 s

(** Finish a restore: set the bump frontier to [next], rebuild the free
    list from every [Empty]/[Sealed] slot below it, and settle the
    allocated/freed gauges so [live_count] reports the occupied slots.
    ([Sealed] slots are freed by the caller once it has removed their
    tree pairs — it re-frees them explicitly, so they are {e not} put on
    the free list here.) *)
let finish_restore t ~next =
  Atomic.set t.next next;
  let free = ref [] and occupied = ref 0 in
  for p = next - 1 downto 0 do
    match export t p with
    | Slot_empty -> free := p :: !free
    | Slot_sealed | Slot_chain _ -> incr occupied
  done;
  Atomic.set t.free_list !free;
  Atomic.set t.allocated next;
  Atomic.set t.freed (List.length !free)

(** The bump-allocation frontier: every slot ever allocated is below it. *)
let frontier t = Atomic.get t.next
