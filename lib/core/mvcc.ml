(** Multi-version store: the Sagiv tree as a dense index over a
    {!Repro_storage.Record_store} of version chains, giving lock-free
    point-in-time snapshot reads with zero writer stalls.

    {2 Design}

    Tree nodes are rewritten in place (immutable values behind atomic
    slots), so the {e structure} cannot be versioned — the {e records}
    are. A pair (k, p) binds [k] to record slot [p] for the pair's whole
    lifetime; writers never repoint it. Logical state lives in the
    chain at [p]: an upsert appends a live version stamped with the
    writer's pinned epoch, a delete appends a tombstone, and the pair
    {e stays in the tree} so snapshots pinned before the delete still
    find it. Readers at epoch [E] resolve [p] to the newest version
    with [epoch <= E].

    {2 The snapshot cut}

    [snapshot] pins a dedicated epoch slot (publish-then-validate, so
    reclamation can never overtake it), then {e ticks} the clock to
    obtain the cut epoch [e], then waits until every worker pin exceeds
    [e]. Writers pinned at [<= e] started before the tick and their
    stamps are [<= e]; pins published after the tick validate against
    the advanced clock and stamp [> e]. Once the wait drains, reading
    at [e] is a consistent cut at the tick's instant: every operation
    whose effects are included began before the tick, every excluded
    one began after. Writers never wait — only the snapshot taker
    spins, and only for the ops already in flight at its tick.

    {2 Vacuum}

    Dead pairs (head tombstone below every pin) are physically removed
    by [vacuum], resolving the resurrection race with a [Sealed]
    barrier: re-check the pair still maps to the candidate slot, CAS
    the proven-dead chain to [Sealed] (late appenders get [`Gone] and
    retry from a fresh tree search), take the pair out of the tree,
    then retire the slot through the epoch manager so stale readers
    finish before the slot recycles. Chains that stay live just get
    their cold tails pruned.

    Several [t]s may share one {!Repro_storage.Epoch} ([?epoch] at
    create): a group snapshot then performs one pin + one tick + one
    wait and reads every sharing tree at the same cut — the cross-shard
    consistency {!Repro_baseline.Tree_intf} composes on. *)

open Repro_storage
module ISet = Set.Make (Int)

(* -- durable representation (backend-independent parts) --

   Version chains persist as {e version-record pages}: pseudo-nodes at
   {!Node.vrec_level} living in the tree's own page store, so they ride
   the same WAL batches, group commits, recovery replay and replication
   stream as the tree pages. Record slots are grouped ([2^group_bits]
   slots per group); a {e fold} re-serializes a group into a flat int
   stream carried in the node's [ptrs] array (codec v5 varint-packs it),
   split across link-chained continuation pages when it outgrows the
   per-page budget. The head page has [is_root = true]; recovery
   rediscovers groups by scanning for heads — no durable directory, so
   the store's metadata blob stays tiny.

   Between folds, a store with a log carries chain changes as {e logical
   records}: each commit logs the new state of every slot it changed,
   in the same per-slot encoding.

   Slot encoding (ints): tag (0 empty, 1 sealed, 1+n chain of n
   versions); per version newest-first: epoch; 0 (tombstone) | 1,
   encoded value. Group stream: [group; nslots; each slot's encoding].
   Capture stream (logical records): [slot; its encoding]*. *)

type meta_ext = { group_bits : int; clock : int; horizon : int; frontier : int }

let ext_magic = 0x4D_56_52_31 (* "MVR1" *)
let ext_len = 4 + 1 + (3 * 8)

let encode_meta_ext e =
  let buf = Buffer.create ext_len in
  Buffer.add_int32_le buf (Int32.of_int ext_magic);
  Buffer.add_uint8 buf e.group_bits;
  Buffer.add_int64_le buf (Int64.of_int e.clock);
  Buffer.add_int64_le buf (Int64.of_int e.horizon);
  Buffer.add_int64_le buf (Int64.of_int e.frontier);
  Buffer.to_bytes buf

(** Parse the MVCC extension appended after the Sagiv metadata (whose
    own header gives the offset); [None] = a plain, unversioned store. *)
let decode_meta_ext bytes =
  if Bytes.length bytes < 12 then None
  else
    let levels = Int32.to_int (Bytes.get_int32_le bytes 8) in
    let base = 12 + (8 * levels) in
    if levels < 0 || Bytes.length bytes < base + ext_len then None
    else if Int32.to_int (Bytes.get_int32_le bytes base) <> ext_magic then None
    else
      Some
        {
          group_bits = Bytes.get_uint8 bytes (base + 4);
          clock = Int64.to_int (Bytes.get_int64_le bytes (base + 5));
          horizon = Int64.to_int (Bytes.get_int64_le bytes (base + 13));
          frontier = Int64.to_int (Bytes.get_int64_le bytes (base + 21));
        }

let chain_len v =
  let rec go n v =
    match v.Record_store.prev with None -> n | Some p -> go (n + 1) p
  in
  go 1 v

exception Corrupt_vrec of string

(* One slot state in the slot encoding, through [push]; returns the
   versions it holds. *)
let push_slot push enc = function
  | Record_store.Slot_empty ->
      push 0;
      0
  | Record_store.Slot_sealed ->
      push 1;
      0
  | Record_store.Slot_chain v ->
      let n = chain_len v in
      push (n + 1);
      let rec walk v =
        push v.Record_store.epoch;
        (match v.Record_store.value with
        | None -> push 0
        | Some x ->
            push 1;
            push (enc x));
        match v.Record_store.prev with None -> () | Some p -> walk p
      in
      walk v;
      n

(* The inverse, reading ints through [next]. *)
let read_slot next dec =
  match next () with
  | 0 -> Record_store.Slot_empty
  | 1 -> Record_store.Slot_sealed
  | tag ->
      let n = tag - 1 in
      if n < 0 then raise (Corrupt_vrec "bad slot tag");
      let vs =
        Array.init n (fun _ ->
            let epoch = next () in
            let value = match next () with 0 -> None | _ -> Some (dec (next ())) in
            (epoch, value))
      in
      let rec build i =
        if i >= n then None
        else
          let epoch, value = vs.(i) in
          Some { Record_store.epoch; value; prev = build (i + 1) }
      in
      (match build 0 with
      | Some v -> Record_store.Slot_chain v
      | None -> raise (Corrupt_vrec "empty chain tag"))

(* An int-array reader for [read_slot]. *)
let reader (stream : int array) =
  let len = Array.length stream in
  let pos = ref 0 in
  let next () =
    if !pos >= len then raise (Corrupt_vrec "truncated version-record stream");
    let v = stream.(!pos) in
    incr pos;
    v
  in
  (next, fun () -> !pos >= len)

(** Serialize one group's slot states (read via [export], one atomic load
    per slot — chains are immutable past the head) into its int stream.
    Returns [(stream, versions, occupied)]; [not occupied] means every
    slot is empty and the group needs no pages at all. *)
let stream_of_group ~group ~group_bits ~enc export =
  let nslots = 1 lsl group_bits in
  let base = group lsl group_bits in
  let acc = ref [] in
  let push v = acc := v :: !acc in
  push group;
  push nslots;
  let versions = ref 0 and occupied = ref false in
  for i = 0 to nslots - 1 do
    let st = export (base + i) in
    (match st with Record_store.Slot_empty -> () | _ -> occupied := true);
    versions := !versions + push_slot push enc st
  done;
  (Array.of_list (List.rev !acc), !versions, !occupied)

(** Decode a group stream back into slot states:
    [(group, base_slot, states)]. Shared by recovery and the replica's
    snapshot reads. @raise Corrupt_vrec on a malformed stream. *)
let group_of_stream ~dec (stream : int array) =
  let next, at_end = reader stream in
  let group = next () in
  let nslots = next () in
  if group < 0 || nslots <= 0 then raise (Corrupt_vrec "bad group header");
  let states = Array.init nslots (fun _ -> read_slot next dec) in
  if not (at_end ()) then raise (Corrupt_vrec "trailing bytes in stream");
  (group, group * nslots, states)

(** Cut a group stream into [(offset, length)] runs, each as long as its
    varints fit in [budget] encoded bytes (a run holds at least one
    int), so every vrec page is filled by bytes, not by a worst-case
    int count. *)
let chunk_stream ~budget (stream : int array) =
  let runs = ref [] and start = ref 0 and used = ref 0 in
  Array.iteri
    (fun i v ->
      let b = Page_codec.varint_bytes v in
      if !used + b > budget && i > !start then begin
        runs := (!start, i - !start) :: !runs;
        start := i;
        used := 0
      end;
      used := !used + b)
    stream;
  runs := (!start, Array.length stream - !start) :: !runs;
  Array.of_list (List.rev !runs)

(* -- logical records --

   One commit's capture is the capture stream of the slots it changed,
   cut by {!chunk_stream} into records of at most [budget] bytes. A
   record is varints: a continuation flag (1 = the capture goes on in
   the next record, 0 = it ends here), then its run of the stream. *)

let encode_logical ~budget ~enc entries =
  match entries with
  | [] -> []
  | _ ->
      let acc = ref [] in
      let push v = acc := v :: !acc in
      List.iter
        (fun (slot, st) ->
          push slot;
          ignore (push_slot push enc st))
        entries;
      let stream = Array.of_list (List.rev !acc) in
      let runs = chunk_stream ~budget:(budget - 1) stream in
      let last = Array.length runs - 1 in
      Array.to_list
        (Array.mapi
           (fun i (off, n) ->
             let buf = Buffer.create budget in
             Page_codec.add_varint buf (if i < last then 1 else 0);
             for j = off to off + n - 1 do
               Page_codec.add_varint buf stream.(j)
             done;
             Buffer.to_bytes buf)
           runs)

let decode_logical ~dec records =
  let out = ref [] and pending = ref [] in
  let ints b =
    let acc = ref [] and pos = ref 0 in
    (try
       while !pos < Bytes.length b do
         let v, p = Page_codec.get_varint b ~pos:!pos in
         acc := v :: !acc;
         pos := p
       done
     with Page_codec.Corrupt msg -> raise (Corrupt_vrec ("logical record: " ^ msg)));
    List.rev !acc
  in
  List.iter
    (fun b ->
      match ints b with
      | [] -> raise (Corrupt_vrec "empty logical record")
      | more :: run ->
          pending := run :: !pending;
          if more = 0 then begin
            let next, at_end = reader (Array.of_list (List.concat (List.rev !pending))) in
            pending := [];
            while not (at_end ()) do
              let slot = next () in
              if slot < 0 then raise (Corrupt_vrec "negative slot");
              out := (slot, read_slot next dec) :: !out
            done
          end)
    records;
  if !pending <> [] then raise (Corrupt_vrec "logical capture cut short");
  List.rev !out

module Make_on_store (K : Key.S) (S : Page_store.S with type key = K.t) =
struct
  module T = Sagiv.Make_on_store (K) (S)
  module R = Record_store

  (** Durable-mode state: the version heap shadows into vrec pages of
      [d_store] (the {e same} store the tree lives in), and between folds
      into the logical records of its log. [d_mu] serialises captures
      and folds; the page table, the group sets and the gauges are only
      touched under it. *)
  type 'v durable = {
    d_store : S.t;
    d_enc : 'v -> int;
    d_dec : int -> 'v;
    d_group_bits : int;
    d_page_bytes : int;
        (** encoded stream bytes per vrec page ({!Page_codec.vrec_budget}) *)
    d_mu : Mutex.t;
    d_pages : (int, Node.ptr list) Hashtbl.t;  (** group -> head :: rest *)
    d_group_versions : (int, int) Hashtbl.t;
    mutable d_versions : int;  (** versions in vrec pages at the last fold *)
    mutable d_npages : int;  (** vrec pages currently allocated *)
    d_dirty : int list Atomic.t;
        (** slots changed since the last capture (Treiber stack; may
            repeat a slot) *)
    mutable d_unfolded : ISet.t;
        (** groups whose pages lag the state their records logged *)
    mutable d_logged : ISet.t;
        (** groups that may have a logical record in the current log
            pass: every group logged since open, plus those the pass
            replayed at open. A fold logs their changed slots first. *)
  }

  type 'v t = {
    tree : T.t;
    records : 'v R.t;
    epoch : Epoch.t;
        (** the record/MVCC clock — distinct from the tree's own page
            epoch, and shareable across shards for group snapshots *)
    gc : (K.t * int) list Atomic.t;  (** vacuum candidates (Treiber stack) *)
    gc_len : int Atomic.t;
    retired : (int * int) list Atomic.t;
        (** sealed record slots in limbo as [(retire epoch, rptr)]. Kept
            here, not in the epoch manager's limbo: the {e clock} may be
            shared across shards but the {e slots} belong to this store,
            and a shared limbo would free one shard's slots into
            another's heap. *)
    durable : 'v durable option;
  }

  type ctx = Handle.ctx

  let ctx = Handle.ctx

  let create ?order ?enqueue_on_delete ?epoch ?size () =
    {
      tree = T.create ?order ?enqueue_on_delete ();
      records = R.create ?size ();
      epoch = (match epoch with Some e -> e | None -> Epoch.create ());
      gc = Atomic.make [];
      gc_len = Atomic.make 0;
      retired = Atomic.make [];
      durable = None;
    }

  let tree t = t.tree
  let records t = t.records
  let epoch t = t.epoch
  let durable t = Option.is_some t.durable

  (** Note a chain mutation for the next capture: one push on a
      lock-free stack. *)
  let mark_dirty t rptr =
    match t.durable with
    | None -> ()
    | Some d ->
        let rec go () =
          let old = Atomic.get d.d_dirty in
          if not (Atomic.compare_and_set d.d_dirty old (rptr :: old)) then go ()
        in
        go ()

  let note_gc t k ptr =
    let rec go () =
      let old = Atomic.get t.gc in
      if Atomic.compare_and_set t.gc old ((k, ptr) :: old) then
        Atomic.incr t.gc_len
      else go ()
    in
    go ()

  let with_stamp t (ctx : ctx) f =
    let e = Epoch.pin t.epoch ~slot:ctx.Handle.slot in
    Fun.protect
      ~finally:(fun () -> Epoch.unpin t.epoch ~slot:ctx.Handle.slot)
      (fun () -> f e)

  (** [get t ctx k] is the current value bound to [k], lock-free. The
      pin defers slot recycling, never blocks writers. *)
  let get t (ctx : ctx) k =
    with_stamp t ctx (fun _e ->
        match T.search t.tree ctx k with
        | None -> None
        | Some rptr -> R.get t.records rptr)

  (** Insert-if-absent. A fresh key allocates a record and publishes the
      pair; a tombstoned key resurrects in place (new live version on the
      dead chain); [`Gone] (sealed mid-vacuum) retries until the pair is
      physically out, then takes the fresh path. *)
  let insert t (ctx : ctx) k v : [ `Ok | `Duplicate ] =
    with_stamp t ctx (fun e ->
        let rec fresh () =
          let rptr = R.put t.records ~epoch:e v in
          mark_dirty t rptr;
          match T.insert t.tree ctx k rptr with
          | `Ok -> `Ok
          | `Duplicate ->
              (* lost the publish race; the record was never visible *)
              R.free t.records rptr;
              mark_dirty t rptr;
              existing ()
        and existing () =
          match T.search t.tree ctx k with
          | None -> fresh ()
          | Some rptr -> (
              match R.insert_version t.records rptr ~epoch:e v with
              | `Ok ->
                  mark_dirty t rptr;
                  note_gc t k rptr;
                  `Ok
              | `Live -> `Duplicate
              | `Gone ->
                  Domain.cpu_relax ();
                  existing ())
        in
        existing ())

  (** Bind-or-overwrite (the KV [put]): append a live version to the
      key's chain, allocating the pair on first touch. *)
  let upsert t (ctx : ctx) k v =
    with_stamp t ctx (fun e ->
        let rec fresh () =
          let rptr = R.put t.records ~epoch:e v in
          mark_dirty t rptr;
          match T.insert t.tree ctx k rptr with
          | `Ok -> ()
          | `Duplicate ->
              R.free t.records rptr;
              mark_dirty t rptr;
              existing ()
        and existing () =
          match T.search t.tree ctx k with
          | None -> fresh ()
          | Some rptr -> (
              match R.upsert t.records rptr ~epoch:e v with
              | `Over_live | `Over_dead ->
                  mark_dirty t rptr;
                  note_gc t k rptr
              | `Gone ->
                  Domain.cpu_relax ();
                  existing ())
        in
        existing ())

  (** Logical delete: append a tombstone; the pair stays in the tree for
      pinned readers until vacuum removes it. [true] when the key was
      live. *)
  let delete t (ctx : ctx) k =
    with_stamp t ctx (fun e ->
        let rec go () =
          match T.search t.tree ctx k with
          | None -> false
          | Some rptr -> (
              match R.kill t.records rptr ~epoch:e with
              | `Killed ->
                  mark_dirty t rptr;
                  note_gc t k rptr;
                  true
              | `Dead -> false
              | `Gone ->
                  Domain.cpu_relax ();
                  go ())
        in
        go ())

  (** Current-time fold over live bindings in [lo <= k <= hi] — same
      weak contract as {!Sagiv.Make_on_store.fold_range}: not a
      consistent cut; use a snapshot for that. Tombstoned pairs are
      skipped. *)
  let fold_range t (ctx : ctx) ~lo ~hi ~init f =
    Epoch.with_pin t.epoch ~slot:ctx.Handle.slot (fun () ->
        T.fold_range t.tree ctx ~lo ~hi ~init (fun acc k rptr ->
            match R.get t.records rptr with
            | Some v -> f acc k v
            | None -> acc
            | exception R.Freed_record _ -> acc))

  let range t (ctx : ctx) ~lo ~hi =
    List.rev (fold_range t ctx ~lo ~hi ~init:[] (fun acc k v -> (k, v) :: acc))

  let cardinal t = R.live_values t.records

  (* -- snapshots -- *)

  type snap = {
    snap_epoch : int;
    snap_slot : int;
    snap_owner : Epoch.t;
    released : bool Atomic.t;
  }

  let snap_epoch s = s.snap_epoch

  (** The boundary protocol against [epoch]: pin a snapshot slot,
      tick, wait out the writers already in flight. *)
  let snapshot_on epoch =
    let snap_slot, _pinned = Epoch.pin_snapshot epoch in
    let snap_epoch = Epoch.tick epoch in
    while Epoch.min_worker_pinned epoch <= snap_epoch do
      Domain.cpu_relax ()
    done;
    { snap_epoch; snap_slot; snap_owner = epoch; released = Atomic.make false }

  let snapshot t = snapshot_on t.epoch

  (** One cut across every tree sharing one epoch manager: a single
      pin + tick + wait, so per-shard reads at the returned snapshot
      compose into one point-in-time view. @raise Invalid_argument if
      the trees do not share their epoch. *)
  let snapshot_group (ts : 'v t array) =
    if Array.length ts = 0 then invalid_arg "Mvcc.snapshot_group: no trees";
    let e = ts.(0).epoch in
    Array.iter
      (fun t ->
        if t.epoch != e then
          invalid_arg "Mvcc.snapshot_group: trees do not share an epoch")
      ts;
    snapshot_on e

  let release snap =
    if Atomic.compare_and_set snap.released false true then
      Epoch.release_snapshot snap.snap_owner snap.snap_slot

  let check_snap t snap =
    if Atomic.get snap.released then invalid_arg "Mvcc: snapshot released";
    if snap.snap_owner != t.epoch then
      invalid_arg "Mvcc: snapshot from a different epoch domain"

  (** Point read at the cut. The snap pin keeps every version visible at
      [snap_epoch] alive (prune horizons never pass a pin), and keeps
      the pair in the tree (vacuum's seal requires the horizon to pass
      the tombstone's stamp). *)
  let snap_get t snap (ctx : ctx) k =
    check_snap t snap;
    match T.search t.tree ctx k with
    | None -> None
    | Some rptr -> (
        try R.get_at t.records rptr ~at:snap.snap_epoch
        with R.Freed_record _ -> None)

  (** Consistent fold at the cut: walk the live leaf chain (the tree
      only ever moves pairs rightwards on splits and holds every pair
      visible at a pinned epoch), resolving each record at
      [snap_epoch]. *)
  let snap_fold_range t snap (ctx : ctx) ~lo ~hi ~init f =
    check_snap t snap;
    T.fold_range t.tree ctx ~lo ~hi ~init (fun acc k rptr ->
        match R.get_at t.records rptr ~at:snap.snap_epoch with
        | Some v -> f acc k v
        | None -> acc
        | exception R.Freed_record _ -> acc)

  let snap_range t snap (ctx : ctx) ~lo ~hi =
    List.rev
      (snap_fold_range t snap ctx ~lo ~hi ~init:[] (fun acc k v ->
           (k, v) :: acc))

  (* -- vacuum -- *)

  (** Drain the candidate stack: prune cold tails everywhere; physically
      remove pairs whose chain is a lone tombstone below every pin, via
      seal -> take -> retire. Candidates that stay dead but pinned are
      re-queued for the next pass. Returns the number of pairs removed
      from the tree. *)
  let vacuum t (ctx : ctx) =
    let batch = Atomic.exchange t.gc [] in
    ignore (Atomic.fetch_and_add t.gc_len (-List.length batch));
    let horizon = Epoch.min_pinned t.epoch in
    let removed = ref 0 in
    let collect (k, rptr) =
      (* Bounded re-examination: a concurrent prune rebuilds the spine
         (new version records), so a failed seal means "re-read", not
         "gone". Give up after a few rounds and requeue. *)
      let rec go attempts =
        if attempts = 0 then note_gc t k rptr
        else begin
          (try if R.prune t.records rptr ~horizon > 0 then mark_dirty t rptr
           with R.Freed_record _ -> ());
          match (try R.head t.records rptr with R.Freed_record _ -> None) with
          | None -> () (* sealed by another vacuum, or freed: drop *)
          | Some h -> (
              match (h.R.value, h.R.prev) with
              | Some _, _ -> () (* live again; its next death re-notes it *)
              | None, Some _ ->
                  (* dead but the tail is pinned: a later pass collects *)
                  note_gc t k rptr
              | None, None ->
                  if h.R.epoch >= horizon then note_gc t k rptr
                  else if T.search t.tree ctx k <> Some rptr then
                    () (* stale candidate: [k] re-bound elsewhere *)
                  else if R.seal t.records rptr ~expect:h then begin
                    mark_dirty t rptr;
                    (* Ours: the mapping k -> rptr is frozen (removal
                       requires a seal, and ours won; appenders bounce
                       off [Sealed]), so the take must succeed. The tick
                       starts the slot's grace period: readers pinned
                       below it may still hold [rptr]. *)
                    (match T.take t.tree ctx k with
                    | Some taken -> assert (taken = rptr)
                    | None -> assert false);
                    let e = Epoch.tick t.epoch in
                    let rec push () =
                      let old = Atomic.get t.retired in
                      if not (Atomic.compare_and_set t.retired old ((e, rptr) :: old))
                      then push ()
                    in
                    push ();
                    incr removed
                  end
                  else go (attempts - 1))
        end
      in
      go 4
    in
    List.iter collect batch;
    !removed

  (** Release record slots and tree pages whose grace periods passed.
      Record limbo is this store's own list ([retired]); the horizon is
      the shared clock's [min_pinned], so slots outlive every reader and
      snapshot that could still reach them. *)
  let reclaim t =
    let horizon = Epoch.min_pinned t.epoch in
    let batch = Atomic.exchange t.retired [] in
    let keep, free = List.partition (fun (e, _) -> e >= horizon) batch in
    (if keep <> [] then
       let rec push () =
         let old = Atomic.get t.retired in
         if not (Atomic.compare_and_set t.retired old (keep @ old)) then push ()
       in
       push ());
    List.iter
      (fun (_, rptr) ->
        R.free t.records rptr;
        mark_dirty t rptr)
      free;
    List.length free + T.reclaim t.tree

  (* -- durability -- *)

  let vrec_node ~ptrs ~link ~is_root : K.t Node.t =
    {
      Node.level = Node.vrec_level;
      keys = [||];
      ptrs;
      low = Bound.Neg_inf;
      high = Bound.Pos_inf;
      link;
      is_root;
      state = Node.Live;
    }

  (* Fold group [g]: re-serialize it into its vrec pages (caller holds
     [d_mu]). Existing pages are rewritten in place (their ptrs are
     stable across folds, so the WAL logs only genuinely-changed images); growth
     reserves continuations, shrinkage releases them; an all-empty group
     releases everything. *)
  let persist_group t d g =
    let stream, versions, occupied =
      stream_of_group ~group:g ~group_bits:d.d_group_bits ~enc:d.d_enc
        (R.export t.records)
    in
    let existing =
      Option.value ~default:[] (Hashtbl.find_opt d.d_pages g)
    in
    let old_versions =
      Option.value ~default:0 (Hashtbl.find_opt d.d_group_versions g)
    in
    if not occupied then begin
      List.iter (S.release d.d_store) existing;
      d.d_npages <- d.d_npages - List.length existing;
      d.d_versions <- d.d_versions - old_versions;
      Hashtbl.remove d.d_pages g;
      Hashtbl.remove d.d_group_versions g
    end
    else begin
      let chunks = chunk_stream ~budget:d.d_page_bytes stream in
      let nchunks = Array.length chunks in
      let rec fit have n =
        if n = 0 then begin
          List.iter (S.release d.d_store) have;
          []
        end
        else
          match have with
          | [] -> S.reserve d.d_store :: fit [] (n - 1)
          | p :: rest -> p :: fit rest (n - 1)
      in
      let ptrs_list = fit existing nchunks in
      let parr = Array.of_list ptrs_list in
      for i = 0 to nchunks - 1 do
        let off, n = chunks.(i) in
        let chunk = Array.sub stream off n in
        let link = if i + 1 < nchunks then Some parr.(i + 1) else None in
        let p = parr.(i) in
        S.lock d.d_store p;
        S.put d.d_store p (vrec_node ~ptrs:chunk ~link ~is_root:(i = 0));
        S.unlock d.d_store p
      done;
      d.d_npages <- d.d_npages + nchunks - List.length existing;
      d.d_versions <- d.d_versions + versions - old_versions;
      Hashtbl.replace d.d_pages g ptrs_list;
      Hashtbl.replace d.d_group_versions g versions
    end

  (* Log the state of [slots] as one capture: its records reach the log
     in the order captures are taken, all in one batch. Caller holds
     [d_mu]. *)
  let log_slots t d slots =
    if slots <> [] then begin
      let entries = List.map (fun s -> (s, R.export t.records s)) slots in
      S.log_logical d.d_store
        (encode_logical ~budget:(S.page_size d.d_store) ~enc:d.d_enc entries);
      List.iter (fun s -> d.d_logged <- ISet.add (s lsr d.d_group_bits) d.d_logged) slots
    end

  (* Rewrite the pages of every unfolded group (caller holds [d_mu]). A
     group leaves the set only once its pages are put, so a fold that
     fails part-way leaves the rest for the next one. *)
  let fold t d =
    ISet.iter
      (fun g ->
        persist_group t d g;
        d.d_unfolded <- ISet.remove g d.d_unfolded)
      d.d_unfolded

  (* Capture the slots changed since the last capture, fold if asked,
     and refresh the metadata blob (tree geometry + MVCC extension).

     A commit logs every changed slot. A fold — at each checkpoint —
     first logs the changed slots of groups that may already have a
     record in this pass: replay applies the pass's records over the
     pages, so each slot's last record must say what the fold wrote.
     Groups with no record in the pass need none (a bulk load folds
     without logging a record).

     The clock is read {e after} the chains: every epoch in a captured
     or folded chain came from a pin at [<= global], so the persisted
     clock bounds every persisted stamp and recovery's [advance_to] can
     never let a fresh write stamp below durable state. Likewise
     [horizon]: recovery re-prunes at the persisted [min_pinned], which
     is exactly the most conservative prune any pre-crash vacuum could
     have applied — a WAL replay of a pre-prune image or record past a
     checkpoint is undone deterministically, never resurrected. *)
  let persist ~fold_all t d =
    Mutex.lock d.d_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock d.d_mu)
      (fun () ->
        let dirty = Atomic.exchange d.d_dirty [] in
        (* consecutive slots mostly share a group (a bulk load pushes
           100k slots in order): add each run's group once *)
        let prev = ref (-1) in
        List.iter
          (fun s ->
            let g = s lsr d.d_group_bits in
            if g <> !prev then begin
              prev := g;
              d.d_unfolded <- ISet.add g d.d_unfolded
            end)
          dirty;
        log_slots t d
          (List.sort_uniq Int.compare
             (if fold_all then
                List.filter (fun s -> ISet.mem (s lsr d.d_group_bits) d.d_logged) dirty
              else dirty));
        if fold_all then fold t d;
        let clock = Epoch.current t.epoch in
        let horizon =
          let m = Epoch.min_pinned t.epoch in
          if m = max_int then clock else m
        in
        let frontier = R.frontier t.records in
        let ext =
          encode_meta_ext
            { group_bits = d.d_group_bits; clock; horizon; frontier }
        in
        S.set_meta d.d_store (Bytes.cat (T.encode_meta t.tree) ext))

  (** Durably commit completed operations: on a durable tree the chain
      changes ride the same commit batch as logical records of the
      changed slots. Plain (memory) trees defer to {!T.commit}. *)
  let commit t =
    match t.durable with
    | None -> T.commit t.tree
    | Some d ->
        persist ~fold_all:false t d;
        S.commit d.d_store

  (** Quiescent full sync (checkpoint path): fold every group the log
      got ahead of, then checkpoint; see {!T.flush}. *)
  let flush t =
    match t.durable with
    | None -> T.flush t.tree
    | Some d ->
        persist ~fold_all:true t d;
        S.sync d.d_store

  let mk_durable ?(group_bits = 6) ~enc ~dec store =
    {
      d_store = store;
      d_enc = enc;
      d_dec = dec;
      d_group_bits = group_bits;
      d_page_bytes = Page_codec.vrec_budget ~page_size:(S.page_size store);
      d_mu = Mutex.create ();
      d_pages = Hashtbl.create 64;
      d_group_versions = Hashtbl.create 64;
      d_versions = 0;
      d_npages = 0;
      d_dirty = Atomic.make [];
      d_unfolded = ISet.empty;
      d_logged = ISet.empty;
    }

  (* Every checkpoint of the store folds first, however it is reached
     (this module's [flush], or the store's own close), so no pass ends
     with records its pages do not hold. *)
  let register_fold t =
    match t.durable with
    | Some d -> S.on_checkpoint d.d_store (fun () -> persist ~fold_all:true t d)
    | None -> ()

  (** A fresh durable MVCC store over an empty page store: the tree and
      the version heap share [store], one commit makes both durable.
      [enc]/[dec] map payloads to the int stream (identity for int
      payloads). Each vrec page is filled up to the encoded bytes the
      store's page holds. *)
  let create_durable ?order ?enqueue_on_delete ?epoch ?size ?group_bits
      ~enc ~dec store =
    let t =
      {
        tree = T.create ?order ?enqueue_on_delete ~store ();
        records = R.create ?size ();
        epoch = (match epoch with Some e -> e | None -> Epoch.create ());
        gc = Atomic.make [];
        gc_len = Atomic.make 0;
        retired = Atomic.make [];
        durable = Some (mk_durable ?group_bits ~enc ~dec store);
      }
    in
    register_fold t;
    t

  (** Reopen a durable MVCC store: rebuild the tree from its metadata,
      rediscover the vrec pages (quiescent [iter] for heads, links for
      continuations), restore every chain as its pages hold it, then
      apply the log pass's replayed logical records in order over them,
      restart the clock above every persisted stamp, re-prune at the
      persisted horizon, then heal the bounded crash windows the commit
      protocol leaves open:
      - a pair whose slot is empty (tree insert captured, record not):
        the op was never acked — remove the pair;
      - a pair whose slot is sealed (vacuum's seal captured, take not):
        finish the removal;
      - an occupied slot no pair reaches (record captured, tree insert
        not; or take captured, seal not): free it;
      - a reachable chain headed by a tombstone: re-note it for vacuum.
      The groups the records touched are marked for the next fold.
      A store with no MVCC extension (a plain unversioned tree) is
      migrated in place: each payload becomes a one-version chain. *)
  let open_durable ?enqueue_on_delete ?epoch ?size ?group_bits ~enc ~dec
      store =
    let tree = T.open_existing ?enqueue_on_delete store in
    let meta =
      match S.get_meta store with Some b -> b | None -> assert false
    in
    let ext = decode_meta_ext meta in
    let d =
      mk_durable
        ?group_bits:
          (match ext with
          | Some e -> Some e.group_bits
          | None -> group_bits)
        ~enc ~dec store
    in
    let t =
      {
        tree;
        records = R.create ?size ();
        epoch = (match epoch with Some e -> e | None -> Epoch.create ());
        gc = Atomic.make [];
        gc_len = Atomic.make 0;
        retired = Atomic.make [];
        durable = Some d;
      }
    in
    let c = ctx ~slot:0 in
    (match ext with
    | None ->
        (* plain tree: migrate payloads into one-version chains *)
        let e = Epoch.current t.epoch in
        List.iter
          (fun (k, payload) ->
            let rptr = R.put t.records ~epoch:e (dec payload) in
            mark_dirty t rptr;
            (match T.update tree c k rptr with
            | Some _ -> ()
            | None -> assert false))
          (T.to_list tree)
    | Some ext ->
        (* rediscover groups: scan for vrec heads, follow links *)
        let heads = ref [] in
        let nodes = Hashtbl.create 64 in
        S.iter store (fun p n ->
            if n.Node.level = Node.vrec_level then begin
              Hashtbl.replace nodes p n;
              if n.Node.is_root then heads := p :: !heads
            end);
        let max_slot = ref (-1) in
        let restore slot st =
          R.restore t.records slot st;
          match st with
          | R.Slot_empty -> ()
          | _ -> if slot > !max_slot then max_slot := slot
        in
        List.iter
          (fun hp ->
            let rec pages p =
              let n =
                match Hashtbl.find_opt nodes p with
                | Some n -> n
                | None -> S.get store p
              in
              match n.Node.link with
              | Some nxt -> (p, n.Node.ptrs) :: pages nxt
              | None -> [ (p, n.Node.ptrs) ]
            in
            let chunks = pages hp in
            let stream = Array.concat (List.map snd chunks) in
            let group, base, states = group_of_stream ~dec:d.d_dec stream in
            let versions = ref 0 in
            Array.iteri
              (fun i st ->
                restore (base + i) st;
                match st with
                | R.Slot_chain v -> versions := !versions + chain_len v
                | _ -> ())
              states;
            Hashtbl.replace d.d_pages group (List.map fst chunks);
            Hashtbl.replace d.d_group_versions group !versions;
            d.d_versions <- d.d_versions + !versions;
            d.d_npages <- d.d_npages + List.length chunks)
          !heads;
        (* the pass's logical records, in log order, over the pages: the
           last record of a slot is its state at the last promoted
           commit (the fold that ended the previous pass holds every
           older one) *)
        let touched = ref ISet.empty in
        List.iter
          (fun (slot, st) ->
            restore slot st;
            touched := ISet.add (slot lsr d.d_group_bits) !touched)
          (decode_logical ~dec:d.d_dec (S.replayed_logical store));
        R.finish_restore t.records ~next:(max ext.frontier (!max_slot + 1));
        Epoch.advance_to t.epoch ext.clock;
        (* re-prune at the persisted horizon: deterministic, idempotent —
           any version a pre-crash prune dropped is below [ext.horizon]
           and is dropped again here even if WAL replay resurrected a
           pre-prune page image or record *)
        let groups = Hashtbl.fold (fun g _ acc -> ISet.add g acc) d.d_pages !touched in
        ISet.iter
          (fun group ->
            let base = group lsl d.d_group_bits in
            for i = 0 to (1 lsl d.d_group_bits) - 1 do
              match R.export t.records (base + i) with
              | R.Slot_chain _ ->
                  if R.prune t.records (base + i) ~horizon:ext.horizon > 0
                  then mark_dirty t (base + i)
              | _ -> ()
            done)
          groups;
        (* heal the crash windows *)
        let reachable = Hashtbl.create 256 in
        List.iter
          (fun (k, rptr) ->
            Hashtbl.replace reachable rptr ();
            match R.export t.records rptr with
            | R.Slot_empty -> ignore (T.take tree c k)
            | R.Slot_sealed ->
                ignore (T.take tree c k);
                R.free t.records rptr;
                mark_dirty t rptr
            | R.Slot_chain h ->
                if h.R.value = None then note_gc t k rptr)
          (T.to_list tree);
        for p = 0 to R.frontier t.records - 1 do
          if not (Hashtbl.mem reachable p) then
            match R.export t.records p with
            | R.Slot_empty -> ()
            | R.Slot_sealed | R.Slot_chain _ ->
                R.free t.records p;
                mark_dirty t p
        done;
        (* the records' groups lag their pages until the next fold, and
           the pass holds records for them *)
        d.d_unfolded <- !touched;
        d.d_logged <- !touched);
    register_fold t;
    (* make the healed/migrated state durable before serving *)
    persist ~fold_all:false t d;
    S.commit store;
    t

  (** Bulk preload (quiescent, empty tree): allocate one-version chains
      for the payloads and pack the (key, slot) pairs through the tree's
      bulk builder. Returns [false] (and allocates nothing durable) when
      the tree is not empty. *)
  let bulk_add ?fill t pairs =
    let e = Epoch.current t.epoch in
    let prs =
      List.map
        (fun (k, v) ->
          let rptr = R.put t.records ~epoch:e v in
          mark_dirty t rptr;
          (k, rptr))
        pairs
    in
    if T.bulk_add ?fill t.tree prs then true
    else begin
      List.iter
        (fun (_, rptr) ->
          R.free t.records rptr;
          mark_dirty t rptr)
        prs;
      false
    end

  let persisted_versions t =
    match t.durable with None -> 0 | Some d -> d.d_versions

  let persisted_pages t =
    match t.durable with None -> 0 | Some d -> d.d_npages

  let gc_pending t = Atomic.get t.gc_len
  let live_versions t = R.live_versions t.records
  let pruned_versions t = R.pruned_total t.records
  let bytes_stored t = R.bytes_stored t.records
  let min_pinned t = Epoch.min_pinned t.epoch

  (** Snapshot the MVCC gauges into a {!Stats.io} record (the non-MVCC
      fields stay zero) so callers can [Stats.io_merge] it with the
      backing store's line and print one combined io report. *)
  let io_stats t =
    let io = Stats.io_create () in
    io.Stats.epoch_min_pinned <- Epoch.min_pinned t.epoch;
    io.Stats.snap_pins <- Epoch.pinned_snapshots t.epoch;
    io.Stats.mvcc_versions <- R.live_versions t.records;
    io.Stats.mvcc_pruned <- R.pruned_total t.records;
    (match t.durable with
    | Some d ->
        io.Stats.mvcc_disk_versions <- d.d_versions;
        io.Stats.mvcc_disk_pages <- d.d_npages
    | None -> ());
    io

  (* -- the chains of a follower's store --

     A follower installs the primary's batches into a store no [t]
     serves. Its chains are the group pages as the last fold wrote them,
     overlaid with the logical records shipped since: every record of
     the current generation, newest state per slot. A batch of a later
     generation drops the overlay, because the checkpoint that ended
     the older generation folded its records into the pages shipped
     before it. *)

  type 'v view = {
    v_dec : int -> 'v;
    v_overlay : (int, 'v R.slot_state) Hashtbl.t;
    mutable v_gen : int;
    mutable v_heads : (int, Node.ptr) Hashtbl.t option;
        (** group -> head page; rebuilt after every batch (a batch can
            allocate, release or rewrite any page) *)
  }

  let view ~dec =
    { v_dec = dec; v_overlay = Hashtbl.create 64; v_gen = -1; v_heads = None }

  let view_batch v ~gen ~logical =
    v.v_heads <- None;
    if gen > v.v_gen then begin
      Hashtbl.reset v.v_overlay;
      v.v_gen <- gen
    end;
    List.iter
      (fun (slot, st) -> Hashtbl.replace v.v_overlay slot st)
      (decode_logical ~dec:v.v_dec logical)

  let view_heads v store =
    match v.v_heads with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 64 in
        S.iter store (fun p n ->
            if n.Node.level = Node.vrec_level && n.Node.is_root then
              (* the head chunk starts with the group id *)
              match n.Node.ptrs with
              | [||] -> ()
              | ptrs -> Hashtbl.replace h ptrs.(0) p);
        v.v_heads <- Some h;
        h

  (* Newest version at or below [ext.clock] (the persisted clock bounds
     every persisted stamp, so this is the committed cut); [None] for a
     tombstone, an unresolvable slot, or a chain entirely above the cut
     (impossible for a well-formed feed, but fail closed). Group decodes
     are memoised for the life of the returned reader. *)
  let view_reader v store (ext : meta_ext) =
    let memo = Hashtbl.create 16 in
    let group_states g =
      match Hashtbl.find_opt memo g with
      | Some s -> s
      | None ->
          let s =
            match Hashtbl.find_opt (view_heads v store) g with
            | None -> None
            | Some head ->
                let rec chunks p =
                  let n = S.get store p in
                  match n.Node.link with
                  | Some nxt -> n.Node.ptrs :: chunks nxt
                  | None -> [ n.Node.ptrs ]
                in
                let _g, base, states =
                  group_of_stream ~dec:v.v_dec (Array.concat (chunks head))
                in
                Some (base, states)
          in
          Hashtbl.replace memo g s;
          s
    in
    let state rptr =
      match Hashtbl.find_opt v.v_overlay rptr with
      | Some st -> st
      | None -> (
          match group_states (rptr lsr ext.group_bits) with
          | None -> R.Slot_empty
          | Some (base, states) ->
              let i = rptr - base in
              if i < 0 || i >= Array.length states then R.Slot_empty
              else states.(i))
    in
    fun rptr ->
      match state rptr with
      | R.Slot_empty | R.Slot_sealed -> None
      | R.Slot_chain v ->
          let rec newest = function
            | None -> None
            | Some (v : 'v R.version) ->
                if v.R.epoch <= ext.clock then v.R.value else newest v.R.prev
          in
          newest (Some v)
end

module Make (K : Key.S) = Make_on_store (K) (Store.For_key (K))
