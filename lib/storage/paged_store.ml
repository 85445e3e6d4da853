(** Durable concurrent page store: {!Page_store.S} over a {!Paged_file} /
    {!Page_codec} stack, so the full Sagiv algorithm —
    1-lock insertions, lock-free searches, compaction, epoch reclamation —
    runs disk-resident and survives close + reopen.

    Layered like a real pager:

    - {b Node cache}: each page slot holds the decoded node behind an
      [Atomic.t] plus the page latch, exactly like {!Store} — so [get] on
      a cached page and every [lock]/[unlock] are lock-free/latch-only and
      the paper's indivisible get/put model is preserved. Slots live in a
      {!Slot_table}, whose chunks never move.
    - {b IO layer}: the decoded-node cache is the only cache; data pages
      move between it and the {!Paged_file} with positional reads and
      writes and no raw-frame pool in between. The pages are hashed
      across N {e stripes} (page [p] belongs to stripe [p land (N-1)]);
      each stripe has its own mutex, clock hand, resident counter and
      one page-sized IO buffer, so faults, evictions and releases
      touching {e distinct} stripes proceed in parallel. A fault reads
      the page into its stripe's buffer and decodes it from there; a
      write-back encodes the node, copies the frame into the buffer over
      a zero tail and writes the page once — never reading it first.
      One small [file_lock] serialises the {!Paged_file} calls; it is
      held only for the read or write itself, never across
      decode/encode.
    - {b One write-back path}: a dirty eviction victim is written back
      inline, by the domain whose [put] or fault pushed its stripe over
      the cap; [sync] writes back every dirty cached node. A victim
      whose write-back raises goes back into its slot, still dirty, so
      a failed write is retried by the next eviction or [sync] and never
      drops an update.
    - {b Disk layout}: disk pages 0 and 1 are {e two header slots},
      ping-ponged by a generation counter (generation [g] commits to slot
      [g land 1]); each holds magic, geometry, allocator state, free-list
      head, client metadata, the generation and a whole-page FNV-1a
      checksum. Tree pointer [p] lives on disk page [p + 2], encoded by
      {!Page_codec} (which checksums every node body). The free list is
      threaded through the free pages themselves (a checksummed
      [chain_magic, generation, next] entry), so it survives reopen at
      zero space cost; the chain is rewritten on [sync] only when the
      free list changed since the last sync (a dirty flag set by every
      push/pop).
    - {b One durability path}: every store has a log device. [commit]
      group-commits the pages changed since the last seal (and the
      client's logical records) through {!Wal} with one log fsync, safe
      from any number of domains; [sync] is the {e checkpoint} that
      folds the log into the data file and truncates it.
    - {b Crash-atomic checkpoint}: [sync] writes data pages and the
      (possibly changed) free chain, stages the generation-[g+1] header
      into the {e alternate} slot, and only then issues the commit
      [fsync] — so
      under the crash model of {!Paged_file.create_shadow} (writes not
      covered by an fsync are lost) that single fsync atomically moves
      the durable state from generation [g] to [g+1]; a crash anywhere
      before it recovers exactly generation [g], whose header slot was
      never touched. A second write of the same slot plus a second fsync
      follow as defence in depth for real devices that may persist the
      header out of order within the first fsync; a header slot torn
      mid-write fails its checksum and reopen falls back to the other
      slot. See doc/RECOVERY.md for the full argument and the model's
      assumptions.

    Concurrency protocol (who may touch what):

    - A [put] to a {e reachable} page happens only under that page's latch
      (the tree's discipline); a put to a private page (fresh [reserve])
      races with nothing.
    - A cache miss faults under the page's {e stripe lock} and installs
      with compare-and-set; losing the race means a concurrent [put]
      installed a {e newer} version, which the reader adopts.
    - Eviction holds the stripe lock and takes page latches with
      [try_lock] only — it never blocks on a latch (and so never
      deadlocks against writers, who may block on a stripe lock while
      holding a latch); latched pages are simply skipped this sweep. A
      victim is withdrawn from the cache {e first} and only then written
      back, still under the stripe lock: faulters for that page serialise
      on the same stripe, so no reader can observe the pre-write-back
      disk contents. Winning the withdrawal CAS makes the entry, and the
      dirty flag inside it, the evictor's alone; a concurrent [put] to a
      private (just-[reserve]d) page installs a fresh entry with its own
      flag. A failed write-back restores the withdrawn entry with a CAS
      from [None]; losing that CAS means a newer [put] owns the slot.
    - [release] runs under the stripe lock, so it can never interleave
      with a fault, an eviction write-back or [sync] on the same page;
      it clears the slot's [on_disk] flag, so a [get] on a recycled page
      raises [Freed_page] until the first [put] lands — the same contract
      as the in-memory {!Store}.

    Lock order (acyclic; see doc/CONCURRENCY.md): latch -> stripe ->
    file. *)

exception Corrupt of string

exception
  Shard_mismatch of {
    expected_index : int;
    expected_count : int;
    found_index : int;
    found_count : int;
  }

let magic = 0x53_47_56_44 (* "SGVD" *)
let version = 5
let legacy_version = 4 (* no next-LSN field; read, never written *)

(* Header-page layout (both slots): fixed fields, then the checksum, then
   the client metadata blob. The checksum is FNV-1a-32 over the whole
   page with its own field zeroed, so it covers the metadata too.
   Version 3 appended the shard identity (index at 88, count at 96)
   after the checksum field, pushing the metadata blob to 104; version 4
   appended the WAL incarnation at 104 (the phantom-tail floor: recovery
   resumes the log with an incarnation strictly above every one the
   crashed pass could have stamped, even when the pass left no valid
   records to observe it from), pushing the metadata blob to 112;
   version 5 appended the log's next LSN at 112 (recovery resumes the
   LSN sequence from it when the pass after the checkpoint is empty, so
   LSNs never restart), pushing the metadata blob to 120. Version 4
   headers still open, with an LSN floor of 0. *)
let header_cksum_off = 80
let header_shard_index_off = 88
let header_shard_count_off = 96
let header_wal_inc_off = 104
let header_wal_lsn_off = 112
let header_fixed = 120 (* bytes of header before the metadata blob *)

(* Where a header of [version] keeps its metadata blob. *)
let header_fixed_of v = if v = legacy_version then header_wal_lsn_off else header_fixed
let header_slots = 2 (* disk pages 0 and 1; tree ptr [p] -> disk page [p + 2] *)

(* Free-chain entry, written at a free page's disk offset: 8-byte magic,
   the generation that wrote it, the next free pointer (-1 ends the
   chain), and a checksum over those 24 bytes. *)
let chain_magic = 0x53_47_56_43 (* "SGVC" *)
let chain_cksum_off = 24

let default_page_size = Page_codec.page_size_for ~key_bytes:8 ~order:16
let default_cache_pages = 4096
let default_stripes = 8

(* Fault-injection sites (see doc/RECOVERY.md for the catalog). Shared by
   every [Make] instantiation — the registry is keyed by name. *)
let fp_fault = Failpoint.site "paged_store.fault"
let fp_evict = Failpoint.site "paged_store.evict"
let fp_sync_data = Failpoint.site "paged_store.sync.data"
let fp_sync_chain = Failpoint.site "paged_store.sync.chain"
let fp_sync_header = Failpoint.site "paged_store.sync.header"
let fp_sync_commit = Failpoint.site "paged_store.sync.commit"

(* Lock-free monotonic max on an atomic gauge. *)
let rec update_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then update_max a v

module Make (K : Key.S) = struct
  module Codec = Page_codec.Make (K)

  type key = K.t

  (** One cached version of a page. The dirty flag lives {e in the entry},
      not the slot: it describes exactly this version's relation to the
      disk, so an evictor that wins the withdrawal CAS on an entry owns
      that entry's flag outright. A slot-level dirty bit has an unfixable
      steal race: the evictor's exchange can land between a concurrent
      [put] setting the bit and swapping its node in, silently
      declassifying the {e newer} version to clean — which a later sweep
      then drops without write-back. *)
  type entry = {
    node : K.t Node.t;
    e_dirty : bool Atomic.t;  (** this version newer than disk *)
  }

  type slot = {
    cached : entry option Atomic.t;  (** decoded node, if resident *)
    latch : Mutex.t;  (** the page latch of the §2.2 model *)
    referenced : bool Atomic.t;  (** clock second-chance bit *)
    freed : bool Atomic.t;  (** released, awaiting reallocation *)
    on_disk : bool Atomic.t;  (** the page has ever been written to disk *)
  }

  (** Group-commit state of a store. Batches are
      numbered: [sealed] counts batches whose dirty-page set has been
      taken by a leader, [durable] those whose log fsync returned. A
      commit request targets batch [sealed + 1] — the next one to seal,
      which by construction covers every page the caller dirtied — and
      returns once [durable] reaches it. Whoever finds no leader running
      becomes the leader and seals at once, without waiting for company;
      requests that arrive during its fsync join the next group
      (leader/follower handoff). The pages changed
      since the last seal are kept per stripe ([stripe.dirty]), so a
      write notes its page without taking [w_mu]. *)
  type wal_state = {
    log : Wal.t;
    w_mu : Mutex.t;  (** guards every mutable field below *)
    w_cond : Condition.t;  (** broadcast when a batch becomes durable (or a leader fails) *)
    mutable w_meta_dirty : bool;  (** metadata changed since the last seal *)
    mutable w_logical : Bytes.t list;
        (** logical records queued since the last seal, newest first *)
    mutable sealed : int;
    mutable durable : int;
    mutable leader : bool;  (** a leader is currently flushing a batch *)
    mutable unsealed_reqs : int;  (** commit requests awaiting the next seal *)
    mutable commit_reqs : int;
    mutable commit_groups : int;
    mutable max_group : int;
  }

  type stripe = {
    s_lock : Mutex.t;  (** serialises fault/evict/release/write-back for this stripe's pages *)
    io_buf : Bytes.t;  (** one page: the stripe's read/write buffer (under [s_lock]) *)
    resident : int Atomic.t;  (** cached nodes in this stripe *)
    mutable hand : int;  (** clock position within this stripe's page sequence *)
    mutable faults : int;  (** disk reads (under [s_lock]) *)
    mutable stall_s : float;  (** time faulters waited for [s_lock] *)
    mutable inline_wb : int;  (** eviction write-backs *)
    dirty_mu : Mutex.t;  (** guards [dirty]; taken last (the seal holds [w_mu] first) *)
    mutable dirty : (int, unit) Hashtbl.t;
        (** this stripe's pages changed since the last sealed commit batch *)
    kept : (int, Bytes.t) Hashtbl.t;
        (** codec frames eviction wrote back for pages in [dirty], so the
            seal logs them without reading the page back. A kept frame
            always equals its page on disk: it goes when the page is
            sealed, written again, written by a checkpoint, shipped or
            released. Under [s_lock]. *)
  }

  type t = {
    shard : int * int;
        (** (index, count) partition identity, recorded in every header
            this store writes and validated on reopen — (0, 1) for an
            unsharded store *)
    slots : slot Slot_table.t;
    free_len : int Atomic.t;  (** length of the free list (header bookkeeping) *)
    free_dirty : bool Atomic.t;  (** free list changed since last chain write *)
    generation : int Atomic.t;  (** last generation committed by [sync] *)
    meta : Bytes.t option Atomic.t;
    stripes : stripe array;  (** length is a power of two *)
    stripe_mask : int;
    stripe_cap : int;  (** max resident decoded nodes per stripe *)
    file_lock : Mutex.t;  (** guards [file], [zero] and the page counters *)
    file : Paged_file.t;
    page_size : int;
    zero : Bytes.t;  (** scratch page (under [file_lock]) *)
    mutable page_reads : int;  (** data-page reads (under [file_lock]) *)
    mutable page_writes : int;  (** data-page writes (under [file_lock]) *)
    wal : wal_state;  (** the log and its group-commit state *)
    mutable replayed : Bytes.t list;
        (** the current pass's promoted logical records, newest first:
            replayed at open, or shipped ({!apply_replicated}) *)
    mutable replayed_gen : int;  (** the shipped generation [replayed] belongs to *)
    mutable checkpoint_hook : unit -> unit;  (** run first by every [sync] *)
    (* gauges *)
    faulting : int Atomic.t;  (** faults currently reading from storage *)
    max_faulting : int Atomic.t;
  }

  let slot t ptr = Slot_table.get t.slots ptr
  let slot_opt t ptr = Slot_table.find t.slots ptr

  let stripe_index t ptr = ptr land t.stripe_mask

  let with_stripe (st : stripe) f =
    Mutex.lock st.s_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock st.s_lock) f

  let with_file t f =
    Mutex.lock t.file_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.file_lock) f

  (* ---------- IO layer ---------- *)

  (* Append zero pages until disk page [dpage] exists, so a write-back
     never violates Paged_file's no-hole rule. Under [file_lock]. *)
  let ensure_materialized_flocked t dpage =
    if Paged_file.pages t.file <= dpage then begin
      Bytes.fill t.zero 0 t.page_size '\000';
      while Paged_file.pages t.file <= dpage do
        ignore (Paged_file.append t.file t.zero)
      done
    end

  (* Write node [n] to [ptr]'s disk page through [st.io_buf]. Caller
     holds [ptr]'s stripe lock [st]; the encode and the copy into the
     buffer happen outside [file_lock], so concurrent write-backs on
     other stripes only serialise for the write itself. The page is
     overwritten whole — the frame, then a zero tail — so nothing on disk
     needs reading first. Returns the frame written. *)
  let write_node_striped t (st : stripe) ptr n =
    let b = Codec.to_bytes n in
    let len = Bytes.length b in
    if len > t.page_size then
      failwith
        (Printf.sprintf "Paged_store: node needs %d bytes, page is %d" len
           t.page_size);
    Bytes.blit b 0 st.io_buf 0 len;
    Bytes.fill st.io_buf len (t.page_size - len) '\000';
    let dpage = ptr + header_slots in
    with_file t (fun () ->
        ensure_materialized_flocked t dpage;
        Paged_file.write t.file dpage st.io_buf;
        t.page_writes <- t.page_writes + 1);
    Atomic.set (slot t ptr).on_disk true;
    b

  (* Read [ptr]'s disk page into [st.io_buf]. Caller holds [ptr]'s stripe
     lock [st]; only the read itself runs under [file_lock]. *)
  let read_page_striped t (st : stripe) ptr =
    with_file t (fun () ->
        Paged_file.read_into t.file (ptr + header_slots) st.io_buf;
        t.page_reads <- t.page_reads + 1)

  (* Read and decode [ptr]'s disk page; the decode copies everything out
     of [st.io_buf], so the buffer is free again on return. *)
  let read_node_striped t st ptr =
    read_page_striped t st ptr;
    try Codec.of_bytes st.io_buf
    with Page_codec.Corrupt msg ->
      raise (Corrupt (Printf.sprintf "page %d: %s" ptr msg))

  (* ---------- header slots and the free chain ---------- *)

  (* Build the header page for generation [gen]: fixed fields, a
     whole-page checksum (computed with its own field zeroed), then the
     metadata blob. *)
  let encode_header t ~gen =
    let free = Slot_table.free_ids t.slots in
    let page = Bytes.make t.page_size '\000' in
    let seti off v = Bytes.set_int64_le page off (Int64.of_int v) in
    seti 0 magic;
    seti 8 version;
    seti 16 t.page_size;
    seti 24 (Slot_table.frontier t.slots);
    seti 32 (match free with [] -> -1 | p :: _ -> p);
    seti 40 (Atomic.get t.free_len);
    seti 48 (Slot_table.allocated t.slots);
    seti 56 (Slot_table.freed t.slots);
    seti 64 gen;
    let shard_index, shard_count = t.shard in
    seti header_shard_index_off shard_index;
    seti header_shard_count_off shard_count;
    (* Persist the log's incarnation and next LSN so a recovery whose
       pass left no valid records (checkpoint, then crash or close before
       any append survives) still resumes above the crashed pass's stamp
       and continues the LSN sequence. *)
    seti header_wal_inc_off (Wal.incarnation t.wal.log);
    seti header_wal_lsn_off (Wal.next_lsn t.wal.log);
    let meta = match Atomic.get t.meta with Some b -> b | None -> Bytes.empty in
    if Bytes.length meta > t.page_size - header_fixed then
      failwith "Paged_store: metadata blob does not fit in the header page";
    seti 72 (Bytes.length meta);
    Bytes.blit meta 0 page header_fixed (Bytes.length meta);
    Bytes.set_int32_le page header_cksum_off
      (Int32.of_int (Repro_util.Checksum.fnv32 page ~pos:0 ~len:t.page_size));
    page

  (* Write generation [gen]'s header into its slot ([gen land 1]): the
     {e other} slot — the one holding the last committed generation — is
     never touched, so a crash or tear here cannot lose the old state. *)
  let write_header_flocked t ~gen =
    Paged_file.write t.file (gen land 1) (encode_header t ~gen)

  (* Validate one header slot; [Some (gen, page)] if it parses clean. *)
  let read_header_slot pfile ~page_size slot =
    if slot >= Paged_file.pages pfile then None
    else
      let page = Paged_file.read pfile slot in
      let geti off = Int64.to_int (Bytes.get_int64_le page off) in
      let stored = Int32.to_int (Bytes.get_int32_le page header_cksum_off) land 0xFFFFFFFF in
      Bytes.set_int32_le page header_cksum_off 0l;
      let computed = Repro_util.Checksum.fnv32 page ~pos:0 ~len:page_size in
      Bytes.set_int32_le page header_cksum_off (Int32.of_int stored);
      if
        geti 0 = magic
        && (geti 8 = version || geti 8 = legacy_version)
        && geti 16 = page_size && stored = computed
      then Some (geti 64, page)
      else None

  (* The device cut at the page size its header records, with the
     newest valid header slot. Slot 0 sits at byte 0, so its prefix
     names the size; when slot 0 is torn, slot 1 sits at byte [p] for
     the one power of two [p] at which a whole slot validates. *)
  let header_view pfile =
    let unit = Page_codec.min_page_size in
    let bytes = Paged_file.pages pfile * Paged_file.page_size pfile in
    if bytes mod unit <> 0 then
      raise (Corrupt "file size is not a multiple of the minimum page size");
    let probe = Paged_file.retile pfile ~page_size:unit in
    (* the page size named by a header starting at probe page [i] *)
    let named i =
      let page = Paged_file.read probe i in
      let field off = Int64.to_int (Bytes.get_int64_le page off) in
      if field 0 = magic && (field 8 = version || field 8 = legacy_version)
      then Some (field 16)
      else None
    in
    let at_size ps =
      let view = Paged_file.retile pfile ~page_size:ps in
      match
        (read_header_slot view ~page_size:ps 0, read_header_slot view ~page_size:ps 1)
      with
      | Some (g0, h0), Some (g1, h1) ->
          Some (view, if g0 >= g1 then (g0, h0) else (g1, h1))
      | Some h, None | None, Some h -> Some (view, h)
      | None, None -> None
    in
    let fits ps = ps >= unit && ps land (ps - 1) = 0 && 2 * ps <= bytes in
    let rec from_slot1 ps =
      if not (fits ps) then None
      else
        match if named (ps / unit) = Some ps then at_size ps else None with
        | Some _ as found -> found
        | None -> from_slot1 (2 * ps)
    in
    let found =
      match named 0 with
      | Some ps when fits ps -> (
          match at_size ps with Some _ as found -> found | None -> from_slot1 unit)
      | _ -> from_slot1 unit
    in
    match found with
    | Some found -> found
    | None -> raise (Corrupt "no valid header slot")

  (* Thread the free list through the free pages themselves: each free
     page holds a checksummed [chain_magic, generation, next] entry (-1
     ends the chain). Written after the data flush. Called only when the
     free list changed since the last sync ([free_dirty]) — rewriting the
     whole chain on every sync made reopen-heavy workloads O(free list)
     per sync for nothing. *)
  let write_free_chain_flocked t ~gen =
    let rec go = function
      | [] -> ()
      | p :: rest ->
          ensure_materialized_flocked t (p + header_slots);
          Bytes.fill t.zero 0 t.page_size '\000';
          let seti off v = Bytes.set_int64_le t.zero off (Int64.of_int v) in
          seti 0 chain_magic;
          seti 8 gen;
          seti 16 (match rest with [] -> -1 | q :: _ -> q);
          Bytes.set_int32_le t.zero chain_cksum_off
            (Int32.of_int (Repro_util.Checksum.fnv32 t.zero ~pos:0 ~len:chain_cksum_off));
          Paged_file.write t.file (p + header_slots) t.zero;
          go rest
    in
    go (Slot_table.free_ids t.slots)

  (* Decode a free-chain entry; [Some next] if it parses clean. *)
  let read_chain_entry pfile dpage =
    if dpage < 0 || dpage >= Paged_file.pages pfile then None
    else
      let page = Paged_file.read pfile dpage in
      let stored = Int32.to_int (Bytes.get_int32_le page chain_cksum_off) land 0xFFFFFFFF in
      if
        Int64.to_int (Bytes.get_int64_le page 0) = chain_magic
        && stored = Repro_util.Checksum.fnv32 page ~pos:0 ~len:chain_cksum_off
      then Some (Int64.to_int (Bytes.get_int64_le page 16))
      else None

  (* ---------- eviction write-back ---------- *)

  (* Write back victim entry [e] of page [p], already withdrawn from slot
     [s]. Caller holds [p]'s stripe lock [st] and its latch. On failure
     the entry goes back into the slot, still dirty, before the error
     surfaces: faulters find it cached and the next eviction or [sync]
     retries the write. Losing that CAS means a newer [put] owns the
     slot, so this version is obsolete. The failpoint sits inside the
     recovery scope so an injected error takes the same path as a real
     one. A page the next seal will log keeps the frame just written. *)
  let write_back_victim t (st : stripe) p s e =
    let frame =
      try
        Failpoint.hit fp_evict;
        write_node_striped t st p e.node
      with ex ->
        if Atomic.compare_and_set s.cached None (Some e) then
          Atomic.incr st.resident;
        raise ex
    in
    Mutex.lock st.dirty_mu;
    let unsealed = Hashtbl.mem st.dirty p in
    Mutex.unlock st.dirty_mu;
    if unsealed then Hashtbl.replace st.kept p frame else Hashtbl.remove st.kept p;
    st.inline_wb <- st.inline_wb + 1

  (* How many page ids below [frontier] hash to stripe [si]. *)
  let stripe_page_count t si frontier =
    if frontier <= si then 0
    else 1 + ((frontier - 1 - si) / Array.length t.stripes)

  (* Clock sweep over this stripe's slice of the node cache: write back
     and drop unreferenced, unlatched nodes until the stripe's
     resident count is back under its cap. Latches are only try_locked —
     see the protocol note above. Caller holds [si]'s stripe lock. *)
  let maybe_evict_stripe t si (st : stripe) =
    let nstripes = Array.length t.stripes in
    let frontier = Slot_table.frontier t.slots in
    let count = stripe_page_count t si frontier in
    if count > 0 then begin
      let budget = ref (2 * count) in
      while Atomic.get st.resident > t.stripe_cap && !budget > 0 do
        decr budget;
        if st.hand >= count then st.hand <- 0;
        let p = si + (st.hand * nstripes) in
        st.hand <- st.hand + 1;
        match slot_opt t p with
        | None -> ()
        | Some s -> (
            if (not (Atomic.get s.freed)) && Atomic.get s.cached <> None then
              if Atomic.get s.referenced then Atomic.set s.referenced false
              else if Mutex.try_lock s.latch then
                (* [Fun.protect], not a bare unlock: the write-back below
                   can raise (a real IO error, an injected fault) and a
                   latch leaked here would wedge the tree forever. *)
                Fun.protect
                  ~finally:(fun () -> Mutex.unlock s.latch)
                  (fun () ->
                    (* Withdraw first, write back second: we hold the stripe
                       lock, so a faulter for this page cannot read the disk
                       until the write-back below has landed. The CAS is against the exact option value read —
                       physical equality distinguishes our snapshot from any
                       newer entry a concurrent [put] to a private page may
                       install. Winning the CAS makes the entry (and its dirty
                       flag) exclusively ours; losing it means a newer entry
                       took the slot, and we touched nothing of it. *)
                    match Atomic.get s.cached with
                    | Some e as snapshot when not (Atomic.get s.freed) ->
                        if Atomic.compare_and_set s.cached snapshot None then begin
                          Atomic.decr st.resident;
                          if Atomic.get e.e_dirty then write_back_victim t st p s e
                        end
                    | _ -> ()))
      done
    end

  let check_evict t si (st : stripe) =
    if Atomic.get st.resident > t.stripe_cap then
      with_stripe st (fun () -> maybe_evict_stripe t si st)

  (* ---------- construction ---------- *)

  let make ~shard ~page_size ~cache_pages ~stripes ~wal pfile =
    (let idx, count = shard in
     if count < 1 || idx < 0 || idx >= count then
       invalid_arg "Paged_store: shard index out of range");
    if cache_pages < 1 then invalid_arg "Paged_store: cache_pages must be >= 1";
    (* Stripe count: a power of two, never more than the cache pages (so
       every stripe caches at least one node). *)
    let nstripes =
      let want = max 1 (min (min stripes cache_pages) 1024) in
      let rec pow2 n = if 2 * n <= want then pow2 (2 * n) else n in
      pow2 1
    in
    let free_len = Atomic.make 0 and free_dirty = Atomic.make false in
    {
      shard;
      slots =
        Slot_table.create ~name:"Paged_store"
          ~on_free_list:(fun d ->
            ignore (Atomic.fetch_and_add free_len d);
            Atomic.set free_dirty true)
          (fun () ->
            {
              cached = Atomic.make None;
              latch = Mutex.create ();
              referenced = Atomic.make false;
              freed = Atomic.make false;
              on_disk = Atomic.make false;
            });
      free_len;
      free_dirty;
      generation = Atomic.make 0;
      meta = Atomic.make None;
      stripes =
        Array.init nstripes (fun _ ->
            {
              s_lock = Mutex.create ();
              io_buf = Bytes.create page_size;
              resident = Atomic.make 0;
              hand = 0;
              faults = 0;
              stall_s = 0.0;
              inline_wb = 0;
              dirty_mu = Mutex.create ();
              dirty = Hashtbl.create 16;
              kept = Hashtbl.create 16;
            });
      stripe_mask = nstripes - 1;
      stripe_cap = max 1 (cache_pages / nstripes);
      file_lock = Mutex.create ();
      file = pfile;
      page_size;
      zero = Bytes.create page_size;
      page_reads = 0;
      page_writes = 0;
      wal;
      replayed = [];
      replayed_gen = -1;
      checkpoint_hook = ignore;
      faulting = Atomic.make 0;
      max_faulting = Atomic.make 0;
    }

  let mk_wal_state log =
    {
      log;
      w_mu = Mutex.create ();
      w_cond = Condition.create ();
      w_meta_dirty = false;
      w_logical = [];
      sealed = 0;
      durable = 0;
      leader = false;
      unsealed_reqs = 0;
      commit_reqs = 0;
      commit_groups = 0;
      max_group = 0;
    }

  (* Build a fresh store over an already-created (empty) paged file and
     an empty log device sized [Wal.log_page_size] — the crash harness
     hands shadow files in here. Both header slots are materialized and
     generation 0's header written into slot 0, so the file is
     reopenable from its first sync on. *)
  let create_on ?(shard = (0, 1)) ?(cache_pages = default_cache_pages)
      ?(stripes = default_stripes) ~wal pfile =
    let page_size = Paged_file.page_size pfile in
    if page_size < Page_codec.min_page_size || page_size land (page_size - 1) <> 0
    then
      invalid_arg
        (Printf.sprintf
           "Paged_store: page size %d is not a power of two of at least %d"
           page_size Page_codec.min_page_size);
    let wal = mk_wal_state (Wal.create ~data_page_size:page_size wal) in
    let t = make ~shard ~page_size ~cache_pages ~stripes ~wal pfile in
    with_file t (fun () ->
        ensure_materialized_flocked t (header_slots - 1);
        write_header_flocked t ~gen:0);
    t

  let create_memory ?shard ?(page_size = default_page_size)
      ?(cache_pages = default_cache_pages) ?(stripes = default_stripes) () =
    create_on ?shard ~cache_pages ~stripes
      ~wal:
        (Paged_file.create_memory
           ~page_size:(Wal.log_page_size ~data_page_size:page_size)
           ())
      (Paged_file.create_memory ~page_size ())

  let create_file ?shard ?(page_size = default_page_size)
      ?(cache_pages = default_cache_pages) ?(stripes = default_stripes)
      ?wal_path path =
    create_on ?shard ~cache_pages ~stripes
      ~wal:
        (Paged_file.create_file
           ~page_size:(Wal.log_page_size ~data_page_size:page_size)
           (Option.value wal_path ~default:(path ^ ".wal")))
      (Paged_file.create_file ~page_size path)

  let create () = create_memory ()

  (* ---------- Page_store.S operations ---------- *)

  (* Record that [ptr] changed since the last sealed commit batch, so
     the next group commit logs its image. Orthogonal to the entry-level
     [e_dirty] flag, which tracks newer-than-the-data-file and keeps
     driving advisory write-back and checkpoints. *)
  let note_dirty (st : stripe) ptr =
    Mutex.lock st.dirty_mu;
    Hashtbl.replace st.dirty ptr ();
    Mutex.unlock st.dirty_mu

  (* Swap every stripe's dirty set out (the seal), returning the pages
     they held; [put_back_dirty] re-notes them after a failed batch. *)
  let take_dirty t =
    Array.fold_left
      (fun acc (st : stripe) ->
        Mutex.lock st.dirty_mu;
        let d = st.dirty in
        if Hashtbl.length d > 0 then st.dirty <- Hashtbl.create 16;
        Mutex.unlock st.dirty_mu;
        Hashtbl.fold (fun p () acc -> p :: acc) d acc)
      [] t.stripes

  let put_back_dirty t ptrs =
    List.iter (fun p -> note_dirty t.stripes.(stripe_index t p) p) ptrs

  let any_dirty t =
    Array.exists
      (fun (st : stripe) ->
        Mutex.lock st.dirty_mu;
        let d = Hashtbl.length st.dirty > 0 in
        Mutex.unlock st.dirty_mu;
        d)
      t.stripes

  let install t ptr s n =
    (* Only dirty the cache line when the bit is actually clear: every
       cache hit setting [referenced] unconditionally turns the hot-path
       read into a cross-domain store on shared lines (the root's slot is
       touched by literally every operation). *)
    if not (Atomic.get s.referenced) then Atomic.set s.referenced true;
    let si = stripe_index t ptr in
    let st = t.stripes.(si) in
    (match Atomic.exchange s.cached (Some { node = n; e_dirty = Atomic.make true })
     with
    | Some _ -> ()
    | None -> Atomic.incr st.resident);
    (* Publish first, note after. The order is load-bearing for group
       commit: a leader that seals the dirty set between a note and its
       publish would snapshot the {e stale} image (or nothing at all for
       a fresh page) while the swap removed [ptr] from the live set —
       the caller's own commit then targets a batch that no longer
       covers [ptr], acking durability the log does not hold. With the
       note last, any seal that consumed an {e earlier} note of [ptr]
       already sees the new image (the exchange above precedes it), and
       this note lands in the live set before the caller can request a
       commit, so the next-sealed batch covers it. [alloc] sets
       [freed <- false] before calling here for the same reason. *)
    note_dirty st ptr;
    check_evict t si st

  let alloc t node =
    let p = Slot_table.alloc t.slots in
    let s = slot t p in
    Atomic.set s.freed false;
    install t p s node;
    p

  let reserve t =
    let p = Slot_table.alloc t.slots in
    Atomic.set (slot t p).freed false;
    p

  let put t ptr node = install t ptr (slot t ptr) node

  (* Cache miss: fault the page in under its stripe lock. The
     compare-and-set install can lose only to a concurrent [put], whose
     version is newer — adopt it. [release] also runs under the stripe
     lock, so the freed / on_disk checks here are authoritative: a
     release ordered after this fault finds the installed node and
     withdraws it itself, exactly as it would withdraw one installed by
     [put]. Returning the node to a caller whose reference outlived the
     release is the same stale-read the in-memory {!Store} permits; epoch
     reclamation makes it safe. Caller holds the stripe lock. *)
  let fault_locked t ptr s si (st : stripe) =
    match Atomic.get s.cached with
    | Some e -> e.node
    | None -> (
        if Atomic.get s.freed || not (Atomic.get s.on_disk) then
          raise (Page_store.Freed_page ptr);
        Failpoint.hit fp_fault;
        st.faults <- st.faults + 1;
        let c = 1 + Atomic.fetch_and_add t.faulting 1 in
        update_max t.max_faulting c;
        let n =
          match read_node_striped t st ptr with
          | n ->
              Atomic.decr t.faulting;
              n
          | exception e ->
              Atomic.decr t.faulting;
              raise e
        in
        Atomic.set s.referenced true;
        (* Fresh from disk: the entry is born clean. *)
        let e = { node = n; e_dirty = Atomic.make false } in
        if Atomic.compare_and_set s.cached None (Some e) then begin
          Atomic.incr st.resident;
          maybe_evict_stripe t si st;
          n
        end
        else
          match Atomic.get s.cached with
          | Some e' -> e'.node
          | None -> n)

  (* Only a contended stripe lock reads the clock, so [stall_s] still
     counts every real wait while an uncontended fault pays for none. *)
  let fault t ptr s =
    let si = stripe_index t ptr in
    let st = t.stripes.(si) in
    if not (Mutex.try_lock st.s_lock) then begin
      let t0 = Repro_util.Clock.now () in
      Mutex.lock st.s_lock;
      st.stall_s <- st.stall_s +. (Repro_util.Clock.now () -. t0)
    end;
    match fault_locked t ptr s si st with
    | n ->
        Mutex.unlock st.s_lock;
        n
    | exception e ->
        Mutex.unlock st.s_lock;
        raise e

  let get t ptr =
    let s = slot t ptr in
    match Atomic.get s.cached with
    | Some e ->
        (* Second-chance bit: write only on transition. An unconditional
           [Atomic.set] here is a cross-domain cache-line ping on every
           hit — the root's slot alone would be dirtied by every single
           operation in the system. *)
        if not (Atomic.get s.referenced) then Atomic.set s.referenced true;
        e.node
    | None ->
        if Atomic.get s.freed then raise (Page_store.Freed_page ptr)
        else fault t ptr s

  let lock t ptr = Mutex.lock (slot t ptr).latch
  let unlock t ptr = Mutex.unlock (slot t ptr).latch
  let try_lock t ptr = Mutex.try_lock (slot t ptr).latch

  (* Under the stripe lock: a release must never interleave with an
     eviction write-back, a fault or [sync] touching the same page —
     otherwise the page can reach the free list (and be recycled by
     [reserve]/[put]) while an evictor is still mid-write, and the
     evictor's bookkeeping would clobber the new tenant's. [on_disk] is
     cleared so a [get] on the recycled page raises [Freed_page] until
     its first [put], instead of resurrecting the pre-release contents
     from disk. *)
  let release t ptr =
    let s = slot t ptr in
    let st = t.stripes.(stripe_index t ptr) in
    with_stripe st (fun () ->
        Atomic.set s.freed true;
        Hashtbl.remove st.kept ptr;
        (match Atomic.exchange s.cached None with
        | Some _ -> Atomic.decr st.resident
        | None -> ());
        Atomic.set s.on_disk false;
        Slot_table.release t.slots ptr)

  let live_count t = Slot_table.live t.slots
  let total_allocated t = Slot_table.allocated t.slots
  let total_freed t = Slot_table.freed t.slots

  (* Quiescent only (like {!Store.iter}): uncached pages are read from
     disk without being installed, so iteration does not thrash the
     cache. *)
  let iter t f =
    for p = 0 to Slot_table.frontier t.slots - 1 do
      match slot_opt t p with
      | None -> ()
      | Some s ->
          if not (Atomic.get s.freed) then (
            match Atomic.get s.cached with
            | Some e -> f p e.node
            | None -> (
                let st = t.stripes.(stripe_index t p) in
                let n =
                  with_stripe st (fun () ->
                      match Atomic.get s.cached with
                      | Some e -> Some e.node
                      | None ->
                          if Atomic.get s.on_disk then
                            Some (read_node_striped t st p)
                          else None)
                in
                match n with Some n -> f p n | None -> ()))
    done

  let set_meta t bytes =
    let changed =
      match Atomic.get t.meta with
      | Some old -> not (Bytes.equal old bytes)
      | None -> true
    in
    Atomic.set t.meta (Some (Bytes.copy bytes));
    if changed then begin
      let w = t.wal in
      Mutex.lock w.w_mu;
      w.w_meta_dirty <- true;
      Mutex.unlock w.w_mu
    end

  let get_meta t = Atomic.get t.meta

  (* Queued under [w_mu], so records reach the log in the order their
     callers queued them, and one call's records all land in the batch
     the next seal takes. *)
  let log_logical t records =
    List.iter
      (fun r ->
        if Bytes.length r > t.page_size then
          invalid_arg "Paged_store.log_logical: record larger than a page")
      records;
    let w = t.wal in
    Mutex.lock w.w_mu;
    w.w_logical <- List.rev_append records w.w_logical;
    Mutex.unlock w.w_mu

  let replayed_logical t = List.rev t.replayed
  let on_checkpoint t f = t.checkpoint_hook <- f

  (* ---------- group commit ---------- *)

  (* Snapshot the bytes a committed page image must hold: the cached
     node if resident, else the on-disk page (trimmed to its codec
     frame), which is the frame eviction kept if it kept one. [None] for
     pages that were freed (or never materialised) since they were
     dirtied. Under the page's stripe lock; the encode of a node
     snapshot happens outside it. *)
  let commit_image t ptr =
    match slot_opt t ptr with
    | None -> None
    | Some s ->
        let st = t.stripes.(stripe_index t ptr) in
        with_stripe st (fun () ->
            let kept = Hashtbl.find_opt st.kept ptr in
            Hashtbl.remove st.kept ptr;
            if Atomic.get s.freed then None
            else
              match (Atomic.get s.cached, kept) with
              | Some e, _ -> Some (`Node e.node)
              | None, Some frame -> Some (`Raw frame)
              | None, None ->
                  if Atomic.get s.on_disk then begin
                    read_page_striped t st ptr;
                    (* past its codec frame the page is the zero tail
                       {!write_node_striped} left, which {!Wal.Apply}
                       pads back *)
                    let len =
                      Option.value (Page_codec.frame_length st.io_buf)
                        ~default:t.page_size
                    in
                    Some (`Raw (Bytes.sub st.io_buf 0 len))
                  end
                  else None)

  (* The logged image is the node's codec frame alone — {!Wal.append}
     blits it into its log scratch, so no page-sized buffer is allocated
     per record. *)
  let encode_image t = function
    | `Raw bytes -> bytes
    | `Node n ->
        let b = Codec.to_bytes n in
        if Bytes.length b > t.page_size then
          failwith
            (Printf.sprintf "Paged_store: node needs %d bytes, page is %d"
               (Bytes.length b) t.page_size);
        b

  (* Lead batch [target]: seal the dirty set by swapping it out, then —
     outside [w_mu] — snapshot and log every sealed page, append the
     COMMIT boundary and fsync once for the whole group. On failure the sealed set is merged back into
     the live one and [sealed] rolled back, so a retried commit re-seals
     the same pages and an injected IO error never drops an update.
     Enters holding [w_mu]; returns with it released. *)
  let lead_batch t (w : wal_state) ~target =
    w.leader <- true;
    let dirty = take_dirty t in
    let meta_dirty = w.w_meta_dirty in
    let logical = w.w_logical in
    let group = w.unsealed_reqs in
    w.w_meta_dirty <- false;
    w.w_logical <- [];
    w.unsealed_reqs <- 0;
    w.sealed <- target;
    Mutex.unlock w.w_mu;
    match
      let ptrs = List.sort compare dirty in
      let gen = Atomic.get t.generation in
      List.iter
        (fun p ->
          match commit_image t p with
          | None -> ()
          | Some src ->
              Wal.append w.log ~gen (Wal.Page { ptr = p; image = encode_image t src }))
        ptrs;
      List.iter (fun r -> Wal.append w.log ~gen (Wal.Logical r)) (List.rev logical);
      (if meta_dirty then
         match Atomic.get t.meta with
         | Some m -> Wal.append w.log ~gen (Wal.Meta m)
         | None -> ());
      Wal.append w.log ~gen Wal.Commit;
      Wal.fsync w.log
    with
    | () ->
        Mutex.lock w.w_mu;
        w.durable <- target;
        w.leader <- false;
        w.commit_groups <- w.commit_groups + 1;
        if group > w.max_group then w.max_group <- group;
        Condition.broadcast w.w_cond;
        Mutex.unlock w.w_mu
    | exception e ->
        (* Orphaned PAGE records (appended without their COMMIT) are
           harmless: replay only promotes staged images when it reaches a
           COMMIT, by which point a successful retry has re-logged every
           still-live sealed page with equal-or-newer content. *)
        Mutex.lock w.w_mu;
        put_back_dirty t dirty;
        w.w_meta_dirty <- w.w_meta_dirty || meta_dirty;
        (* the sealed records go back ahead of any queued since, so the
           retry logs them in their original order *)
        w.w_logical <- w.w_logical @ logical;
        w.sealed <- target - 1;
        w.leader <- false;
        Condition.broadcast w.w_cond;
        Mutex.unlock w.w_mu;
        raise e

  (* The checkpoint: a quiescent crash-atomic flush, in write-ahead
     order:

     0. a logged group commit of the current dirty set, so the state
        this checkpoint is about to make official has transited the log
        first (replication / PITR coverage)
     1. per stripe: every dirty cached node, written straight to the
        file                                        [paged_store.sync.data]
     2. the free chain, if the free list changed    [paged_store.sync.chain]
     3. generation [g+1]'s header into slot [(g+1) land 1] — the slot
        holding committed generation [g] is not touched
                                                    [paged_store.sync.header]
     4. fsync: the {e commit point}. Under the crash model (un-fsynced
        writes are lost) this single fsync atomically flips the durable
        state from generation [g] to [g+1]; a crash any earlier leaves
        slot [g land 1] — and every page generation [g] describes —
        exactly as the previous sync committed them.
     5. the same header slot again, plus a second fsync: defence in depth
        for real devices that may persist the header out of order inside
        fsync 4                                     [paged_store.sync.commit]
     6. only now does the in-memory generation advance.

     Error resilience: every mutation of book-keeping happens {e after}
     the write it describes succeeds ([e_dirty] flags, [free_dirty], the
     generation), so a sync aborted by an IO error can simply be
     retried. *)
  let rec sync t =
    (* The client's fold first: what its logical records say must be in
       pages before this checkpoint ends their pass. *)
    t.checkpoint_hook ();
    (* Route whatever is dirty through a logged group commit {e before}
       the checkpoint makes it official. Without this, the
       changes accumulated since the last commit would reach durability
       through the data-file flush alone and never transit the log —
       invisible to a replication follower or a point-in-time replay.
       With it, the log's retained history covers every committed state
       transition, which is the property WAL shipping rests on (see
       doc/RECOVERY.md). A commit with nothing unsealed logs nothing,
       so a quiescent checkpoint appends no spurious records. *)
    let w = t.wal in
    commit t;
    let nstripes = Array.length t.stripes in
    Failpoint.hit fp_sync_data;
    Array.iteri
      (fun si (st : stripe) ->
        with_stripe st (fun () ->
            (* the checkpoint ends the log's pass, so no seal needs
               these frames *)
            Hashtbl.reset st.kept;
            let frontier = Slot_table.frontier t.slots in
            let p = ref si in
            while !p < frontier do
              (match slot_opt t !p with
              | None -> ()
              | Some s ->
                  if not (Atomic.get s.freed) then (
                    match Atomic.get s.cached with
                    | Some e when Atomic.get e.e_dirty ->
                        (* Clear before writing: should a non-quiescent put
                           slip in, its fresh entry (and dirty flag)
                           supersedes this one and the page is merely
                           written twice, never left stale-clean. Restore
                           on failure — this entry is still newer than the
                           disk and a retried sync must re-write it. *)
                        Atomic.set e.e_dirty false;
                        (try ignore (write_node_striped t st !p e.node)
                         with ex ->
                           Atomic.set e.e_dirty true;
                           raise ex)
                    | _ -> ()));
              p := !p + nstripes
            done))
      t.stripes;
    with_file t (fun () ->
        let gen = Atomic.get t.generation + 1 in
        if Atomic.get t.free_dirty then begin
          Failpoint.hit fp_sync_chain;
          write_free_chain_flocked t ~gen;
          Atomic.set t.free_dirty false
        end;
        (* A CHECKPOINT marker stamped with the {e outgoing}
           generation, before the header flip. A crash before the commit
           fsync below recovers generation [gen - 1], and replay still
           finds every gen-[gen - 1] batch in the log (the data writes of
           phase 1 were volatile); a crash after it recovers [gen], whose
           replay ignores the stale-generation records wholesale. *)
        Wal.append w.log ~gen:(gen - 1) Wal.Checkpoint;
        Failpoint.hit fp_sync_header;
        write_header_flocked t ~gen;
        Paged_file.sync t.file;
        (* committed: a crash from here on recovers generation [gen] *)
        Failpoint.hit fp_sync_commit;
        write_header_flocked t ~gen;
        Paged_file.sync t.file;
        Atomic.set t.generation gen);
    (* Checkpoint complete: every logged batch is now also in the data
       file, so the log's contents are dead weight. Truncation is
       logical — the cursor rewinds to page 0 and the new generation
       invalidates whatever old-pass records it has not yet overwritten
       (replay stops at the first foreign-generation or LSN-discontinuous
       record). The dirty set accumulated since the last seal is already
       covered by the checkpoint too. Quiescent like the rest of [sync],
       so no commit races with this. *)
    Wal.truncate w.log;
    ignore (take_dirty t);
    Mutex.lock w.w_mu;
    w.w_meta_dirty <- false;
    w.w_logical <- [];
    t.replayed <- [];
    Mutex.unlock w.w_mu

  (* Group commit: block until every operation completed before this call
     is durable. Safe from any number of domains at once — unlike [sync],
     which demands quiescence.

     An empty commit is free: with no dirty page, logical record or
     metadata change left unsealed, every page a completed operation
     wrote (or read another's write from) sits in a batch already
     sealed. It then waits for the batch in flight, if any, and seals
     nothing new — no record, no fsync, and no place in the next group.
     Should that batch fail, its leader puts its pages back, so the
     caller falls through to the full path and commits them itself.
     The test reads the dirty tables, never a counter, so a put-back
     page can never be skipped. *)
  and commit t =
    let w = t.wal in
    Mutex.lock w.w_mu;
    w.commit_reqs <- w.commit_reqs + 1;
    let empty =
      (not w.w_meta_dirty) && w.w_logical = [] && not (any_dirty t)
    in
    let in_flight = w.sealed in
    let rec await_sealed () =
      if w.durable >= in_flight then true
      else if w.sealed < in_flight then false (* that batch failed *)
      else begin
        Condition.wait w.w_cond w.w_mu;
        await_sealed ()
      end
    in
    if empty && await_sealed () then Mutex.unlock w.w_mu
    else commit_unsealed t w

  (* The full path: join (or lead) the next batch to seal. Entered
     holding [w_mu]; returns with it released. *)
  and commit_unsealed t w =
    w.unsealed_reqs <- w.unsealed_reqs + 1;
    (* The next batch to seal necessarily covers this caller's pages:
       they are in the live dirty set right now. If a running leader
       seals them into {e its} batch first, waiting for [target] only
       over-waits — never under-waits. *)
    let target = w.sealed + 1 in
    let rec await () =
      if w.durable >= target then Mutex.unlock w.w_mu
      else if (not w.leader) && w.sealed < target then lead_batch t w ~target
      else begin
        Condition.wait w.w_cond w.w_mu;
        await ()
      end
    in
    await ()

  let close t =
    sync t;
    Wal.close t.wal.log;
    Paged_file.close t.file

  (* Open a store from an already-open paged file (the crash harness
     hands in a {!Paged_file.crash_image}). Recovery policy:

     - {b Header}: read both slots, keep whichever checksum-valid one
       carries the higher generation. One torn / stale / unwritten slot
       is expected after a crash; only both slots invalid is [Corrupt].
     - {b Free chain}: walk it defensively — validate {e every} entry
       (magic, checksum, pointer range, length, acyclicity) before
       committing anything to the allocator. Any damage degrades to
       {e leaking} the free pages (they are never handed out again)
       rather than raising: a broken chain after a crash must not make
       the tree — which is intact — unopenable, and the one unsafe
       failure (recycling a page the tree still references) is exactly
       what the validate-first walk rules out.
     - {b WAL replay}: scan the log for the header generation's pass ({!Wal.replay}) {e before} anything else
       touches allocator state. The replay result (a) extends the bump
       frontier over pages group-committed after the checkpoint, (b)
       supersedes the header's metadata blob with the newest committed
       one, (c) filters {e recycled} pages — freed at the checkpoint,
       reallocated and committed since — out of the rebuilt free list
       (the chain is walked on the {e pristine} pre-replay image, whose
       free pages still hold their chain entries), and (d) is installed
       as full physical page images before the store is returned. A
       chain entry clobbered by post-checkpoint reuse fails its checksum
       and degrades to the same leak policy as above.
     - {b Frees are not logged} — accepted leak-on-recovery policy: a
       page whose commit-acked free is newer than its last logged image
       (committed batch [N], freed batch [N+1]; or an orphaned PAGE
       record of a page freed between a failed flush and its retry) is
       resurrected by replay as an allocated, tree-unreachable page.
       Same degradation class as the damaged-chain leak: never a double
       hand-out, never wrong tree contents — the page is merely dead
       weight until the store is rebuilt. See doc/RECOVERY.md. *)
  let open_view ?expect_shard ?(cache_pages = default_cache_pages)
      ?(stripes = default_stripes) ~log pfile =
    if Paged_file.pages pfile = 0 then raise (Corrupt "empty file");
    let pfile, (gen, header) = header_view pfile in
    let page_size = Paged_file.page_size pfile in
    let log_file = log page_size in
    let geti off = Int64.to_int (Bytes.get_int64_le header off) in
    let legacy = geti 8 = legacy_version in
    (* Partition identity check before anything else touches the file:
       opening shard i-of-N as j-of-M would misroute every key the
       router hashes, silently — the typed error is the whole defence
       against accidental resharding. *)
    let found_index = geti header_shard_index_off in
    let found_count = geti header_shard_count_off in
    let shard =
      match expect_shard with
      | None -> (found_index, found_count)
      | Some (expected_index, expected_count) ->
          if expected_index <> found_index || expected_count <> found_count
          then
            raise
              (Shard_mismatch
                 { expected_index; expected_count; found_index; found_count });
          (expected_index, expected_count)
    in
    (* WAL recovery: redo-scan the log before allocator state settles,
       and reattach it with its cursor on the valid tail. The
       incarnation and LSN floors the header persisted cover a pass that
       left no valid records to take them from (a crash or a close right
       after a checkpoint, or a store last checkpointed before it had a
       log); replay's own values cover passes resumed since. [resume]
       takes the max of each. *)
    let rep = Wal.replay ~data_page_size:page_size ~gen log_file in
    let wal =
      mk_wal_state
        (Wal.resume
           ~incarnation:(geti header_wal_inc_off + 1)
           ~lsn:(if legacy then 0 else geti header_wal_lsn_off)
           ~gen
           ~data_page_size:page_size ~replay:rep log_file)
    in
    let t = make ~shard ~page_size ~cache_pages ~stripes ~wal pfile in
    Atomic.set t.generation gen;
    Slot_table.restore t.slots ~next:(geti 24) ~allocated:(geti 48)
      ~freed:(geti 56) ~free:[];
    let meta_off = header_fixed_of (geti 8) in
    let meta_len = geti 72 in
    if meta_len < 0 || meta_len > page_size - meta_off then
      raise (Corrupt "bad metadata length");
    if meta_len > 0 then
      Atomic.set t.meta (Some (Bytes.sub header meta_off meta_len));
    Option.iter (fun m -> Atomic.set t.meta (Some m)) rep.Wal.committed_meta;
    t.replayed <- List.rev rep.Wal.committed_logical;
    (* Pages group-committed past the checkpoint's bump frontier: extend
       it (and the allocated counter) so they are live again. *)
    Hashtbl.iter (fun p _ -> Slot_table.extend t.slots p) rep.Wal.committed;
    let frontier = Slot_table.frontier t.slots in
    for p = 0 to frontier - 1 do
      Atomic.set (slot t p).on_disk (p + header_slots < Paged_file.pages pfile)
    done;
    (* Rebuild the free list by walking the on-disk chain — collect and
       validate the whole chain first, commit to the allocator only if
       every link checks out. The walk reads the {e pristine} image:
       replayed page images are installed only afterwards, so a page
       that sat on the checkpoint free chain and was recycled by a
       committed batch still shows its chain entry here. *)
    let free_count = geti 40 in
    let head = geti 32 in
    let rec walk acc seen cur =
      if cur = -1 then if seen = free_count then Some (List.rev acc) else None
      else if seen >= free_count then None (* longer than advertised: cycle? *)
      else if cur < 0 || cur >= frontier then None
      else
        match read_chain_entry pfile (cur + header_slots) with
        | None -> None
        | Some next -> walk (cur :: acc) (seen + 1) next
    in
    let replayed p = Hashtbl.mem rep.Wal.committed p in
    (match walk [] 0 head with
    | Some free ->
        (* Recycled pages — on the checkpoint chain {e and} in the replay
           set — are live again: the committed image wins, drop them from
           the free list and restore them to the allocated count. *)
        let free = List.filter (fun p -> not (replayed p)) free in
        let kept = List.length free in
        Slot_table.restore t.slots ~next:frontier
          ~allocated:(Slot_table.allocated t.slots + free_count - kept)
          ~freed:(Slot_table.freed t.slots) ~free;
        List.iter
          (fun p ->
            let s = slot t p in
            Atomic.set s.freed true;
            (* Free pages hold chain links, not nodes: clearing [on_disk]
               keeps them unreadable after recycling, until their first
               [put] — the same contract a live store maintains. *)
            Atomic.set s.on_disk false)
          free;
        Atomic.set t.free_len kept;
        (* The in-memory list matches the on-disk chain unless replay
           filtered recycled pages out of it. *)
        Atomic.set t.free_dirty (kept <> free_count)
    | None ->
        (* Damaged chain: leak the free pages (safe — they are simply
           never reused) instead of refusing to open an intact tree. The
           next sync persists the (empty) list. *)
        Atomic.set t.free_len 0;
        Atomic.set t.free_dirty true);
    (* Install the replayed images — full physical pages, written
       straight to the file. *)
    with_file t (fun () ->
        Hashtbl.iter
          (fun p img ->
            ensure_materialized_flocked t (p + header_slots);
            Paged_file.write t.file (p + header_slots) img;
            let s = slot t p in
            Atomic.set s.freed false;
            Atomic.set s.on_disk true)
          rep.Wal.committed);
    t

  let open_from ?expect_shard ?cache_pages ?stripes ~wal pfile =
    open_view ?expect_shard ?cache_pages ?stripes
      ~log:(fun data_page_size ->
        Paged_file.retile ~page_size:(Wal.log_page_size ~data_page_size) wal)
      pfile

  (* The file is opened at the minimum page size and re-cut at the size
     its header records; the log is opened only once that size is
     known. *)
  let open_file ?expect_shard ?cache_pages ?stripes ?wal_path path =
    let pfile =
      Paged_file.open_file ~page_size:Page_codec.min_page_size ~writable:true path
    in
    open_view ?expect_shard ?cache_pages ?stripes
      ~log:(fun data_page_size ->
        (* A store last checkpointed before it had a log (written in the
           retired sync mode) has no log file: it is created empty, and
           the store opens from the header's checkpoint. *)
        let p = Option.value wal_path ~default:(path ^ ".wal") in
        let page_size = Wal.log_page_size ~data_page_size in
        if Sys.file_exists p then Paged_file.open_file ~page_size ~writable:true p
        else Paged_file.create_file ~page_size p)
      pfile

  (* ---------- introspection ---------- *)

  (* Read without [file_lock], racy by a few events like [io_stats]. *)
  let pool_stats t =
    let misses = t.page_reads and writebacks = t.page_writes in
    { Buffer_pool.hits = 0; misses; evictions = 0; writebacks }

  let cached_nodes t =
    Array.fold_left (fun acc (st : stripe) -> acc + Atomic.get st.resident) 0 t.stripes

  let page_size t = t.page_size
  let shard t = t.shard
  let stripe_count t = Array.length t.stripes
  let generation t = Atomic.get t.generation

  (* Per-stripe counters are read without the stripe locks: the snapshot
     is racy by a few events, which is fine for reporting. *)
  let io_stats t =
    let io = Stats.io_create () in
    Array.iter
      (fun (st : stripe) ->
        io.Stats.faults <- io.Stats.faults + st.faults;
        io.Stats.fault_stall_s <- io.Stats.fault_stall_s +. st.stall_s;
        io.Stats.inline_writebacks <- io.Stats.inline_writebacks + st.inline_wb)
      t.stripes;
    io.Stats.max_concurrent_faults <- Atomic.get t.max_faulting;
    let w = t.wal in
    io.Stats.commit_reqs <- w.commit_reqs;
    io.Stats.commit_groups <- w.commit_groups;
    io.Stats.max_commit_group <- w.max_group;
    io.Stats.wal_records <- Wal.appended w.log;
    io.Stats.wal_fsyncs <- Wal.fsyncs w.log;
    io.Stats.wal_bytes <- Wal.bytes_written w.log;
    io.Stats.wal_writes <- Wal.writes w.log;
    io

  let per_stripe_faults t = Array.map (fun (st : stripe) -> st.faults) t.stripes

  (* ---------- replication: primary side ---------- *)

  let wal_fetch t ~lsn ~max_pages = Wal.fetch_from t.wal.log ~lsn ~max_pages
  let wal_wait t ~lsn ~timeout = Wal.wait_durable t.wal.log ~lsn ~timeout
  let wal_durable_lsn t = Wal.durable_lsn t.wal.log

  (* ---------- replication: follower side ---------- *)

  (* Install one shipped commit batch's page images, exactly as recovery
     installs replayed images: straight through the file (never the
     dirty-tracking path — the follower's own log is not the primary's,
     and re-shipping them through it would fork the stream), dropping any cached copy so the next read
     faults the authoritative bytes back in. Single applier thread
     assumed (the replica's apply loop); readers on other threads see
     each page flip atomically from old image to new via the file write,
     and batch-level consistency is the caller's job (the replica swaps
     its tree view only after the whole batch lands). *)
  let apply_replicated ?(gen = 0) ?(logical = []) t ~images ~meta =
    (* a batch of a later generation starts a new pass: the records kept
       so far were folded into pages by the checkpoint that ended theirs *)
    if gen > t.replayed_gen then begin
      t.replayed <- [];
      t.replayed_gen <- gen
    end;
    t.replayed <- List.rev_append logical t.replayed;
    List.iter
      (fun (p, img) ->
        if p < 0 then invalid_arg "apply_replicated: negative ptr";
        if Bytes.length img <> t.page_size then
          invalid_arg "apply_replicated: image size mismatch";
        Slot_table.extend t.slots p;
        let s = slot t p in
        let st = t.stripes.(stripe_index t p) in
        with_stripe st (fun () ->
            Hashtbl.remove st.kept p;
            (match Atomic.exchange s.cached None with
            | Some _ -> Atomic.decr st.resident
            | None -> ());
            with_file t (fun () ->
                ensure_materialized_flocked t (p + header_slots);
                Paged_file.write t.file (p + header_slots) img);
            Atomic.set s.freed false;
            Atomic.set s.on_disk true))
      images;
    match meta with Some m -> Atomic.set t.meta (Some m) | None -> ()
end
