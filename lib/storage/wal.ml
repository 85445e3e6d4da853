(** Append-only write-ahead log of physical page images over a
    {!Paged_file}, with the record framing, replay scanner and fault
    points the paged store's group-commit path builds on — and, since
    the log is also the replication stream, the sealed-segment retention
    and fetch API the shipping layer consumes.

    {b Log device}: a {!Paged_file} whose page size is the data store's
    page size plus {!header_bytes}, so the largest record (a whole data
    page image) fits one log page. Use {!log_page_size} to size the
    device.

    {b Dense layout}: records are packed back to back — header plus
    [body_len] bytes, nothing else. A group (the records appended
    between two {!fsync}s, or before a {!truncate}) starts on a fresh
    log page; a record may cross a page boundary, and the unused tail of
    the group's last page is zero-filled. The group's pages wait in
    memory and go to the device as one run of whole pages, in one
    {!Paged_file.write_pages} call, at the {!fsync} that ends the group
    — or earlier, {!run_bytes} at a time, when a group outgrows that
    ({!truncate} seals the pages still waiting straight from memory). So
    a group is one run of whole log pages and a page an earlier fsync
    covered is never written again: a torn write can only damage the
    group being written, never a committed one. A PAGE record carries
    the node's ~500 B codec frame, so a commit of a handful of pages
    costs a page or two of log in one write call, not one log page per
    record.

    {b Checksum range}: {!Repro_util.Checksum.mx32} (the word-at-a-time
    checksum {!Page_codec} v4/v5 frames use) over the header plus the
    [body_len] bytes the record carries, with the record's checksum-kind
    byte set to 1. A tear inside header + body breaks the checksum. The
    kind byte sits inside the checksummed header, so a flipped kind
    fails the check too. Records with kind 0 are from logs written
    before the word-at-a-time checksum: their FNV-1a-32 checksum covers
    header + body or — for logs whose records each filled a log page —
    the whole page, and {!decode} accepts either range, so they still
    replay.

    {b Record format}:

    {v
    off 0   u32  magic        "SGWL"
    off 4   u8   kind         1 = PAGE, 2 = COMMIT, 3 = CHECKPOINT, 4 = META,
                              5 = LOGICAL
    off 5   u8   ck_kind      1 = mx32 over header + body; 0 = legacy FNV-1a
    off 8   u64  lsn          strictly increasing across the log's life
    off 16  u64  generation   store generation the record applies on top of
    off 24  u64  ptr          tree pointer (PAGE records; -1 otherwise)
    off 32  u32  body_len     bytes of body (≤ one data page)
    off 40  u32  checksum     per ck_kind, own field zeroed
    off 44  u32  incarnation  append-pass counter, bumped at every resume
    off 64  ...  body         page image (codec frame) / meta blob /
                              logical record
    v}

    The next record starts right after the body. A PAGE body shorter
    than one data page stands for that page with its tail zeroed:
    {!Apply} pads it back, so replay and followers see full data-page
    images.

    {b The scan rule}: at each offset, a record magic means a record;
    no magic means the group ended, so the scan continues at the next
    page boundary — and no magic {e at} a page boundary is the end of
    the written log. The page-per-record logs older versions wrote are
    the special case where every record is followed by zero padding, so
    one scanner ({!scan}) reads both layouts, and a log whose older tail
    is page-per-record simply continues with packed groups.

    {b Incarnation stamping}: every record additionally carries the
    log's {e incarnation} — a counter bumped each time the log is
    reattached after a crash ({!resume}). Within one generation's pass
    the incarnation is non-decreasing along the valid log; a record
    whose incarnation is {e lower} than its predecessor's is a stale
    leftover of the pass that crashed, sitting beyond the recovered
    tail, and replay stops there. Without the stamp such leftovers can
    {e chain}: the crashed pass's records beyond the torn page carry the
    same generation and exactly the LSNs a short resumed pass hands out,
    so a second crash could replay across the splice and promote a
    never-acknowledged batch (the phantom-tail bug; regression-tested in
    [test_crash]). The current incarnation is persisted in the store
    header at every checkpoint, so recovery can take the floor from the
    header even when the new pass is empty.

    {b Generation stamping, sealing and truncation}: every record
    carries the store generation current when it was appended. A
    checkpoint advances the generation and {e logically truncates} the
    log by rewinding the append cursor to page 0 — but first the pass is
    {e sealed} into a retained segment ({!truncate} copies its packed
    pages aside with an LSN → offset index, keeping the newest [retain]
    segments), so the LSN-contiguous history stays fetchable for
    replication catch-up and point-in-time recovery even after the
    device pages are overwritten by the next pass. On the device itself
    nothing is erased; records of the previous pass are invalidated by
    their (now old) generation stamp, and the next pass simply
    overwrites them, so the file never grows beyond the bytes of the
    busiest inter-checkpoint window.

    {b Replay} ({!replay}) scans from page 0 and applies the classic
    redo discipline: PAGE / META / LOGICAL records are {e staged}; a
    COMMIT record {e promotes} everything staged (later images of the
    same page win — last-writer-wins; logical records are kept, all of
    them, in append order); CHECKPOINT markers are skipped (a checkpoint that
    failed before its header flip leaves its marker mid-log, with
    committed batches legitimately continuing after it); the scan stops
    cleanly at the first record that is torn (bad magic / checksum),
    stamped with a foreign generation (a previous pass), breaks LSN
    continuity, or regresses the incarnation (a crashed pass's leftovers
    beyond the recovered tail). Staged-but-unpromoted records — an
    interrupted commit's tail — are discarded, and the valid tail ends
    at the last record that left nothing staged, so a resumed log
    overwrites them instead of promoting them with its own first COMMIT.
    The scan-one-record step is {!Apply}, which replication followers
    drive incrementally over the shipped stream.

    {b Shipping}: {!fsync} advances a {e durable watermark} (the highest
    LSN covered by a log fsync); {!fetch_from} serves the records of any
    LSN range at or below it, from the live pass or the retained
    segments, each re-padded to one log page — the stream a follower
    receives is one record per log page, whatever the device layout —
    and {!wait_durable} lets a subscriber long-poll the watermark so
    sealed commit batches stream out right after the fsync that made
    them durable. See doc/RECOVERY.md for the replication commit-point
    argument.

    Failpoint sites: [wal.append] (as each record is packed),
    [wal.commit] (before each log fsync), [wal.replay] (per record
    scanned during recovery). *)

exception Corrupt of string

let magic = 0x53_47_57_4C (* "SGWL" *)
let header_bytes = 64
let ck_kind_off = 5
let len_off = 32
let cksum_off = 40
let inc_off = 44

let kind_page = 1
let kind_commit = 2
let kind_checkpoint = 3
let kind_meta = 4
let kind_logical = 5

(* Checksum kinds (the byte at [ck_kind_off]). *)
let ck_fnv = 0
let ck_mx = 1

let fp_append = Failpoint.site "wal.append"
let fp_commit = Failpoint.site "wal.commit"
let fp_replay = Failpoint.site "wal.replay"

let log_page_size ~data_page_size = data_page_size + header_bytes

(* Seconds on the monotonic clock: a step of the wall clock neither
   stretches nor cuts a long-poll. Only differences are meaningful. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

type record =
  | Page of { ptr : int; image : Bytes.t }
      (** physical page image, at most one data page; a short one stands
          for the page with its tail zeroed *)
  | Meta of Bytes.t  (** client metadata blob (committed with its batch) *)
  | Logical of Bytes.t
      (** client redo record, at most one data page; promoted with its
          batch and handed back in append order *)
  | Commit  (** promotes every record staged since the previous commit *)
  | Checkpoint  (** pass boundary marker appended by a store checkpoint *)

(** One sealed pass of the log, copied aside at checkpoint truncation:
    the retention window these form is what replication catch-up and
    PITR replay read. Process-local — a crashed primary's retention dies
    with it; its {e durable} device pages are what recovery (and a
    promoting follower's final catch-up) read instead. *)
type segment = {
  seg_base_lsn : int;  (** LSN of the record at [seg_offsets.(0)] *)
  seg_offsets : int array;  (** byte offset of each record, LSN order *)
  seg_bytes : Bytes.t;  (** the pass's packed log pages *)
}

let default_retain = 8

type t = {
  file : Paged_file.t;
  data_page_size : int;
  page_size : int;  (** log page size *)
  mu : Mutex.t;  (** serialises append / fsync / truncate / fetch *)
  record : Bytes.t;  (** the record being packed; one log page, under [mu] *)
  run : Bytes.t;
      (** the open group's pages not yet written: whole pages, then the
          partly filled last one; [run_pages] whole pages and one more *)
  run_pages : int;  (** whole pages that make the run go to the device *)
  mutable run_len : int;  (** bytes packed into [run] *)
  mutable pos : int;  (** log page [run] starts at *)
  mutable offsets : int array;
      (** byte offset of each live-pass record, LSN order; grows *)
  mutable count : int;  (** records in the live pass *)
  mutable lsn : int;  (** next record's sequence number *)
  mutable inc : int;  (** incarnation stamped into every appended record *)
  mutable base_lsn : int;  (** LSN of the live pass's first record *)
  durable_lsn : int Atomic.t;
      (** highest LSN covered by a log fsync (or sealed at a checkpoint);
          -1 before the first. The shipping horizon. *)
  mutable segments : segment list;  (** sealed passes, newest first *)
  retain : int;  (** sealed segments kept (older ones fall off) *)
  (* counters: monotone, read concurrently by stats reporting *)
  appended : int Atomic.t;
  fsyncs : int Atomic.t;
  written : int Atomic.t;  (** bytes written to the device, whole pages *)
  writes : int Atomic.t;  (** device write calls *)
}

(* A run this long goes to the device without waiting for its fsync:
   [Unix.write] moves at most 64 KB per call anyway, and a bulk load
   logged as one group must not sit in memory whole. *)
let run_bytes = 65536

let check_device ~data_page_size file =
  if Paged_file.page_size file <> log_page_size ~data_page_size then
    invalid_arg
      (Printf.sprintf
         "Wal: log device page size %d, want %d (data page %d + %d header)"
         (Paged_file.page_size file)
         (log_page_size ~data_page_size)
         data_page_size header_bytes)

let create ?(retain = default_retain) ~data_page_size file =
  check_device ~data_page_size file;
  let page_size = log_page_size ~data_page_size in
  let run_pages = max 1 (run_bytes / page_size) in
  {
    file;
    data_page_size;
    page_size;
    mu = Mutex.create ();
    record = Bytes.create page_size;
    run = Bytes.create ((run_pages + 1) * page_size);
    run_pages;
    run_len = 0;
    pos = 0;
    offsets = [||];
    count = 0;
    lsn = 0;
    inc = 0;
    base_lsn = 0;
    durable_lsn = Atomic.make (-1);
    segments = [];
    retain = max 0 retain;
    appended = Atomic.make 0;
    fsyncs = Atomic.make 0;
    written = Atomic.make 0;
    writes = Atomic.make 0;
  }

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ---------- record encode / decode ---------- *)

(* Header + body at the front of [buf]; returns the record's length.
   Bytes past it are left as they were. *)
let encode_into buf ~kind ~lsn ~gen ~inc ~ptr ~body =
  let len = header_bytes + Bytes.length body in
  Bytes.fill buf 0 header_bytes '\000';
  Bytes.set_int32_le buf 0 (Int32.of_int magic);
  Bytes.set_uint8 buf 4 kind;
  Bytes.set_uint8 buf ck_kind_off ck_mx;
  Bytes.set_int64_le buf 8 (Int64.of_int lsn);
  Bytes.set_int64_le buf 16 (Int64.of_int gen);
  Bytes.set_int64_le buf 24 (Int64.of_int ptr);
  Bytes.set_int32_le buf len_off (Int32.of_int (Bytes.length body));
  Bytes.set_int32_le buf inc_off (Int32.of_int inc);
  Bytes.blit body 0 buf header_bytes (Bytes.length body);
  Bytes.set_int32_le buf cksum_off
    (Int32.of_int (Repro_util.Checksum.mx32 buf ~pos:0 ~len));
  len

type parsed = {
  p_kind : int;
  p_lsn : int;
  p_gen : int;
  p_inc : int;
  p_ptr : int;
  p_body : Bytes.t;
}

(* [None] when the page is not a valid record (torn, zeroed, foreign).
   [page] is one log page with the record at its front and zeros after
   it — a shipped page, or the scanner's re-padded copy. [body_len] is
   bounds-checked before anything is hashed. A kind-1 checksum covers
   header + body; a kind-0 (legacy FNV-1a) one covers header + body or
   — for logs whose records each filled a log page — the whole page.
   Writes the checksum field in place (and restores it), so [page] must
   not be shared with a concurrent reader. *)
let decode page ~page_size =
  if get_u32 page 0 <> magic then None
  else
    let body_len = get_u32 page len_off in
    let ck_kind = Bytes.get_uint8 page ck_kind_off in
    if body_len > page_size - header_bytes || (ck_kind <> ck_mx && ck_kind <> ck_fnv)
    then None
    else
      let stored = get_u32 page cksum_off in
      Bytes.set_int32_le page cksum_off 0l;
      let len = header_bytes + body_len in
      let valid =
        if ck_kind = ck_mx then Repro_util.Checksum.mx32 page ~pos:0 ~len = stored
        else
          let sum len = Repro_util.Checksum.fnv32 page ~pos:0 ~len in
          sum len = stored || (len < page_size && sum page_size = stored)
      in
      Bytes.set_int32_le page cksum_off (Int32.of_int stored);
      if not valid then None
      else
        Some
          {
            p_kind = Bytes.get_uint8 page 4;
            p_lsn = Int64.to_int (Bytes.get_int64_le page 8);
            p_gen = Int64.to_int (Bytes.get_int64_le page 16);
            p_inc = get_u32 page inc_off;
            p_ptr = Int64.to_int (Bytes.get_int64_le page 24);
            p_body = Bytes.sub page header_bytes body_len;
          }

(* ---------- byte-addressed reads ---------- *)

(* [blit off dst dst_off len] copies log bytes [off, off + len) out of
   the device, across page boundaries, through a two-page cache — a
   record spans at most two pages, so a forward scan reads each page
   once. *)
let device_blit file =
  let ps = Paged_file.page_size file in
  let idx = [| -1; -1 |] and bufs = [| Bytes.create ps; Bytes.create ps |] in
  let page i =
    let s = i land 1 in
    if idx.(s) <> i then begin
      idx.(s) <- -1;
      Paged_file.read_into file i bufs.(s);
      idx.(s) <- i
    end;
    bufs.(s)
  in
  let rec blit off dst dst_off len =
    if len > 0 then begin
      let o = off mod ps in
      let n = min len (ps - o) in
      Bytes.blit (page (off / ps)) o dst dst_off n;
      blit (off + n) dst (dst_off + n) (len - n)
    end
  in
  blit

(* The record at [off], re-padded to one log page: what {!fetch_from}
   ships. Only called on records this log wrote or replay accepted. *)
let repad ~page_size blit off =
  let page = Bytes.make page_size '\000' in
  blit off page 0 header_bytes;
  let body_len = min (get_u32 page len_off) (page_size - header_bytes) in
  blit (off + header_bytes) page header_bytes body_len;
  page

(* The scan rule over [size] bytes of log: [f ~off ~len page] sees each
   record at [off] ([len] bytes, re-padded into the reused [page]) and
   returns whether to go on. A record cut off by the end of the bytes
   ends the scan like any torn record. *)
let scan_bytes ~page_size ~size blit f =
  let page = Bytes.create page_size in
  let rec at off =
    if off + header_bytes <= size then begin
      blit off page 0 4;
      if get_u32 page 0 <> magic then begin
        (* the group ended: its last page's tail is zero; a page
           boundary without a record is the end of the written log *)
        if off mod page_size <> 0 then
          at ((off / page_size + 1) * page_size)
      end
      else begin
        blit off page 0 header_bytes;
        let len = header_bytes + get_u32 page len_off in
        if len <= page_size && off + len <= size then begin
          blit (off + header_bytes) page header_bytes (len - header_bytes);
          Bytes.fill page len (page_size - len) '\000';
          if f ~off ~len page then at (off + len)
        end
      end
    end
    else if off mod page_size <> 0 then at ((off / page_size + 1) * page_size)
  in
  at 0

let scan ~data_page_size file f =
  check_device ~data_page_size file;
  let page_size = Paged_file.page_size file in
  scan_bytes ~page_size
    ~size:(Paged_file.pages file * page_size)
    (device_blit file)
    (fun ~off:_ ~len:_ page -> f page)

(* ---------- append path ---------- *)

(* Write the run's first [n] pages in one call; of the [used] bytes
   packed, the ones past them start the next run. Should the write fail,
   the run is left as it was. *)
let write_run t n ~used =
  Paged_file.write_pages t.file t.pos t.run ~pos:0 ~count:n;
  ignore (Atomic.fetch_and_add t.written (n * t.page_size));
  Atomic.incr t.writes;
  let rest = max 0 (used - (n * t.page_size)) in
  Bytes.blit t.run (n * t.page_size) t.run 0 rest;
  t.pos <- t.pos + n;
  t.run_len <- rest

(* Pack the [len]-byte record in [t.record] onto the run. Once the run
   holds [run_pages] whole pages they are written; should that write
   fail, the record is simply not appended. *)
let pack t len =
  Bytes.blit t.record 0 t.run t.run_len len;
  let used = t.run_len + len in
  let full = used / t.page_size in
  if full >= t.run_pages then write_run t full ~used else t.run_len <- used

(* End the group: write its pages, the last one zero-filled past its
   last record. The next group starts on a fresh page. *)
let flush t =
  if t.run_len > 0 then begin
    let n = (t.run_len + t.page_size - 1) / t.page_size in
    Bytes.fill t.run t.run_len ((n * t.page_size) - t.run_len) '\000';
    write_run t n ~used:t.run_len
  end

(* [blit] over the live pass: the written pages from the device, the
   rest from the run. *)
let live_blit t =
  let device = device_blit t.file and split = t.pos * t.page_size in
  fun off dst dst_off len ->
    let n = max 0 (min len (split - off)) in
    if n > 0 then device off dst dst_off n;
    if n < len then Bytes.blit t.run (off + n - split) dst (dst_off + n) (len - n)

(* [a], holding [n] entries, with room for one more. *)
let room a n = if n < Array.length a then a else Array.append a (Array.make (max n 64) 0)

let push_offset t off =
  t.offsets <- room t.offsets t.count;
  t.offsets.(t.count) <- off;
  t.count <- t.count + 1

(** Append one record, stamped [gen] and the log's incarnation, packed
    right after the previous one. It reaches the device's volatile image
    with its group at the next {!fsync}, or sooner when the group
    outgrows {!run_bytes}; only {!fsync} (the group-commit leader calls
    it) makes the appended prefix durable. Thread-safe. *)
let append t ~gen record =
  with_mu t (fun () ->
      Failpoint.hit fp_append;
      let kind, ptr, body =
        match record with
        | Page { ptr; image } ->
            if Bytes.length image > t.data_page_size then
              invalid_arg "Wal.append: image larger than one data page";
            (kind_page, ptr, image)
        | Meta blob ->
            if Bytes.length blob > t.page_size - header_bytes then
              invalid_arg "Wal.append: metadata blob too large for a log record";
            (kind_meta, -1, blob)
        | Logical body ->
            if Bytes.length body > t.data_page_size then
              invalid_arg "Wal.append: logical record larger than one data page";
            (kind_logical, -1, body)
        | Commit -> (kind_commit, -1, Bytes.empty)
        | Checkpoint -> (kind_checkpoint, -1, Bytes.empty)
      in
      let len = encode_into t.record ~kind ~lsn:t.lsn ~gen ~inc:t.inc ~ptr ~body in
      let off = (t.pos * t.page_size) + t.run_len in
      pack t len;
      push_offset t off;
      t.lsn <- t.lsn + 1;
      Atomic.incr t.appended)

(** Fsync the log device: the group-commit point. The group's pages
    still in memory are written in one call, everything appended so far
    becomes durable, and the shipping watermark advances to cover it — a
    subscriber parked in {!wait_durable} sees the new horizon on its
    next poll, which is how sealed batches stream right after the fsync
    that committed them. *)
let fsync t =
  with_mu t (fun () ->
      Failpoint.hit fp_commit;
      flush t;
      Paged_file.sync t.file;
      Atomic.incr t.fsyncs;
      Atomic.set t.durable_lsn (t.lsn - 1))

(** Logical truncation, called by the store's checkpoint {e after} its
    header commit: seal the live pass into a retained segment — its
    packed pages plus an LSN → offset index — then rewind the cursor to
    page 0. The old pass's records stay on the
    device but are dead — their generation stamp no longer matches the
    header, so replay ignores them, and the next pass overwrites them in
    place; the sealed copy keeps them fetchable ({!fetch_from}) for
    replication catch-up and PITR until [retain] newer seals push the
    segment out of the window. The LSN keeps rising monotonically across
    truncations (it is never reset), which keeps the shipped stream
    contiguous and lets replay detect where a new pass's tail ends
    inside an old pass's leftovers. *)
let truncate t =
  with_mu t (fun () ->
      if t.count > 0 && t.retain > 0 then begin
        (* The pass's pages: those on the device, plus the group still in
           the run (the checkpoint marker), zero tail included — the
           pass is dead once sealed, so the run need not reach the
           device. *)
        let ps = t.page_size in
        let len = (t.pos * ps) + t.run_len in
        let bytes = Bytes.make ((len + ps - 1) / ps * ps) '\000' in
        live_blit t 0 bytes 0 len;
        let seg =
          {
            seg_base_lsn = t.base_lsn;
            seg_offsets = Array.sub t.offsets 0 t.count;
            seg_bytes = bytes;
          }
        in
        let rec keep n = function
          | [] -> []
          | _ when n = 0 -> []
          | s :: rest -> s :: keep (n - 1) rest
        in
        t.segments <- seg :: keep (t.retain - 1) t.segments
      end;
      (* The checkpoint that sealed this pass made its whole tail as
         durable as the data file, checkpoint marker included — advance
         the watermark so a follower's stream never stalls on the marker
         (which no commit fsync ever covers). *)
      Atomic.set t.durable_lsn (max (Atomic.get t.durable_lsn) (t.lsn - 1));
      t.base_lsn <- t.lsn;
      t.run_len <- 0;
      t.pos <- 0;
      t.count <- 0)

let close t = Paged_file.close t.file
let appended t = Atomic.get t.appended
let fsyncs t = Atomic.get t.fsyncs
let bytes_written t = Atomic.get t.written
let writes t = Atomic.get t.writes
let cursor t = t.pos + (t.run_len / t.page_size)
let incarnation t = t.inc
let durable_lsn t = Atomic.get t.durable_lsn
let next_lsn t = with_mu t (fun () -> t.lsn)
let segment_count t = with_mu t (fun () -> List.length t.segments)

(** Oldest LSN still fetchable: the tail of the retention window. *)
let retained_lsn t =
  with_mu t (fun () ->
      match List.rev t.segments with
      | oldest :: _ -> oldest.seg_base_lsn
      | [] -> t.base_lsn)

(* ---------- shipping: fetch + long-poll ---------- *)

type fetch =
  | Pages of { pages : Bytes.t list; next : int }
      (** one log page per record for LSNs [lsn .. next - 1],
          LSN-contiguous *)
  | At_end  (** nothing durable at or past [lsn] yet — poll again *)
  | Stale  (** [lsn] has fallen out of the retention window *)

(** Up to [max_pages] records starting at [lsn], each re-padded to one
    log page, bounded by the durable watermark — only records an fsync
    (or a checkpoint seal) covered are ever shipped, so a follower's
    stream can never outrun the primary's own commit point. Served from
    the live pass or from the sealed segments through their LSN →
    offset index; [Stale] means the follower lost the window and must
    re-seed from a full image. *)
let fetch_from t ~lsn ~max_pages =
  if lsn < 0 || max_pages < 1 then invalid_arg "Wal.fetch_from";
  with_mu t (fun () ->
      let durable = Atomic.get t.durable_lsn in
      let ship ~base ~last offsets blit =
        let lo = lsn - base in
        let hi = min last (lo + max_pages - 1) in
        let pages =
          List.init (hi - lo + 1) (fun i ->
              repad ~page_size:t.page_size blit offsets.(lo + i))
        in
        Pages { pages; next = base + hi + 1 }
      in
      if lsn > durable then At_end
      else if lsn >= t.base_lsn then
        ship ~base:t.base_lsn ~last:(durable - t.base_lsn) t.offsets (live_blit t)
      else
        (* sealed segments, newest first; find the one covering [lsn] *)
        let rec find = function
          | [] -> Stale
          | seg :: rest ->
              let len = Array.length seg.seg_offsets in
              if lsn >= seg.seg_base_lsn + len then
                (* newer than this segment, but below base_lsn: the gap
                   can only be a segment evicted from the window *)
                Stale
              else if lsn >= seg.seg_base_lsn then
                ship ~base:seg.seg_base_lsn ~last:(len - 1) seg.seg_offsets
                  (fun off dst dst_off n -> Bytes.blit seg.seg_bytes off dst dst_off n)
              else find rest
        in
        find t.segments)

(** Long-poll the durable watermark: true once some record at or past
    [lsn] is durable, false on timeout, timed on the monotonic clock.
    Polling (the stdlib [Condition] has no timed wait) at a grain far
    below any real fsync latency. *)
let wait_durable t ~lsn ~timeout =
  let deadline = now () +. timeout in
  let rec poll () =
    if Atomic.get t.durable_lsn >= lsn then true
    else if now () >= deadline then false
    else begin
      Unix.sleepf 5e-4;
      poll ()
    end
  in
  poll ()

(* ---------- the scan-one-record step ---------- *)

(** Incremental redo scanner — the single scan-one-record step behind
    {!replay} (which drives it over the local device) and the
    replication follower (which drives it over the shipped stream,
    installing each promoted batch into its own store). PAGE / META /
    LOGICAL records are staged; a COMMIT promotes the stage as one batch;
    CHECKPOINT markers are passed over (a shipped stream legitimately
    crosses checkpoint = generation boundaries, which is why the stream
    policy accepts a generation {e advance} where local replay — pinned
    to its header's generation via [expect_gen] — must stop). Every
    acceptance rule that closes the phantom-tail bug lives here: strict
    LSN continuity and non-decreasing generation and incarnation. *)
module Apply = struct
  type batch = {
    b_lsn : int;  (** LSN of the COMMIT record that promoted the batch *)
    b_images : (int * Bytes.t) list;  (** tree ptr → page image, deduped *)
    b_meta : Bytes.t option;  (** metadata blob committed with the batch *)
    b_logical : Bytes.t list;  (** logical records, in append order *)
    b_gen : int;  (** store generation the batch was appended in *)
  }

  type action =
    | Progress  (** record staged or skipped; keep feeding *)
    | Batch of batch  (** a COMMIT promoted everything staged *)
    | Reject of string
        (** not a valid continuation of this stream: torn record, LSN
            gap, regressed generation / incarnation, foreign generation
            (under [expect_gen]). The scanner state is unchanged — local
            replay treats this as the clean end of the log. *)

  type t = {
    a_page_size : int;
    a_data_page_size : int;
    a_expect_gen : int option;
    staged : (int, Bytes.t) Hashtbl.t;
    mutable staged_meta : Bytes.t option;
    mutable staged_logical : Bytes.t list;  (** newest first *)
    mutable a_next_lsn : int;  (** -1 = no record consumed yet *)
    mutable a_gen : int;
    mutable a_inc : int;
    mutable a_horizon : int;  (** LSN of the last promoted COMMIT *)
    mutable a_records : int;
    mutable a_batches : int;
  }

  let create ?expect_gen ~data_page_size () =
    {
      a_page_size = log_page_size ~data_page_size;
      a_data_page_size = data_page_size;
      a_expect_gen = expect_gen;
      staged = Hashtbl.create 32;
      staged_meta = None;
      staged_logical = [];
      a_next_lsn = -1;
      a_gen = -1;
      a_inc = -1;
      a_horizon = -1;
      a_records = 0;
      a_batches = 0;
    }

  (* A PAGE body shorter than one data page stands for that page with
     its tail zeroed. *)
  let pad_page a body =
    if Bytes.length body = a.a_data_page_size then body
    else begin
      let page = Bytes.make a.a_data_page_size '\000' in
      Bytes.blit body 0 page 0 (Bytes.length body);
      page
    end

  let next_lsn a = if a.a_next_lsn < 0 then 0 else a.a_next_lsn
  let horizon a = a.a_horizon
  let records a = a.a_records
  let batches a = a.a_batches

  (* Nothing staged: the stream so far is whole batches (and markers). *)
  let settled a =
    Hashtbl.length a.staged = 0 && a.staged_meta = None && a.staged_logical = []

  (** Feed one raw log page. @raise Corrupt on a record that is
      structurally impossible {e after} its checksum validated (device
      or stream damage outside the torn-tail model). *)
  let step a page =
    if Bytes.length page <> a.a_page_size then
      Reject
        (Printf.sprintf "log page is %d bytes, want %d" (Bytes.length page)
           a.a_page_size)
    else
      match decode page ~page_size:a.a_page_size with
      | None -> Reject "torn or invalid record"
      | Some r ->
          if a.a_next_lsn >= 0 && r.p_lsn <> a.a_next_lsn then
            Reject
              (Printf.sprintf "LSN discontinuity: want %d, got %d" a.a_next_lsn
                 r.p_lsn)
          else if
            match a.a_expect_gen with Some g -> r.p_gen <> g | None -> false
          then Reject (Printf.sprintf "foreign generation %d" r.p_gen)
          else if r.p_gen < a.a_gen then
            Reject
              (Printf.sprintf "generation regressed %d -> %d" a.a_gen r.p_gen)
          else if r.p_inc < a.a_inc then
            (* the phantom tail: a stale record of the pass that crashed,
               beyond the resumed pass's last append *)
            Reject
              (Printf.sprintf "incarnation regressed %d -> %d" a.a_inc r.p_inc)
          else begin
            a.a_next_lsn <- r.p_lsn + 1;
            a.a_gen <- r.p_gen;
            a.a_inc <- r.p_inc;
            a.a_records <- a.a_records + 1;
            if r.p_kind = kind_page then
              if r.p_ptr >= 0 then begin
                Hashtbl.replace a.staged r.p_ptr (pad_page a r.p_body);
                Progress
              end
              else raise (Corrupt "Wal: malformed PAGE record")
            else if r.p_kind = kind_meta then begin
              a.staged_meta <- Some r.p_body;
              Progress
            end
            else if r.p_kind = kind_logical then begin
              a.staged_logical <- r.p_body :: a.staged_logical;
              Progress
            end
            else if r.p_kind = kind_commit then begin
              let images =
                Hashtbl.fold (fun p img acc -> (p, img) :: acc) a.staged []
              in
              Hashtbl.reset a.staged;
              let meta = a.staged_meta and logical = List.rev a.staged_logical in
              a.staged_meta <- None;
              a.staged_logical <- [];
              a.a_horizon <- r.p_lsn;
              a.a_batches <- a.a_batches + 1;
              Batch
                {
                  b_lsn = r.p_lsn;
                  b_images = images;
                  b_meta = meta;
                  b_logical = logical;
                  b_gen = r.p_gen;
                }
            end
            else if r.p_kind = kind_checkpoint then
              (* A pass-boundary marker, not promoted state. Local
                 replay must not stop here: a checkpoint that failed
                 before its header commit leaves its marker mid-log with
                 committed batches legitimately continuing after it. In
                 a shipped stream the marker is simply the generation
                 boundary. *)
              Progress
            else raise (Corrupt "Wal: unknown record kind")
          end
end

(* ---------- recovery replay ---------- *)

type replay = {
  committed : (int, Bytes.t) Hashtbl.t;
      (** page images promoted by a COMMIT record, last writer wins *)
  committed_meta : Bytes.t option;  (** newest committed metadata blob *)
  committed_logical : Bytes.t list;
      (** every promoted logical record of the pass, in append order *)
  records : int;  (** records scanned (valid ones, this pass) *)
  batches : int;  (** COMMIT records applied *)
  next_pos : int;  (** log page where the valid tail ends — resume cursor *)
  next_lsn : int;  (** LSN to continue appending with *)
  next_inc : int;  (** incarnation the resumed log must append with *)
  tail_end : int;  (** byte offset where the valid tail ends *)
  tail_offsets : int array;
      (** byte offset of each valid-tail record, LSN order; the last one
          carries LSN [next_lsn - 1] *)
}

(** Scan the log from page 0 and redo the pass belonging to store
    generation [gen] — {!Apply} driven over the local device: stage
    PAGE / META records, promote them at each COMMIT, stop at the first
    torn record, foreign-generation record, LSN discontinuity,
    incarnation regression (the crashed pass's phantom tail), or the end
    of the written log. The valid tail ends at the last record after
    which nothing was staged: the records of an interrupted group are
    left for the resumed log to overwrite. Read-only; the caller
    installs [committed] into the data file. *)
let replay ~data_page_size ~gen file =
  check_device ~data_page_size file;
  let page_size = log_page_size ~data_page_size in
  let a = Apply.create ~expect_gen:gen ~data_page_size () in
  let committed = Hashtbl.create 64 in
  let committed_meta = ref None in
  let committed_logical = ref [] in
  let offsets = ref [||] and n = ref 0 in
  let first_lsn = ref 0 and tail_n = ref 0 and tail_end = ref 0 in
  scan_bytes ~page_size
    ~size:(Paged_file.pages file * page_size)
    (device_blit file)
    (fun ~off ~len page ->
      Failpoint.hit fp_replay;
      match Apply.step a page with
      | Apply.Reject _ -> false (* the clean end of the valid log *)
      | (Apply.Progress | Apply.Batch _) as step ->
          (match step with
          | Apply.Batch b ->
              List.iter (fun (p, img) -> Hashtbl.replace committed p img) b.Apply.b_images;
              Option.iter (fun m -> committed_meta := Some m) b.Apply.b_meta;
              committed_logical := List.rev_append b.Apply.b_logical !committed_logical
          | _ -> ());
          if !n = 0 then first_lsn := Apply.next_lsn a - 1;
          offsets := room !offsets !n;
          !offsets.(!n) <- off;
          incr n;
          if Apply.settled a then begin
            tail_n := !n;
            tail_end := off + len
          end;
          true);
  {
    committed;
    committed_meta = !committed_meta;
    committed_logical = List.rev !committed_logical;
    records = Apply.records a;
    batches = Apply.batches a;
    next_pos = (!tail_end + page_size - 1) / page_size;
    next_lsn = !first_lsn + !tail_n;
    next_inc = (if a.Apply.a_inc < 0 then 0 else a.Apply.a_inc + 1);
    tail_end = !tail_end;
    tail_offsets = Array.sub !offsets 0 !tail_n;
  }

(** Continue an existing log after recovery: the cursor resumes on the
    fresh page after the replay's valid tail (overwriting a torn group
    or a stale pass), the LSN continues past the tail's last record —
    or from [lsn], the next LSN the store header persisted at its last
    checkpoint, when that is higher (an empty pass has no record to
    continue from) — and — the phantom-tail fix — the incarnation is {e bumped} past
    every one observed (and past [incarnation], the floor the store
    header persisted at its last checkpoint), so the stale records
    beyond the tail can never chain onto the new pass's appends: replay
    stops at the first incarnation regression.

    When the pass begins right after that checkpoint ([lsn] > 0 and the
    tail starts at [lsn]), the checkpoint's CHECKPOINT marker — LSN
    [lsn - 1], stamped with generation [gen - 1] and incarnation
    [incarnation - 1] — is retained again as a one-record segment. It
    lived only in the previous process's sealed segment, so without it
    a follower that applied every commit before the close would ask for
    its LSN and be told [Stale]. *)
let resume ?(incarnation = 0) ?(lsn = 0) ?(gen = 0) ~data_page_size ~(replay : replay) file =
  let t = create ~data_page_size file in
  let ps = t.page_size in
  (* A tail that ends mid-page may be followed, on that page, by records
     of the group it interrupted: zero them, so a later scan skips from
     the tail to the next group instead of stopping at their remains.
     The bytes before the tail's end are rewritten unchanged. *)
  let from = replay.tail_end mod ps in
  if from > 0 then begin
    let ix = replay.tail_end / ps in
    let page = Paged_file.read file ix in
    if Bytes.sub_string page from (ps - from) <> String.make (ps - from) '\000'
    then begin
      Bytes.fill page from (ps - from) '\000';
      Paged_file.write file ix page;
      ignore (Atomic.fetch_and_add t.written ps);
      Atomic.incr t.writes
    end
  end;
  let n = Array.length replay.tail_offsets in
  t.pos <- replay.next_pos;
  t.lsn <- max replay.next_lsn lsn;
  t.inc <- max replay.next_inc incarnation;
  t.base_lsn <- t.lsn - n;
  t.offsets <- Array.copy replay.tail_offsets;
  t.count <- n;
  (* Everything the valid tail holds is on the device and promoted by
     replay (it ends at whole batches) — expose it for shipping so a
     promoted-from or re-seeded follower can catch up from the
     recovered log. *)
  Atomic.set t.durable_lsn (t.lsn - 1);
  if lsn > 0 && t.base_lsn = lsn && t.retain > 0 then begin
    let seg_bytes = Bytes.make ps '\000' in
    ignore
      (encode_into seg_bytes ~kind:kind_checkpoint ~lsn:(lsn - 1) ~gen:(gen - 1)
         ~inc:(incarnation - 1) ~ptr:(-1) ~body:Bytes.empty);
    t.segments <- [ { seg_base_lsn = lsn - 1; seg_offsets = [| 0 |]; seg_bytes } ]
  end;
  t
