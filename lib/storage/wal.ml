(** Append-only write-ahead log of physical page images over a
    {!Paged_file}, with the record framing, replay scanner and fault
    points the paged store's group-commit path builds on — and, since
    the log is also the replication stream, the sealed-segment retention
    and fetch API the shipping layer consumes.

    {b Log device}: a {!Paged_file} whose page size is the data store's
    page size plus {!header_bytes} — one log page per record, so a torn
    record is exactly a torn device page. Use {!log_page_size} to size
    the device.

    {b Checksum range}: FNV-1a-32 (the same framing idiom as
    {!Page_codec}) over the header plus the [body_len] bytes the record
    carries — not the zero padding after them, which is most of the page
    for a PAGE record (its body is the node's codec frame) and all of it
    for COMMIT / CHECKPOINT. A tear inside header + body breaks the
    checksum; a tear wholly past [body_len] touches only bytes no reader
    ever looks at, so the record is exactly as written and stays valid.
    Logs written before this range existed checksummed the whole log
    page; {!decode} falls back to that range when the short one does not
    match, so they still replay.

    {b Record format} (one log page):

    {v
    off 0   u32  magic        "SGWL"
    off 4   u8   kind         1 = PAGE, 2 = COMMIT, 3 = CHECKPOINT
    off 8   u64  lsn          strictly increasing across the log's life
    off 16  u64  generation   store generation the record applies on top of
    off 24  u64  ptr          tree pointer (PAGE records; -1 otherwise)
    off 32  u32  body_len     bytes of body (≤ one data page)
    off 40  u32  checksum     FNV-1a-32 over header + body, own field zeroed
    off 44  u32  incarnation  append-pass counter, bumped at every resume
    off 64  ...  body         page image (codec frame) / meta blob
    ...          zero padding to the log page size (not checksummed)
    v}

    A PAGE body shorter than one data page stands for that page with
    its tail zeroed: {!Apply} pads it back, so replay and followers see
    full data-page images.

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
    log by rewinding the append cursor to page 0 — but first the pass's
    records are {e sealed} into a retained segment ({!truncate} copies
    the live pages aside, keeping the newest [retain] segments), so the
    LSN-contiguous history stays fetchable for replication catch-up and
    point-in-time recovery even after the device pages are overwritten
    by the next pass. On the device itself nothing is erased; records of
    the previous pass are invalidated by their (now old) generation
    stamp, and the next pass simply overwrites them, so the file never
    grows beyond the record count of the busiest inter-checkpoint
    window.

    {b Replay} ({!replay}) scans from page 0 and applies the classic
    redo discipline: PAGE / META records are {e staged}; a COMMIT record
    {e promotes} everything staged (later images of the same page win —
    last-writer-wins); CHECKPOINT markers are skipped (a checkpoint that
    failed before its header flip leaves its marker mid-log, with
    committed batches legitimately continuing after it); the scan stops
    cleanly at the first record that is torn (bad magic / checksum),
    stamped with a foreign generation (a previous pass), breaks LSN
    continuity, or regresses the incarnation (a crashed pass's leftovers
    beyond the recovered tail). Staged-but-unpromoted records — an
    interrupted commit's tail — are discarded: recovery yields exactly
    the group-committed batches. The scan-one-record step is {!Apply},
    which replication followers drive incrementally over the shipped
    stream.

    {b Shipping}: {!fsync} advances a {e durable watermark} (the highest
    LSN covered by a log fsync); {!fetch_from} serves the raw log pages
    of any LSN range at or below it, from the live pass or the retained
    segments, and {!wait_durable} lets a subscriber long-poll the
    watermark so sealed commit batches stream out right after the fsync
    that made them durable. See doc/RECOVERY.md for the replication
    commit-point argument.

    Failpoint sites: [wal.append] (before each record write),
    [wal.commit] (before each log fsync), [wal.replay] (per record
    scanned during recovery). *)

exception Corrupt of string

let magic = 0x53_47_57_4C (* "SGWL" *)
let header_bytes = 64
let cksum_off = 40
let inc_off = 44

let kind_page = 1
let kind_commit = 2
let kind_checkpoint = 3
let kind_meta = 4

let fp_append = Failpoint.site "wal.append"
let fp_commit = Failpoint.site "wal.commit"
let fp_replay = Failpoint.site "wal.replay"

let log_page_size ~data_page_size = data_page_size + header_bytes

type record =
  | Page of { ptr : int; image : Bytes.t }
      (** physical page image, at most one data page; a short one stands
          for the page with its tail zeroed *)
  | Meta of Bytes.t  (** client metadata blob (committed with its batch) *)
  | Commit  (** promotes every record staged since the previous commit *)
  | Checkpoint  (** pass boundary marker appended by a store checkpoint *)

(** One sealed pass of the log, copied aside at checkpoint truncation:
    the retention window these form is what replication catch-up and
    PITR replay read. Process-local — a crashed primary's retention dies
    with it; its {e durable} device pages are what recovery (and a
    promoting follower's final catch-up) read instead. *)
type segment = {
  seg_base_lsn : int;  (** LSN of [seg_pages.(0)] *)
  seg_pages : Bytes.t array;  (** raw log pages, LSN-contiguous *)
}

let default_retain = 8

type t = {
  file : Paged_file.t;
  data_page_size : int;
  mu : Mutex.t;  (** serialises append / fsync / truncate / fetch *)
  scratch : Bytes.t;  (** one log page, reused under [mu] *)
  mutable pos : int;  (** next log page to write *)
  mutable lsn : int;  (** next record's sequence number *)
  mutable inc : int;  (** incarnation stamped into every appended record *)
  mutable base_lsn : int;  (** LSN of live log page 0 *)
  durable_lsn : int Atomic.t;
      (** highest LSN covered by a log fsync (or sealed at a checkpoint);
          -1 before the first. The shipping horizon. *)
  mutable segments : segment list;  (** sealed passes, newest first *)
  retain : int;  (** sealed segments kept (older ones fall off) *)
  (* counters: monotone, read concurrently by stats reporting *)
  appended : int Atomic.t;
  fsyncs : int Atomic.t;
}

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
  {
    file;
    data_page_size;
    mu = Mutex.create ();
    scratch = Bytes.create (log_page_size ~data_page_size);
    pos = 0;
    lsn = 0;
    inc = 0;
    base_lsn = 0;
    durable_lsn = Atomic.make (-1);
    segments = [];
    retain = max 0 retain;
    appended = Atomic.make 0;
    fsyncs = Atomic.make 0;
  }

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ---------- record encode / decode ---------- *)

let encode_into page ~page_size ~kind ~lsn ~gen ~inc ~ptr ~body =
  let len = header_bytes + Bytes.length body in
  Bytes.fill page 0 page_size '\000';
  Bytes.set_int32_le page 0 (Int32.of_int magic);
  Bytes.set_uint8 page 4 kind;
  Bytes.set_int64_le page 8 (Int64.of_int lsn);
  Bytes.set_int64_le page 16 (Int64.of_int gen);
  Bytes.set_int64_le page 24 (Int64.of_int ptr);
  Bytes.set_int32_le page 32 (Int32.of_int (Bytes.length body));
  Bytes.set_int32_le page inc_off (Int32.of_int inc);
  Bytes.blit body 0 page header_bytes (Bytes.length body);
  Bytes.set_int32_le page cksum_off
    (Int32.of_int (Repro_util.Checksum.fnv32 page ~pos:0 ~len))

type parsed = {
  p_kind : int;
  p_lsn : int;
  p_gen : int;
  p_inc : int;
  p_ptr : int;
  p_body : Bytes.t;
}

(* [None] when the page is not a valid record (torn, zeroed, foreign).
   [body_len] is bounds-checked before anything is hashed; the checksum
   covers header + body, or — for logs written before that range — the
   whole log page. Writes the checksum field in place (and restores it),
   so [page] must not be shared with a concurrent reader. *)
let decode page ~page_size =
  if Int32.to_int (Bytes.get_int32_le page 0) land 0xFFFFFFFF <> magic then None
  else
    let body_len = Int32.to_int (Bytes.get_int32_le page 32) land 0xFFFFFFFF in
    if body_len > page_size - header_bytes then None
    else
      let stored = Int32.to_int (Bytes.get_int32_le page cksum_off) land 0xFFFFFFFF in
      Bytes.set_int32_le page cksum_off 0l;
      let sum len = Repro_util.Checksum.fnv32 page ~pos:0 ~len in
      let len = header_bytes + body_len in
      let valid = sum len = stored || (len < page_size && sum page_size = stored) in
      Bytes.set_int32_le page cksum_off (Int32.of_int stored);
      if not valid then None
      else
        Some
          {
            p_kind = Bytes.get_uint8 page 4;
            p_lsn = Int64.to_int (Bytes.get_int64_le page 8);
            p_gen = Int64.to_int (Bytes.get_int64_le page 16);
            p_inc = Int32.to_int (Bytes.get_int32_le page inc_off) land 0xFFFFFFFF;
            p_ptr = Int64.to_int (Bytes.get_int64_le page 24);
            p_body = Bytes.sub page header_bytes body_len;
          }

(* ---------- append path ---------- *)

(** Append one record, stamped [gen] and the log's incarnation, at the
    cursor. The write lands in the device's volatile image only — call
    {!fsync} (the group-commit leader does) to make the appended prefix
    durable. Thread-safe. *)
let append t ~gen record =
  with_mu t (fun () ->
      Failpoint.hit fp_append;
      let page_size = Bytes.length t.scratch in
      let kind, ptr, body =
        match record with
        | Page { ptr; image } ->
            if Bytes.length image > t.data_page_size then
              invalid_arg "Wal.append: image larger than one data page";
            (kind_page, ptr, image)
        | Meta blob ->
            if Bytes.length blob > page_size - header_bytes then
              invalid_arg "Wal.append: metadata blob too large for a log record";
            (kind_meta, -1, blob)
        | Commit -> (kind_commit, -1, Bytes.empty)
        | Checkpoint -> (kind_checkpoint, -1, Bytes.empty)
      in
      encode_into t.scratch ~page_size ~kind ~lsn:t.lsn ~gen ~inc:t.inc ~ptr
        ~body;
      Paged_file.write t.file t.pos t.scratch;
      t.pos <- t.pos + 1;
      t.lsn <- t.lsn + 1;
      Atomic.incr t.appended)

(** Fsync the log device: the group-commit point. Everything appended so
    far becomes durable, and the shipping watermark advances to cover
    it — a subscriber parked in {!wait_durable} sees the new horizon on
    its next poll, which is how sealed batches stream right after the
    fsync that committed them. *)
let fsync t =
  with_mu t (fun () ->
      Failpoint.hit fp_commit;
      Paged_file.sync t.file;
      Atomic.incr t.fsyncs;
      Atomic.set t.durable_lsn (t.lsn - 1))

(** Logical truncation, called by the store's checkpoint {e after} its
    header commit: seal the live pass into a retained segment, then
    rewind the cursor to page 0. The old pass's records stay on the
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
      if t.pos > 0 && t.retain > 0 then begin
        let pages =
          Array.init t.pos (fun i -> Paged_file.read t.file i)
        in
        let seg = { seg_base_lsn = t.base_lsn; seg_pages = pages } in
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
      t.pos <- 0)

let close t = Paged_file.close t.file
let appended t = Atomic.get t.appended
let fsyncs t = Atomic.get t.fsyncs
let cursor t = t.pos
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
      (** raw log pages for LSNs [lsn .. next - 1], LSN-contiguous *)
  | At_end  (** nothing durable at or past [lsn] yet — poll again *)
  | Stale  (** [lsn] has fallen out of the retention window *)

(** The raw log pages of up to [max_pages] records starting at [lsn],
    bounded by the durable watermark — only records an fsync (or a
    checkpoint seal) covered are ever shipped, so a follower's stream
    can never outrun the primary's own commit point. Served from the
    live pass or from the sealed segments; [Stale] means the follower
    lost the window and must re-seed from a full image. *)
let fetch_from t ~lsn ~max_pages =
  if lsn < 0 || max_pages < 1 then invalid_arg "Wal.fetch_from";
  with_mu t (fun () ->
      let durable = Atomic.get t.durable_lsn in
      if lsn > durable then At_end
      else if lsn >= t.base_lsn then begin
        (* live pass: page i holds LSN [base_lsn + i] *)
        let lo = lsn - t.base_lsn in
        let hi = min (durable - t.base_lsn) (lo + max_pages - 1) in
        let pages =
          List.init (hi - lo + 1) (fun i -> Paged_file.read t.file (lo + i))
        in
        Pages { pages; next = t.base_lsn + hi + 1 }
      end
      else
        (* sealed segments, newest first; find the one covering [lsn] *)
        let rec find = function
          | [] -> Stale
          | seg :: rest ->
              let len = Array.length seg.seg_pages in
              if lsn >= seg.seg_base_lsn + len then
                (* newer than this segment, but below base_lsn: the gap
                   can only be a segment evicted from the window *)
                Stale
              else if lsn >= seg.seg_base_lsn then begin
                let lo = lsn - seg.seg_base_lsn in
                let hi = min (len - 1) (lo + max_pages - 1) in
                let pages =
                  List.init (hi - lo + 1) (fun i ->
                      Bytes.copy seg.seg_pages.(lo + i))
                in
                Pages { pages; next = seg.seg_base_lsn + hi + 1 }
              end
              else find rest
        in
        find t.segments)

(** Long-poll the durable watermark: true once some record at or past
    [lsn] is durable, false on timeout. Polling (the stdlib [Condition]
    has no timed wait) at a grain far below any real fsync latency. *)
let wait_durable t ~lsn ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    if Atomic.get t.durable_lsn >= lsn then true
    else if Unix.gettimeofday () >= deadline then false
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
    installing each promoted batch into its own store). PAGE / META
    records are staged; a COMMIT promotes the stage as one batch;
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
            else if r.p_kind = kind_commit then begin
              let images =
                Hashtbl.fold (fun p img acc -> (p, img) :: acc) a.staged []
              in
              Hashtbl.reset a.staged;
              let meta = a.staged_meta in
              a.staged_meta <- None;
              a.a_horizon <- r.p_lsn;
              a.a_batches <- a.a_batches + 1;
              Batch { b_lsn = r.p_lsn; b_images = images; b_meta = meta }
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
  records : int;  (** records scanned (valid ones, this pass) *)
  batches : int;  (** COMMIT records applied *)
  next_pos : int;  (** log page where the valid tail ends — resume cursor *)
  next_lsn : int;  (** LSN to continue appending with *)
  next_inc : int;  (** incarnation the resumed log must append with *)
}

(** Scan the log from page 0 and redo the pass belonging to store
    generation [gen] — {!Apply} driven over the local device: stage
    PAGE / META records, promote them at each COMMIT, stop at the first
    torn record, foreign-generation record, LSN discontinuity, or
    incarnation regression (the crashed pass's phantom tail), or device
    end. Read-only; the caller installs [committed] into the data
    file. *)
let replay ~data_page_size ~gen file =
  check_device ~data_page_size file;
  let a = Apply.create ~expect_gen:gen ~data_page_size () in
  let committed = Hashtbl.create 64 in
  let committed_meta = ref None in
  let stop = ref false in
  let pos = ref 0 in
  let npages = Paged_file.pages file in
  while (not !stop) && !pos < npages do
    Failpoint.hit fp_replay;
    let page = Paged_file.read file !pos in
    match Apply.step a page with
    | Apply.Reject _ -> stop := true (* the clean end of the valid tail *)
    | Apply.Progress -> incr pos
    | Apply.Batch b ->
        List.iter (fun (p, img) -> Hashtbl.replace committed p img) b.Apply.b_images;
        (match b.Apply.b_meta with
        | Some m -> committed_meta := Some m
        | None -> ());
        incr pos
  done;
  {
    committed;
    committed_meta = !committed_meta;
    records = Apply.records a;
    batches = Apply.batches a;
    next_pos = !pos;
    next_lsn = Apply.next_lsn a;
    next_inc = (if a.Apply.a_inc < 0 then 0 else a.Apply.a_inc + 1);
  }

(** Continue an existing log after recovery: the cursor resumes at the
    replay's valid tail (overwriting any torn record or stale pass), the
    LSN continues past the highest one seen, and — the phantom-tail fix
    — the incarnation is {e bumped} past every one observed (and past
    [incarnation], the floor the store header persisted at its last
    checkpoint), so the stale records beyond the tail can never chain
    onto the new pass's appends: replay stops at the first incarnation
    regression. *)
let resume ?(incarnation = 0) ~data_page_size ~(replay : replay) file =
  let t = create ~data_page_size file in
  t.pos <- replay.next_pos;
  t.lsn <- replay.next_lsn;
  t.inc <- max replay.next_inc incarnation;
  t.base_lsn <- replay.next_lsn - replay.next_pos;
  (* Everything the valid tail holds was durable before the crash (the
     tail ends at the last commit fsync's coverage or the torn record
     after it) — expose it for shipping so a promoted-from or re-seeded
     follower can catch up from the recovered log. *)
  Atomic.set t.durable_lsn (replay.next_lsn - 1);
  t
