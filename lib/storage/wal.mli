(** Append-only, checksummed, generation- and incarnation-stamped
    write-ahead log of physical page images over a {!Paged_file} — the
    redo log behind {!Paged_store}'s group-commit durability mode, and
    the stream behind WAL-shipping replication.

    One record per log page ({!log_page_size} sizes the device). Each
    record's FNV-1a-32 checksum (the {!Page_codec} v2 framing idiom)
    covers its header and the [body_len] bytes of its body, not the zero
    padding after them; logs checksummed over the whole log page still
    replay. Each record also carries a strictly increasing LSN, the
    store generation it applies on top of, and the log's
    {e incarnation} — a counter bumped at every post-crash {!resume},
    which is what makes the recovered tail unambiguous (the phantom-tail
    fix; see doc/RECOVERY.md). A checkpoint {e logically truncates} the
    log by rewinding the cursor — but first {!truncate} seals the pass's
    pages into a retained in-memory segment so the LSN-contiguous
    history stays fetchable for replication catch-up and point-in-time
    recovery; on the device, old records are invalidated by their
    generation stamp, not erased, so the file never outgrows the busiest
    inter-checkpoint window.

    {!replay} scans from page 0, promotes staged page images at each
    COMMIT record (last writer wins), skips CHECKPOINT markers (a
    checkpoint that failed before its header flip leaves one mid-log
    with committed batches continuing after it), and stops cleanly at
    the first torn record, foreign-generation record, LSN discontinuity
    or incarnation regression. Its scan-one-record step is exposed as
    {!Apply} for followers replaying a shipped stream incrementally.

    Shipping: {!fsync} advances a durable watermark; {!fetch_from}
    serves raw log pages at or below it (live pass or retained
    segments); {!wait_durable} long-polls the watermark so a subscriber
    receives each sealed batch right after the fsync that committed it.

    Failpoint sites: [wal.append], [wal.commit], [wal.replay]. See
    doc/RECOVERY.md for the commit-point argument. *)

exception Corrupt of string
(** A structurally impossible record (bad kind, negative PAGE pointer) {e after}
    its checksum validated — device damage outside the torn-tail model. *)

val header_bytes : int
(** Record header size; a log page is one data page plus this. *)

val log_page_size : data_page_size:int -> int
(** Page size the log's {!Paged_file} must be created with. *)

val default_retain : int
(** Sealed segments kept by default (the PITR / catch-up window). *)

type record =
  | Page of { ptr : int; image : Bytes.t }
      (** Physical image of tree pointer [ptr], at most one data page: a
          shorter image (a node's codec frame) stands for the page with
          its tail zeroed, and replay and {!Apply} hand it back padded to
          one data page. Staged until the next [Commit]. *)
  | Meta of Bytes.t
      (** Client metadata blob; committed atomically with its batch. *)
  | Commit
      (** Group-commit boundary: promotes everything staged since the
          previous commit. *)
  | Checkpoint
      (** Pass-boundary marker appended by the store checkpoint; replay
          skips it (never staged, never promoted). *)

type t

val create : ?retain:int -> data_page_size:int -> Paged_file.t -> t
(** A fresh log over [file] (cursor at page 0, LSN 0, incarnation 0).
    The device's page size must equal [log_page_size ~data_page_size].
    [retain] bounds the sealed-segment window ({!default_retain}). *)

val append : t -> gen:int -> record -> unit
(** Append one record stamped with store generation [gen] and the log's
    incarnation at the cursor. Volatile until {!fsync}. Thread-safe.
    Failpoint [wal.append]. *)

val fsync : t -> unit
(** The group-commit point: make every appended record durable and
    advance the shipping watermark over it. Failpoint [wal.commit]. *)

val truncate : t -> unit
(** Logical truncation after a checkpoint's header commit: seal the live
    pass into a retained segment, then rewind the cursor to page 0.
    LSNs keep rising across truncations. *)

val close : t -> unit

val appended : t -> int
(** Records appended over the log's life. Safe to read concurrently. *)

val fsyncs : t -> int
(** Log fsyncs issued (= group commits led through this log). Safe to
    read concurrently. *)

val cursor : t -> int
(** Current append position (log pages in the live pass). *)

val incarnation : t -> int
(** The incarnation stamped into appended records. Persisted in the
    store header at each checkpoint, giving recovery a floor. *)

val next_lsn : t -> int
(** The LSN the next appended record will carry. *)

(** {2 Shipping} *)

val durable_lsn : t -> int
(** Highest LSN covered by a log fsync or checkpoint seal (-1 before the
    first): the shipping horizon. Records at or below it are fetchable
    and will survive a primary crash. *)

val retained_lsn : t -> int
(** Oldest LSN still fetchable — the tail of the retention window.
    Fetching below it yields {!Stale}. *)

val segment_count : t -> int
(** Sealed segments currently retained. *)

type fetch =
  | Pages of { pages : Bytes.t list; next : int }
      (** Raw log pages for LSNs [lsn .. next-1], contiguous. *)
  | At_end  (** Nothing durable at or past [lsn] yet — poll again. *)
  | Stale
      (** [lsn] predates the retention window; the subscriber must
          re-seed from a full image. *)

val fetch_from : t -> lsn:int -> max_pages:int -> fetch
(** Up to [max_pages] raw log pages starting at [lsn], bounded by the
    durable watermark (never ships records a crash could revoke).
    Thread-safe. *)

val wait_durable : t -> lsn:int -> timeout:float -> bool
(** Long-poll until some record at or past [lsn] is durable; [false] on
    timeout. The subscriber side of streaming-after-fsync. *)

(** {2 The scan-one-record step} *)

(** Incremental redo scanner shared by {!replay} (local device) and
    replication followers (shipped stream): feed raw log pages in
    stream order; PAGE / META records stage, each COMMIT promotes the
    stage as one batch. Enforces the full acceptance policy — checksum,
    strict LSN continuity, non-decreasing generation and incarnation,
    optionally an exact expected generation (local replay pins the
    header's generation; a shipped stream instead crosses generation
    boundaries at checkpoints). *)
module Apply : sig
  type batch = {
    b_lsn : int;  (** LSN of the COMMIT that promoted the batch *)
    b_images : (int * Bytes.t) list;  (** tree ptr → page image, deduped *)
    b_meta : Bytes.t option;  (** metadata committed with the batch *)
  }

  type action =
    | Progress  (** staged or skipped; keep feeding *)
    | Batch of batch  (** a COMMIT promoted everything staged *)
    | Reject of string
        (** Not a valid continuation (torn record, LSN gap, regressed or
            foreign generation / incarnation). Scanner state unchanged;
            local replay treats this as the clean end of the log, a
            follower as a stream error. *)

  type t

  val create : ?expect_gen:int -> data_page_size:int -> unit -> t
  (** A scanner with empty stage. [expect_gen] pins every record to one
      generation (the local-replay policy). *)

  val step : t -> Bytes.t -> action
  (** Feed one raw log page.
      @raise Corrupt on a structurally impossible checksummed record. *)

  val next_lsn : t -> int
  (** LSN the next fed record must carry (0 before any). *)

  val horizon : t -> int
  (** LSN of the last promoted COMMIT; -1 before the first. The
      replica's consistent read horizon. *)

  val records : t -> int
  (** Valid records consumed. *)

  val batches : t -> int
  (** Batches promoted. *)
end

(** {2 Recovery} *)

type replay = {
  committed : (int, Bytes.t) Hashtbl.t;
      (** tree ptr → newest group-committed page image *)
  committed_meta : Bytes.t option;
      (** newest metadata blob covered by a commit *)
  records : int;  (** valid records scanned in this pass *)
  batches : int;  (** COMMIT records applied *)
  next_pos : int;  (** where the valid tail ends — the resume cursor *)
  next_lsn : int;  (** LSN to continue appending with *)
  next_inc : int;  (** incarnation the resumed log must append with *)
}

val replay : data_page_size:int -> gen:int -> Paged_file.t -> replay
(** Read-only redo scan of generation [gen]'s pass (see module doc for
    the stop conditions). The caller installs [committed] into the data
    file {e before} its free-chain walk commits allocator state.
    Failpoint [wal.replay] fires once per record scanned. *)

val resume : ?incarnation:int -> data_page_size:int -> replay:replay -> Paged_file.t -> t
(** Reattach a log after {!replay}: cursor at [next_pos] (overwriting a
    torn record or a stale pass's leftovers), LSN at [next_lsn], and —
    the phantom-tail fix — incarnation bumped past every one observed
    in the valid tail and past [incarnation] (the floor the store
    header persisted at its last checkpoint), so stale records beyond
    the tail can never chain onto the new pass. *)
