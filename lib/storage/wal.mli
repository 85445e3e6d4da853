(** Append-only, checksummed, generation- and incarnation-stamped
    write-ahead log of physical page images (and of the opaque logical
    records a client of the store logs beside them) over a
    {!Paged_file} — the redo log behind every {!Paged_store}'s group commit, and
    the stream behind WAL-shipping replication.

    Records are packed back to back: a record is its 64-byte header
    plus the [body_len] bytes it carries, and may cross a log page
    boundary. Each group commit (the records between two {!fsync}s)
    starts on a fresh log page and zero-fills the rest of its last one,
    so a page an earlier fsync covered is never rewritten. A group's
    pages wait in memory and reach the device in one multi-page write at
    its fsync, or {!run_bytes} at a time when the group outgrows that.
    The scanner
    reads a missing record magic as the end of a group and continues at
    the next page boundary, which also reads logs written one record per
    log page. Each record's checksum covers its header and body; a
    checksum-kind byte inside the header says which hash: the
    word-at-a-time {!Repro_util.Checksum.mx32} (the {!Page_codec} v4/v5
    idiom), which every appended record uses, or FNV-1a-32 for records
    of older logs — whose checksum may also cover the whole log page —
    so those still replay. Each record also carries a strictly
    increasing LSN, the store generation it applies on top of, and the
    log's {e incarnation} — a counter bumped at every post-crash
    {!resume}, which is what makes the recovered tail unambiguous (the
    phantom-tail fix; see doc/RECOVERY.md). A checkpoint {e logically
    truncates} the log by rewinding the cursor — but first {!truncate}
    seals the pass's packed pages, with an LSN → offset index, into a
    retained in-memory segment so the LSN-contiguous history stays
    fetchable for replication catch-up and point-in-time recovery; on
    the device, old records are invalidated by their generation stamp,
    not erased, so the file never outgrows the busiest inter-checkpoint
    window.

    {!replay} scans from page 0, promotes staged page images at each
    COMMIT record (last writer wins) and logical records (all of them,
    in append order), skips CHECKPOINT markers (a
    checkpoint that failed before its header flip leaves one mid-log
    with committed batches continuing after it), and stops cleanly at
    the first torn record, foreign-generation record, LSN discontinuity
    or incarnation regression. Its scan-one-record step is exposed as
    {!Apply} for followers replaying a shipped stream incrementally.

    Shipping: {!fsync} advances a durable watermark; {!fetch_from}
    serves the records at or below it (live pass or retained segments),
    each re-padded to one log page, so the shipped stream is one record
    per log page whatever the device layout; {!wait_durable} long-polls
    the watermark so a subscriber receives each sealed batch right after
    the fsync that committed it.

    Failpoint sites: [wal.append], [wal.commit], [wal.replay]. See
    doc/RECOVERY.md for the commit-point argument. *)

exception Corrupt of string
(** A structurally impossible record (bad kind, negative PAGE pointer) {e after}
    its checksum validated — device damage outside the torn-tail model. *)

val header_bytes : int
(** Record header size; a log page is one data page plus this. *)

val log_page_size : data_page_size:int -> int
(** Page size the log's {!Paged_file} must be created with: the largest
    record (a whole data page image) fills exactly one log page. *)

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
  | Logical of Bytes.t
      (** A client redo record of at most one data page (its shipped
          form is padded to one log page). Staged like a page image but
          never deduplicated: a batch hands back every logical record it
          promoted, in append order. *)
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
    incarnation, packed right after the previous one; it reaches the
    device with its group at the next {!fsync}, or sooner once the
    group's unwritten pages reach {!run_bytes}. Volatile until {!fsync}.
    Thread-safe.
    Failpoint [wal.append], as each record is packed. *)

val fsync : t -> unit
(** The group-commit point: write the group's unwritten pages in one
    call (zero tail included), make every appended record durable and
    advance the shipping watermark over it. The next record starts a
    fresh page. Failpoint [wal.commit]. *)

val truncate : t -> unit
(** Logical truncation after a checkpoint's header commit: seal the live
    pass into a retained segment (its packed pages plus an LSN → offset
    index), then rewind the cursor to page 0. LSNs keep rising across
    truncations. *)

val close : t -> unit

val appended : t -> int
(** Records appended over the log's life. Safe to read concurrently. *)

val fsyncs : t -> int
(** Log fsyncs issued (= group commits led through this log). Safe to
    read concurrently. *)

val bytes_written : t -> int
(** Bytes written to the log device over the log's life, in whole log
    pages. Safe to read concurrently. *)

val writes : t -> int
(** Write calls issued to the log device over the log's life: about
    one per group commit, plus one per {!run_bytes} of a larger group.
    Safe to read concurrently. *)

val run_bytes : int
(** How many bytes of whole pages an open group holds in memory before
    they go to the device ahead of its fsync (64 KB, the most one
    [Unix.write] moves). *)

val cursor : t -> int
(** The log page the open group's partly filled page lands on (whole
    pages the live pass has filled, written or not). *)

val incarnation : t -> int
(** The incarnation stamped into appended records. Persisted in the
    store header at each checkpoint, giving recovery a floor. *)

val next_lsn : t -> int
(** The LSN the next appended record will carry. Persisted in the store
    header at each checkpoint, giving {!resume} its LSN floor. *)

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
      (** One log page per record for LSNs [lsn .. next-1], contiguous:
          the record at the front, zeros after it. *)
  | At_end  (** Nothing durable at or past [lsn] yet — poll again. *)
  | Stale
      (** [lsn] predates the retention window; the subscriber must
          re-seed from a full image. *)

val fetch_from : t -> lsn:int -> max_pages:int -> fetch
(** Up to [max_pages] records starting at [lsn], each re-padded to one
    log page, bounded by the durable watermark (never ships records a
    crash could revoke). Thread-safe. *)

val wait_durable : t -> lsn:int -> timeout:float -> bool
(** Long-poll until some record at or past [lsn] is durable; [false] on
    timeout. The subscriber side of streaming-after-fsync. *)

(** {2 The scan-one-record step} *)

(** Incremental redo scanner shared by {!replay} (local device) and
    replication followers (shipped stream): feed raw log pages in
    stream order; PAGE / META / LOGICAL records stage, each COMMIT
    promotes the stage as one batch. Enforces the full acceptance policy — checksum,
    strict LSN continuity, non-decreasing generation and incarnation,
    optionally an exact expected generation (local replay pins the
    header's generation; a shipped stream instead crosses generation
    boundaries at checkpoints). *)
module Apply : sig
  type batch = {
    b_lsn : int;  (** LSN of the COMMIT that promoted the batch *)
    b_images : (int * Bytes.t) list;  (** tree ptr → page image, deduped *)
    b_meta : Bytes.t option;  (** metadata committed with the batch *)
    b_logical : Bytes.t list;  (** logical records, in append order *)
    b_gen : int;
        (** store generation the batch was appended in: a follower sees
            a checkpoint as the step to a higher one *)
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
  (** Feed one log page: a record at its front, zeros after it.
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
  committed_logical : Bytes.t list;
      (** every logical record a commit promoted, in append order *)
  records : int;  (** valid records scanned in this pass *)
  batches : int;  (** COMMIT records applied *)
  next_pos : int;
      (** the first log page past the valid tail — the resume cursor *)
  next_lsn : int;  (** LSN to continue appending with *)
  next_inc : int;  (** incarnation the resumed log must append with *)
  tail_end : int;  (** byte offset where the valid tail ends *)
  tail_offsets : int array;
      (** byte offset of each valid-tail record, LSN order; the last one
          carries LSN [next_lsn - 1] *)
}

val replay : data_page_size:int -> gen:int -> Paged_file.t -> replay
(** Read-only redo scan of generation [gen]'s pass (see module doc for
    the stop conditions). The valid tail ends at the last record after
    which nothing was staged, so the records of an interrupted group
    commit are not part of it. The caller installs [committed] into the
    data file {e before} its free-chain walk commits allocator state.
    Failpoint [wal.replay] fires once per record scanned. *)

val resume :
  ?incarnation:int ->
  ?lsn:int ->
  ?gen:int ->
  data_page_size:int ->
  replay:replay ->
  Paged_file.t ->
  t
(** Reattach a log after {!replay}: cursor at [next_pos] (overwriting a
    torn group or a stale pass's leftovers; the rest of the valid tail's
    last page is zeroed if an interrupted group left bytes there), LSN
    at the larger of [next_lsn] and [lsn] (the next LSN the store
    header persisted at its last checkpoint: an empty pass has no
    record to continue from, and LSNs never restart), and — the phantom-tail fix — incarnation bumped past
    every one observed in the valid tail and past [incarnation] (the
    floor the store header persisted at its last checkpoint), so stale
    records beyond the tail can never chain onto the new pass. When the
    pass starts at [lsn], the checkpoint marker before it (LSN
    [lsn - 1], generation [gen - 1], incarnation [incarnation - 1]: the
    header's generation and incarnation floor) is served again from a
    one-record retained segment, so a follower that applied every
    commit before a clean close continues without a re-seed. *)

val scan : data_page_size:int -> Paged_file.t -> (Bytes.t -> bool) -> unit
(** Walk a log device from page 0 by the scan rule, handing [f] each
    record it finds, re-padded to one log page (the shape {!fetch_from}
    ships and {!Apply.step} takes), until [f] returns false or the
    written log ends. Records are not validated — feed them to {!Apply}
    for that. The page buffer is reused between calls. *)
