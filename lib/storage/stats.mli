(** Per-worker operation statistics. One mutable record per domain, no
    synchronisation; merge after a run. These are the metrics the paper's
    claims are judged on: lock footprint, restarts, link chases,
    structure modifications. *)

type t = {
  mutable ops : int;
  mutable gets : int;
  mutable puts : int;
  mutable lock_acquisitions : int;
  mutable locks_held : int;
  mutable max_locks_held : int;  (** the "locks simultaneously" metric *)
  mutable link_follows : int;
  mutable restarts : int;  (** wrong-node restarts (§5.2 case 2) *)
  mutable fwd_follows : int;  (** tombstone forwarding follows (case 1) *)
  mutable retries : int;  (** lock-then-revalidate right-moves *)
  mutable splits : int;
  mutable merges : int;
  mutable redistributions : int;
  mutable enqueued : int;
  mutable requeued : int;
  mutable discarded : int;
  mutable waits : int;  (** backoff waits (§3.3 / §5.2) *)
}

val create : unit -> t
val reset : t -> unit

val on_lock : t -> unit
(** Count an acquisition and track the simultaneous-locks high-water mark. *)

val on_unlock : t -> unit

val merge : into:t -> t -> unit
(** Sum counters; max the high-water marks. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {2 Storage-backend IO statistics}

    One record per store, filled by the backend ({!Paged_store.Make.io_stats});
    faults and write-backs happen below the tree layer, which never sees a
    worker context, so they cannot live in {!t}. *)

type io = {
  mutable faults : int;  (** cache misses that read a page from storage *)
  mutable fault_stall_s : float;  (** time spent waiting for an IO stripe lock *)
  mutable inline_writebacks : int;  (** eviction write-backs (all of them are inline) *)
  mutable queued_writebacks : int;
      (** always 0: eviction has no write queue. Kept only because the
          repository benchmark still reads it. *)
  mutable max_concurrent_faults : int;
      (** most faults in flight at once — [> 1] proves misses on distinct
          stripes overlapped *)
  mutable commit_reqs : int;  (** [commit] calls (group-commit requests) *)
  mutable commit_groups : int;
      (** group commits — log fsyncs a leader issued on behalf of one or
          more requests *)
  mutable max_commit_group : int;
      (** most requests absorbed by a single group commit's fsync *)
  mutable wal_records : int;  (** log records appended (pages + markers) *)
  mutable wal_fsyncs : int;  (** log-device fsyncs over the store's life *)
  mutable wal_bytes : int;
      (** bytes written to the log device, whole log pages — what the
          device gets, where [wal_records] counts records *)
  mutable epoch_min_pinned : int;
      (** MVCC reclamation horizon at sample time — the oldest epoch any
          worker or snapshot still pins ([max_int] = nothing pinned);
          merged by [min] so a combined line shows the laggard *)
  mutable snap_pins : int;  (** snapshots currently held *)
  mutable mvcc_versions : int;  (** live version records across all chains *)
  mutable mvcc_pruned : int;  (** versions pruned since store creation *)
  mutable mvcc_disk_versions : int;
      (** version records persisted in vrec pages at the last commit *)
  mutable mvcc_disk_pages : int;  (** vrec pages currently allocated *)
}

val io_create : unit -> io

val io_merge : into:io -> io -> unit
(** Sum counters; max the high-water marks. *)

val pp_io : Format.formatter -> io -> unit
val io_to_string : io -> string

(** {2 Network-server statistics}

    One record per server worker domain (no sharing on the request
    path); the server merges them on demand. *)

type server = {
  mutable conns_opened : int;  (** connections accepted over the server's life *)
  mutable conns_active : int;  (** currently open connections *)
  mutable frames_in : int;  (** request frames decoded and executed *)
  mutable frames_out : int;  (** response frames written *)
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable max_pipeline : int;
      (** pipeline-depth high-water mark: most request frames one read
          batch delivered before the connection's responses flushed *)
  mutable protocol_errors : int;
      (** malformed / truncated / oversized / checksum-failed frames *)
  mutable acked_commits : int;
      (** durable group commits issued to cover mutation acks *)
  mutable elided : int;
      (** mutations answered from batch-dedup state without a tree
          operation (batch dedup, [combine_batch]) *)
  mutable piggybacked : int;
      (** searches answered from the latest preceding same-batch write
          (batch dedup, [combine_batch]) *)
  mutable commits_skipped : int;
      (** durable-ack commits elided because the batch's surviving
          mutations were all tree no-ops *)
  mutable snapshots_opened : int;
      (** MVCC snapshot pins taken on behalf of clients — per-request
          Range cuts and session [SNAPSHOT] opens *)
  mutable snap_reads : int;
      (** reads (searches and ranges) served at a pinned snapshot
          instead of current time *)
  mutable shard_acks : int array;
      (** ack-covering commits per shard (sharded handles only; grown on
          demand to the highest shard this worker committed) *)
  latency : Repro_util.Histogram.t;  (** per-request service time, seconds *)
}

val server_create : unit -> server

val note_shard_ack : server -> int -> unit
(** Count one ack-covering commit against a shard, growing the per-shard
    array on demand. *)

val server_merge : into:server -> server -> unit
(** Sum counters; max the high-water marks; merge the histograms. *)

val pp_server : Format.formatter -> server -> unit
val server_to_string : server -> string
