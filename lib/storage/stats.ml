(** Per-process operation statistics.

    One record per worker domain (no sharing, no atomics on the hot path);
    the driver merges them after a run. These counters are what the
    experiments report: lock footprint (E1), restarts (E4), link chases
    (E6), structure modifications (E3/E5). *)

type t = {
  mutable ops : int;  (** logical operations completed *)
  mutable gets : int;  (** node reads *)
  mutable puts : int;  (** node rewrites *)
  mutable lock_acquisitions : int;
  mutable locks_held : int;  (** currently held; maintained by tree code *)
  mutable max_locks_held : int;  (** the paper's "locks simultaneously" metric *)
  mutable link_follows : int;  (** right-moves via links *)
  mutable restarts : int;  (** wrong-node restarts (§5.2 case 2) *)
  mutable fwd_follows : int;  (** deleted-node forwarding follows (case 1) *)
  mutable retries : int;  (** lock-then-revalidate retries *)
  mutable splits : int;
  mutable merges : int;
  mutable redistributions : int;
  mutable enqueued : int;  (** compression queue insertions *)
  mutable requeued : int;  (** §5.4 requeue events *)
  mutable discarded : int;  (** §5.4 discard-stale events *)
  mutable waits : int;  (** backoff waits (e.g. §3.3 prime-block wait) *)
}

let create () =
  {
    ops = 0;
    gets = 0;
    puts = 0;
    lock_acquisitions = 0;
    locks_held = 0;
    max_locks_held = 0;
    link_follows = 0;
    restarts = 0;
    fwd_follows = 0;
    retries = 0;
    splits = 0;
    merges = 0;
    redistributions = 0;
    enqueued = 0;
    requeued = 0;
    discarded = 0;
    waits = 0;
  }

let reset t =
  t.ops <- 0;
  t.gets <- 0;
  t.puts <- 0;
  t.lock_acquisitions <- 0;
  t.locks_held <- 0;
  t.max_locks_held <- 0;
  t.link_follows <- 0;
  t.restarts <- 0;
  t.fwd_follows <- 0;
  t.retries <- 0;
  t.splits <- 0;
  t.merges <- 0;
  t.redistributions <- 0;
  t.enqueued <- 0;
  t.requeued <- 0;
  t.discarded <- 0;
  t.waits <- 0

(** Record a lock acquisition and track the simultaneous-locks high-water mark. *)
let on_lock t =
  t.lock_acquisitions <- t.lock_acquisitions + 1;
  t.locks_held <- t.locks_held + 1;
  if t.locks_held > t.max_locks_held then t.max_locks_held <- t.locks_held

let on_unlock t = t.locks_held <- t.locks_held - 1

(** Merge [src] into [dst] (summing counters, maxing high-water marks). *)
let merge ~into:dst src =
  dst.ops <- dst.ops + src.ops;
  dst.gets <- dst.gets + src.gets;
  dst.puts <- dst.puts + src.puts;
  dst.lock_acquisitions <- dst.lock_acquisitions + src.lock_acquisitions;
  dst.max_locks_held <- max dst.max_locks_held src.max_locks_held;
  dst.link_follows <- dst.link_follows + src.link_follows;
  dst.restarts <- dst.restarts + src.restarts;
  dst.fwd_follows <- dst.fwd_follows + src.fwd_follows;
  dst.retries <- dst.retries + src.retries;
  dst.splits <- dst.splits + src.splits;
  dst.merges <- dst.merges + src.merges;
  dst.redistributions <- dst.redistributions + src.redistributions;
  dst.enqueued <- dst.enqueued + src.enqueued;
  dst.requeued <- dst.requeued + src.requeued;
  dst.discarded <- dst.discarded + src.discarded;
  dst.waits <- dst.waits + src.waits

(** Storage-backend IO statistics: one record per store (not per worker —
    faults and write-backs happen below the tree layer, which never sees
    a worker context). {!Paged_store}'s [io_stats] snapshots into this;
    the benches report it next to the per-worker counters. *)
type io = {
  mutable faults : int;  (** cache misses that read a page from storage *)
  mutable fault_stall_s : float;  (** time faulters spent waiting for an IO stripe lock *)
  mutable inline_writebacks : int;  (** eviction write-backs (all of them are inline) *)
  mutable queued_writebacks : int;
      (** always 0: eviction has no write queue. Kept only because the
          repository benchmark still reads it. *)
  mutable max_concurrent_faults : int;
      (** most faults in flight at once — [> 1] proves misses on distinct
          stripes overlapped *)
  mutable commit_reqs : int;  (** [commit] calls (group-commit requests) *)
  mutable commit_groups : int;
      (** group commits performed — log fsyncs a leader issued on behalf
          of one or more requests *)
  mutable max_commit_group : int;
      (** most requests absorbed by a single group commit's fsync *)
  mutable wal_records : int;  (** log records appended (pages + markers) *)
  mutable wal_fsyncs : int;  (** log-device fsyncs over the store's life *)
  mutable wal_bytes : int;
      (** bytes written to the log device, whole log pages — what the
          device gets, where [wal_records] counts records *)
  mutable epoch_min_pinned : int;
      (** MVCC reclamation horizon at sample time ([max_int] = nothing
          pinned, printed as -1); merges by {e min} — the fleet-wide
          horizon is the oldest pin anywhere *)
  mutable snap_pins : int;  (** snapshot slots pinned at sample time *)
  mutable mvcc_versions : int;  (** live version records across all chains *)
  mutable mvcc_pruned : int;  (** versions pruned since store creation *)
  mutable mvcc_disk_versions : int;
      (** version records persisted in vrec pages at the last commit
          (0 on memory-only MVCC stores) *)
  mutable mvcc_disk_pages : int;  (** vrec pages currently allocated *)
}

let io_create () =
  {
    faults = 0;
    fault_stall_s = 0.0;
    inline_writebacks = 0;
    queued_writebacks = 0;
    max_concurrent_faults = 0;
    commit_reqs = 0;
    commit_groups = 0;
    max_commit_group = 0;
    wal_records = 0;
    wal_fsyncs = 0;
    wal_bytes = 0;
    epoch_min_pinned = max_int;
    snap_pins = 0;
    mvcc_versions = 0;
    mvcc_pruned = 0;
    mvcc_disk_versions = 0;
    mvcc_disk_pages = 0;
  }

(** Merge [src] into [dst]: counters sum, high-water marks max. *)
let io_merge ~into:dst (src : io) =
  dst.faults <- dst.faults + src.faults;
  dst.fault_stall_s <- dst.fault_stall_s +. src.fault_stall_s;
  dst.inline_writebacks <- dst.inline_writebacks + src.inline_writebacks;
  dst.queued_writebacks <- dst.queued_writebacks + src.queued_writebacks;
  dst.max_concurrent_faults <- max dst.max_concurrent_faults src.max_concurrent_faults;
  dst.commit_reqs <- dst.commit_reqs + src.commit_reqs;
  dst.commit_groups <- dst.commit_groups + src.commit_groups;
  dst.max_commit_group <- max dst.max_commit_group src.max_commit_group;
  dst.wal_records <- dst.wal_records + src.wal_records;
  dst.wal_fsyncs <- dst.wal_fsyncs + src.wal_fsyncs;
  dst.wal_bytes <- dst.wal_bytes + src.wal_bytes;
  dst.epoch_min_pinned <- min dst.epoch_min_pinned src.epoch_min_pinned;
  dst.snap_pins <- dst.snap_pins + src.snap_pins;
  dst.mvcc_versions <- dst.mvcc_versions + src.mvcc_versions;
  dst.mvcc_pruned <- dst.mvcc_pruned + src.mvcc_pruned;
  dst.mvcc_disk_versions <- dst.mvcc_disk_versions + src.mvcc_disk_versions;
  dst.mvcc_disk_pages <- dst.mvcc_disk_pages + src.mvcc_disk_pages

let pp_io fmt (io : io) =
  Format.fprintf fmt
    "faults=%d stall=%.3fms wb_inline=%d max_conc_faults=%d commits=%d/%d \
     max_group=%d wal_records=%d wal_fsyncs=%d wal_bytes=%d min_pinned=%d \
     snap_pins=%d mvcc_versions=%d mvcc_pruned=%d mvcc_disk=%d/%dpg"
    io.faults (1e3 *. io.fault_stall_s) io.inline_writebacks
    io.max_concurrent_faults io.commit_groups io.commit_reqs io.max_commit_group
    io.wal_records io.wal_fsyncs io.wal_bytes
    (if io.epoch_min_pinned = max_int then -1 else io.epoch_min_pinned)
    io.snap_pins io.mvcc_versions io.mvcc_pruned io.mvcc_disk_versions
    io.mvcc_disk_pages

let io_to_string io = Format.asprintf "%a" pp_io io

(** Network-server statistics: one record per server worker domain (no
    sharing on the request path), merged by {!Repro_server.Server.stats}
    into one snapshot. Counters follow the same discipline as {!t} and
    {!io}: counts sum, high-water marks max; the per-operation service
    latency rides in the existing {!Repro_util.Histogram}. *)
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
      (** malformed / truncated / oversized / checksum-failed frames —
          each one costs its connection, never the server *)
  mutable acked_commits : int;
      (** durable group commits issued to cover mutation acks
          ([durable_acks] mode) *)
  mutable elided : int;
      (** mutations answered from batch-dedup state without a tree
          operation (insert on a known-present key, delete on a
          known-absent one) *)
  mutable piggybacked : int;
      (** searches answered from the latest preceding same-batch write
          instead of a tree search *)
  mutable commits_skipped : int;
      (** durable-ack commits elided because every surviving mutation in
          the batch was a tree no-op (nothing new to make durable) *)
  mutable snapshots_opened : int;
      (** MVCC snapshot pins taken on behalf of clients — per-request
          Range cuts and session [SNAPSHOT] opens *)
  mutable snap_reads : int;
      (** reads (searches and ranges) served at a pinned snapshot
          instead of current time *)
  mutable shard_acks : int array;
      (** ack-covering commits per shard (sharded handles only; grown
          on demand to the highest shard this worker committed) — the
          skew observability counter next to the per-shard io stats *)
  latency : Repro_util.Histogram.t;
      (** per-request service time (decode to response-buffer append),
          seconds *)
}

let server_create () =
  {
    conns_opened = 0;
    conns_active = 0;
    frames_in = 0;
    frames_out = 0;
    bytes_in = 0;
    bytes_out = 0;
    max_pipeline = 0;
    protocol_errors = 0;
    acked_commits = 0;
    elided = 0;
    piggybacked = 0;
    commits_skipped = 0;
    snapshots_opened = 0;
    snap_reads = 0;
    shard_acks = [||];
    latency = Repro_util.Histogram.create ();
  }

(** Count one ack-covering commit against [shard], growing the
    per-shard array on demand. *)
let note_shard_ack (s : server) shard =
  if Array.length s.shard_acks <= shard then begin
    let grown = Array.make (shard + 1) 0 in
    Array.blit s.shard_acks 0 grown 0 (Array.length s.shard_acks);
    s.shard_acks <- grown
  end;
  s.shard_acks.(shard) <- s.shard_acks.(shard) + 1

(** Merge [src] into [dst]: counters sum, high-water marks max,
    latency histograms merge. *)
let server_merge ~into:dst (src : server) =
  dst.conns_opened <- dst.conns_opened + src.conns_opened;
  dst.conns_active <- dst.conns_active + src.conns_active;
  dst.frames_in <- dst.frames_in + src.frames_in;
  dst.frames_out <- dst.frames_out + src.frames_out;
  dst.bytes_in <- dst.bytes_in + src.bytes_in;
  dst.bytes_out <- dst.bytes_out + src.bytes_out;
  dst.max_pipeline <- max dst.max_pipeline src.max_pipeline;
  dst.protocol_errors <- dst.protocol_errors + src.protocol_errors;
  dst.acked_commits <- dst.acked_commits + src.acked_commits;
  dst.elided <- dst.elided + src.elided;
  dst.piggybacked <- dst.piggybacked + src.piggybacked;
  dst.commits_skipped <- dst.commits_skipped + src.commits_skipped;
  dst.snapshots_opened <- dst.snapshots_opened + src.snapshots_opened;
  dst.snap_reads <- dst.snap_reads + src.snap_reads;
  (if Array.length src.shard_acks > 0 then begin
     if Array.length dst.shard_acks < Array.length src.shard_acks then begin
       let grown = Array.make (Array.length src.shard_acks) 0 in
       Array.blit dst.shard_acks 0 grown 0 (Array.length dst.shard_acks);
       dst.shard_acks <- grown
     end;
     Array.iteri
       (fun i v -> dst.shard_acks.(i) <- dst.shard_acks.(i) + v)
       src.shard_acks
   end);
  Repro_util.Histogram.merge ~into:dst.latency src.latency

let pp_server fmt (s : server) =
  Format.fprintf fmt
    "conns=%d/%d frames=%d/%d bytes=%d/%d max_pipeline=%d proto_errors=%d \
     acked_commits=%d elided=%d piggybacked=%d commits_skipped=%d \
     snapshots=%d snap_reads=%d lat_p50=%.1fus lat_p99=%.1fus"
    s.conns_active s.conns_opened s.frames_in s.frames_out s.bytes_in
    s.bytes_out s.max_pipeline s.protocol_errors s.acked_commits s.elided
    s.piggybacked s.commits_skipped s.snapshots_opened s.snap_reads
    (1e6 *. Repro_util.Histogram.percentile s.latency 50.0)
    (1e6 *. Repro_util.Histogram.percentile s.latency 99.0);
  if Array.length s.shard_acks > 0 then
    Format.fprintf fmt " shard_acks=[%s]"
      (String.concat ","
         (Array.to_list (Array.map string_of_int s.shard_acks)))

let server_to_string s = Format.asprintf "%a" pp_server s

let pp fmt t =
  Format.fprintf fmt
    "ops=%d gets=%d puts=%d locks=%d max_held=%d links=%d restarts=%d fwd=%d retries=%d \
     splits=%d merges=%d redist=%d enq=%d requeue=%d discard=%d waits=%d"
    t.ops t.gets t.puts t.lock_acquisitions t.max_locks_held t.link_follows t.restarts
    t.fwd_follows t.retries t.splits t.merges t.redistributions t.enqueued t.requeued
    t.discarded t.waits

let to_string t = Format.asprintf "%a" pp t
