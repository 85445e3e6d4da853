(** Blocking client for the B-link network server.

    One connection, one caller at a time (no internal locking). The
    single-request helpers round-trip one frame; {!pipeline} streams a
    whole batch (up to a 64 KB window) before reading any response,
    which is where the protocol's throughput comes from — and what the
    server's ack-fold into group commit amortises.

    Every call raises {!Repro_server.Protocol.Bad_frame} on a corrupt
    response, [End_of_file] when the server closes mid-reply, and
    [Unix.Unix_error] on socket failure. *)

type t

val connect : Unix.sockaddr -> t
val close : t -> unit
(** Idempotent. *)

val pipeline :
  t -> Repro_server.Protocol.request list -> Repro_server.Protocol.response list
(** Send the batch, then read exactly one response per request, in
    order. Sequence numbers are checked against the requests'. A batch
    under 64 KB of request frames goes out in one write; a larger one
    never has more than that (plus one frame) sent but unanswered, so a
    batch of any size completes.

    Waiting for the replies, the client polls the socket without
    blocking for up to 50 µs before it blocks in read(2), which saves
    the sleep and wake-up of a short round trip. It polls only when its
    previous wait ended inside those 50 µs, so a long batch (a commit, a
    large range) or an idle server gets a blocking read at once, and
    never on a one-core machine. *)

val insert : t -> key:int -> value:int -> [ `Ok | `Duplicate ]
val delete : t -> key:int -> bool
val search : t -> key:int -> int option
val range : t -> lo:int -> hi:int -> (int * int) list
val commit : t -> unit
val stats : t -> Repro_server.Protocol.server_stats

val snapshot_open : t -> int
(** Open (or replace) this connection's pinned MVCC snapshot session and
    return its boundary epoch: until {!snapshot_close}, [search] and
    [range] on this connection answer at that cut. Raises
    {!Remote_error} on a backend without an MVCC surface. *)

val snapshot_close : t -> unit
(** Release the session snapshot (the server also releases it when the
    connection closes). *)

val wal_fetch :
  t ->
  shard:int ->
  from_lsn:int ->
  max_pages:int ->
  wait_ms:int ->
  Bytes.t list * int
(** One replication pull: durable WAL log pages of [shard] starting at
    [from_lsn] (long-polling up to [wait_ms] when caught up), and the
    LSN the next pull should start from. Empty pages = caught up.
    Raises {!Remote_error} [("stale")] when [from_lsn] predates the
    primary's retention window. *)

exception Remote_error of string
(** The server answered [Error] (it has closed the connection). *)
