(** Pipelined network server over any {!Repro_baseline.Tree_intf.handle}.

    One accept domain multiplexes every listener (Unix-domain and TCP);
    accepted connections queue to a pool of worker domains, each serving
    one connection at a time with its own epoch slot and statistics
    record — the request path shares nothing but the tree.

    A worker drains every complete frame its read buffer holds (that
    batch size is the connection's pipeline depth), executes the batch,
    and — when the server runs with durable acks — issues one
    [handle.commit] covering the batch's mutations {e before} flushing
    the responses, folding the whole batch (and, through the WAL's group
    commit, concurrent batches on other connections) into one durable
    write. Under [~durable_acks:true] an acked mutation is therefore a
    committed mutation: it survives a crash immediately after the
    response frame is read.

    Waiting for a connection's next batch, a worker polls the socket
    without blocking for up to 50 µs before it blocks in read(2), but
    only after a wait that ended inside that window and only while fewer
    workers are running than the machine has cores (doc/SERVER.md,
    "Waiting for the next batch").

    Error isolation is per connection: a frame that fails to parse gets
    a final [Error] response and closes only that connection, counting
    one protocol error. *)

type t

val start :
  ?workers:int ->
  ?durable_acks:bool ->
  handle:Repro_baseline.Tree_intf.handle ->
  listen:Unix.sockaddr list ->
  unit ->
  t
(** Bind and listen on every address, then return with the accept and
    worker domains running. [workers] defaults to 4 — it bounds the
    connections served concurrently (excess connections wait in the
    accept queue). [durable_acks] (default false) makes every mutation
    batch commit before its acks flush; a batch whose mutations were
    all tree no-ops commits too, which costs no log write when the store
    has nothing unsealed ({!Repro_storage.Paged_store}). A handle that
    carries a log ([handle.log], every disk handle) answers the
    [Subscribe] opcode — replication pull of durable WAL pages, with a
    bounded long-poll so each sealed batch streams right after the
    group-commit fsync that made it durable; on any other handle
    subscribes get [Error "replication unsupported"]. TCP addresses may bind port 0;
    read the chosen port back with {!addresses}.
    @raise Unix.Unix_error when an address cannot be bound. *)

val addresses : t -> Unix.sockaddr list
(** Actual bound addresses, in [listen] order. *)

val stats : t -> Repro_storage.Stats.server
(** Merged snapshot of every worker's counters (fresh record; safe to
    read while the server runs). *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, shut down in-flight connections
    (their workers finish the current batch, flush, then close; a worker
    polling or blocked for its next batch reads EOF at once), join every
    domain. Idempotent. *)
