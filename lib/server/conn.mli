(** One end of a framed socket connection, shared by the server's
    workers and {!Repro_client.Client}: the read buffer (it starts at
    4 KB, doubles when short of room and is compacted when drained), the
    read that fills it and the write that drains a {!Protocol.Writer}.

    Waiting for bytes, a read polls the socket without blocking for up
    to 50 µs before it blocks in read(2), but only after a wait that
    ended inside that window and only while the [running] counter given
    to {!create} is below the machine's core count (doc/SERVER.md,
    "Waiting for the next batch"). *)

type t

val create : running:int Atomic.t -> Unix.file_descr -> t
(** [running] counts the domains, this one included, that are using a
    core rather than parked in a blocking read; a read decrements it
    while it blocks. The server's workers share one counter. A client,
    which cannot see the server's, passes one of its own holding 1, so
    it polls only on a machine with more than one core. *)

val fill : t -> int
(** Make room in the buffer, then read once from the socket, waiting as
    above. Returns the bytes read; 0 at end of stream (a shutdown of the
    socket ends a poll or a blocked read at once).
    @raise Unix.Unix_error on a socket error. *)

val next_request : t -> Protocol.request Protocol.decoded
(** Decode the next frame from the bytes read and not yet decoded, and
    consume it. [Need_more] consumes nothing.
    @raise Protocol.Bad_frame on a corrupt frame. *)

val next_response : t -> Protocol.response Protocol.decoded
(** {!next_request} for a response frame. *)

val flush : t -> Protocol.Writer.t -> int
(** Write every byte the writer holds, reset it, and return how many
    bytes that was. A write that would block blocks.
    @raise Unix.Unix_error on a socket error. *)
