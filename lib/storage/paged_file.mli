(** Fixed-size-page file with memory, [Unix]-file and crash-shadow
    backends; the storage device under {!Paged_store} and its {!Wal}.
    Writes and reads are positional (offset derived from the page index
    on every call, seek+transfer atomic per file), retry
    short transfers and [EINTR], and raise {!Io_error} on failures
    instead of silently truncating. Fault-injection points:
    [paged_file.pwrite], [paged_file.pread], [paged_file.fsync] (see
    {!Failpoint} and doc/RECOVERY.md). *)

exception
  Io_error of {
    op : string;  (** "write" | "read" | "fsync" *)
    page : int;  (** page index, or -1 for whole-file ops *)
    detail : string;
  }
(** An IO transfer that could not complete (EOF mid-page, a non-[EINTR]
    [Unix] error). *)

type t

val default_page_size : int

val create_memory : ?page_size:int -> unit -> t
val create_file : ?page_size:int -> string -> t
(** Create or truncate for writing. *)

val create_shadow : ?page_size:int -> unit -> t
(** A crash-shadow device for fault-injection tests: like
    {!create_memory}, but it also keeps a {e durable} image updated only
    by {!sync}; {!crash_image} recovers it. Once {!Failpoint.is_crashed}
    is latched, writes and syncs raise [Failpoint.Crash] — a dead
    process issues no IO. *)

val open_file : ?page_size:int -> ?writable:bool -> string -> t
(** Open an existing file for reading ([writable] — default false —
    opens it read-write, for resuming a {!Paged_store} in place).
    @raise Invalid_argument if the size is not page-aligned. *)

val page_size : t -> int
val pages : t -> int

val retile : t -> page_size:int -> t
(** The same device cut into [page_size] pages — how a reader that
    learns the page size from the data (a store header) views it. The
    result shares the device with [t]; use one of them at a time.
    Returns [t] itself when the size is unchanged.
    @raise Invalid_argument when the device's bytes are not a multiple
    of [page_size], or on a shadow device. *)

val append : t -> Bytes.t -> int
(** Write a full page at the end; returns its index.
    @raise Invalid_argument on a wrong-sized buffer. *)

val write : t -> int -> Bytes.t -> unit
(** Overwrite page [idx] (or append when [idx = pages]). Retries until
    the full page lands. @raise Io_error when it cannot. *)

val write_pages : t -> int -> Bytes.t -> pos:int -> count:int -> unit
(** Write [count] whole pages from [pos] in the buffer to pages [idx ..
    idx + count - 1] ([idx <= pages]). On a file it is one positioned
    write; on a memory or shadow device it is [count] page writes in
    order, so the [paged_file.pwrite] failpoint fires once per page.
    @raise Io_error when it cannot. *)

val read : t -> int -> Bytes.t

val read_into : t -> int -> Bytes.t -> unit
(** Like {!read} but into a caller-supplied full-page buffer, allocation
    free — the page-store fault path. @raise Io_error on EOF mid-page. *)

val sync : t -> unit
(** [fsync]. On a shadow file, commits every write so far to the durable
    image. *)

val close : t -> unit

val crash_image : t -> t
(** Shadow files only: a fresh memory-backed file holding what a reopen
    after a crash right now would find — every write since the last
    {!sync} discarded, except pages promoted by a torn-write failpoint.
    @raise Invalid_argument on other backends. *)
