(** Fixed-size-page file: the paper's "page or block of secondary storage"
    (§2.2) as a storage device. Three backends behind one interface — an
    in-memory byte vector (tests, benches), a real file through [Unix]
    (durability), and a {e crash shadow} (an in-memory device that models
    a volatile write cache: writes are discarded at a simulated crash
    unless an [fsync] covered them) — so the paged store and its WAL are
    backend-agnostic.

    IO discipline (see doc/RECOVERY.md):

    - Every write and read is {e positional}: the offset is derived from
      the page index on every call, and for the [File] backend the
      seek+transfer pair runs under a per-file [io_lock], so two callers
      can never interleave an [lseek] of one with the [write] of the
      other. Callers that serialise externally (e.g. {!Paged_store}'s
      file lock) pay one uncontended lock; callers that do not are still
      safe.
    - Short transfers are retried until the full page moves ([EINTR]
      included); a transfer that cannot complete (EOF mid-page, any other
      [Unix_error]) raises the typed {!Io_error} instead of silently
      truncating.
    - {!Failpoint} sites [paged_file.pwrite], [paged_file.pread] and
      [paged_file.fsync] let tests inject errors, short writes, torn
      writes and crashes at exactly these boundaries. *)

exception
  Io_error of {
    op : string;  (** "write" | "read" | "fsync" *)
    page : int;
    detail : string;
  }

let fp_write = Failpoint.site "paged_file.pwrite"
let fp_read = Failpoint.site "paged_file.pread"
let fp_fsync = Failpoint.site "paged_file.fsync"

type shadow = {
  mutable volatile : Bytes.t;  (** what the process observes *)
  mutable vcap : int;  (** capacity of [volatile], in pages *)
  mutable durable : Bytes.t;  (** what survives a crash *)
  mutable dcap : int;
  mutable durable_pages : int;  (** page count covered by the last fsync *)
  unsynced : (int, unit) Hashtbl.t;  (** pages written since the last fsync *)
}

type backend =
  | Memory of { mutable data : Bytes.t; mutable capacity : int }
  | File of { fd : Unix.file_descr; io_lock : Mutex.t }
  | Shadow of shadow

type t = { page_size : int; backend : backend; mutable pages : int }

let default_page_size = 4096

let create_memory ?(page_size = default_page_size) () =
  if page_size < 64 then invalid_arg "Paged_file: page_size too small";
  { page_size; backend = Memory { data = Bytes.create (16 * page_size); capacity = 16 }; pages = 0 }

(** A crash-shadow device: behaves like [Memory], but keeps a second
    {e durable} image updated only by [sync]. {!crash_image} harvests it
    after a simulated crash. *)
let create_shadow ?(page_size = default_page_size) () =
  if page_size < 64 then invalid_arg "Paged_file: page_size too small";
  {
    page_size;
    backend =
      Shadow
        {
          volatile = Bytes.create (16 * page_size);
          vcap = 16;
          durable = Bytes.create (16 * page_size);
          dcap = 16;
          durable_pages = 0;
          unsynced = Hashtbl.create 64;
        };
    pages = 0;
  }

(** Open (creating or truncating) a file-backed paged file for writing. *)
let create_file ?(page_size = default_page_size) path =
  if page_size < 64 then invalid_arg "Paged_file: page_size too small";
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  { page_size; backend = File { fd; io_lock = Mutex.create () }; pages = 0 }

(** Open an existing file-backed paged file; [writable] (default false)
    opens it read-write so a store can be resumed in place. *)
let open_file ?(page_size = default_page_size) ?(writable = false) path =
  let mode = if writable then Unix.O_RDWR else Unix.O_RDONLY in
  let fd = Unix.openfile path [ mode ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  if size mod page_size <> 0 then begin
    Unix.close fd;
    invalid_arg "Paged_file.open_file: size not a multiple of the page size"
  end;
  { page_size; backend = File { fd; io_lock = Mutex.create () }; pages = size / page_size }

let page_size t = t.page_size
let pages t = t.pages

(** The same bytes cut into [page_size] pages: what a reader that learns
    the page size from the data itself (a store header) reopens
    through. The view shares the device with [t]; use one of them at a
    time. *)
let retile t ~page_size =
  if page_size = t.page_size then t
  else begin
    if page_size < 64 then invalid_arg "Paged_file: page_size too small";
    let bytes = t.pages * t.page_size in
    if bytes mod page_size <> 0 then
      invalid_arg "Paged_file.retile: size not a multiple of the page size";
    let backend =
      match t.backend with
      | Memory m ->
          Memory { data = m.data; capacity = Bytes.length m.data / page_size }
      | File f -> File f
      | Shadow _ -> invalid_arg "Paged_file.retile: shadow devices keep their page size"
    in
    { page_size; backend; pages = bytes / page_size }
  end

let grow_bytes old old_cap page_size needed =
  let cap = ref (max 16 old_cap) in
  while needed > !cap do
    cap := !cap * 2
  done;
  let fresh = Bytes.create (!cap * page_size) in
  Bytes.blit old 0 fresh 0 (old_cap * page_size);
  (fresh, !cap)

let ensure_memory_capacity (t : t) needed =
  match t.backend with
  | Memory m ->
      if needed > m.capacity then begin
        let data, capacity = grow_bytes m.data m.capacity t.page_size needed in
        m.data <- data;
        m.capacity <- capacity
      end
  | Shadow s ->
      if needed > s.vcap then begin
        let volatile, vcap = grow_bytes s.volatile s.vcap t.page_size needed in
        s.volatile <- volatile;
        s.vcap <- vcap
      end
  | File _ -> ()

let ensure_durable_capacity (t : t) (s : shadow) needed =
  if needed > s.dcap then begin
    let durable, dcap = grow_bytes s.durable s.dcap t.page_size needed in
    s.durable <- durable;
    s.dcap <- dcap
  end

(* A crashed process cannot issue further IO: once a failpoint has raised
   [Crash], the shadow device freezes so a surviving domain (a
   straggling worker) cannot mutate or commit the simulated disk post
   mortem. *)
let check_alive t =
  match t.backend with
  | Shadow _ when Failpoint.is_crashed () -> raise (Failpoint.Crash "paged_file.dead")
  | _ -> ()

(* Write [len] bytes of [page] at byte offset [base], honouring the
   failpoint's short/torn decisions, via [accept src_off dst_off n]
   (returns bytes actually moved). Loops until complete. *)
let write_loop t idx ~accept =
  let len = t.page_size in
  let rec go off =
    if off < len then begin
      let want = len - off in
      match Failpoint.write_action fp_write ~len:want with
      | Failpoint.Proceed ->
          let n = accept off want in
          go (off + n)
      | Failpoint.Short k ->
          let n = accept off (min k want) in
          go (off + n)
      | Failpoint.Torn k ->
          ignore (accept off (min k want));
          (match t.backend with
          | Shadow s ->
              (* Promote the torn page to the durable image: the in-flight
                 write hits the platter as power fails. Torn content =
                 the volatile bytes written so far (prefix of the new
                 page) over the old durable suffix, which the durable
                 image already holds — so copying the volatile prefix
                 written so far is exactly the tear. *)
              ensure_durable_capacity t s (idx + 1);
              if idx >= s.durable_pages then begin
                (* the tear may land past the old durable end: the device
                   grew mid-write; the gap reads back as zeros *)
                Bytes.fill s.durable (s.durable_pages * t.page_size)
                  ((idx + 1 - s.durable_pages) * t.page_size)
                  '\000';
                s.durable_pages <- idx + 1
              end;
              Bytes.blit s.volatile (idx * t.page_size) s.durable (idx * t.page_size)
                (off + min k want)
          | Memory _ | File _ -> ());
          Failpoint.crash fp_write
    end
  in
  go 0

let write t idx page =
  if Bytes.length page <> t.page_size then invalid_arg "Paged_file.write: wrong page size";
  if idx < 0 || idx > t.pages then invalid_arg "Paged_file.write: hole in file";
  check_alive t;
  (match t.backend with
  | Memory m ->
      ensure_memory_capacity t (idx + 1);
      write_loop t idx ~accept:(fun off n ->
          Bytes.blit page off m.data ((idx * t.page_size) + off) n;
          n)
  | Shadow s ->
      ensure_memory_capacity t (idx + 1);
      Hashtbl.replace s.unsynced idx ();
      write_loop t idx ~accept:(fun off n ->
          Bytes.blit page off s.volatile ((idx * t.page_size) + off) n;
          n)
  | File f ->
      (* Positional IO invariant: the seek and the writes below form one
         atomic unit under [io_lock]; no other thread can move this fd's
         offset in between. The write loop retries short writes and EINTR
         until the full page lands. *)
      Mutex.lock f.io_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock f.io_lock)
        (fun () ->
          ignore (Unix.lseek f.fd (idx * t.page_size) Unix.SEEK_SET);
          write_loop t idx ~accept:(fun off n ->
              try Unix.write f.fd page off n with
              | Unix.Unix_error (Unix.EINTR, _, _) -> 0
              | Unix.Unix_error (e, _, _) ->
                  raise
                    (Io_error
                       { op = "write"; page = idx; detail = Unix.error_message e }))));
  if idx = t.pages then t.pages <- t.pages + 1

(** Append a page; returns its index. *)
let append t page =
  let idx = t.pages in
  write t idx page;
  idx

(** Read page [idx] into [buf] (a full-page buffer supplied by the
    caller) without allocating — the page-store fault path. *)
let read_into t idx buf =
  if idx < 0 || idx >= t.pages then invalid_arg "Paged_file.read: out of range";
  if Bytes.length buf <> t.page_size then
    invalid_arg "Paged_file.read_into: wrong buffer size";
  Failpoint.hit fp_read;
  match t.backend with
  | Memory m -> Bytes.blit m.data (idx * t.page_size) buf 0 t.page_size
  | Shadow s -> Bytes.blit s.volatile (idx * t.page_size) buf 0 t.page_size
  | File f ->
      Mutex.lock f.io_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock f.io_lock)
        (fun () ->
          ignore (Unix.lseek f.fd (idx * t.page_size) Unix.SEEK_SET);
          let rec fill off =
            if off < t.page_size then begin
              let n =
                try Unix.read f.fd buf off (t.page_size - off) with
                | Unix.Unix_error (Unix.EINTR, _, _) -> -1
                | Unix.Unix_error (e, _, _) ->
                    raise
                      (Io_error
                         { op = "read"; page = idx; detail = Unix.error_message e })
              in
              if n = 0 then
                raise
                  (Io_error
                     {
                       op = "read";
                       page = idx;
                       detail =
                         Printf.sprintf "unexpected EOF at byte %d of the page" off;
                     });
              fill (off + max n 0)
            end
          in
          fill 0)

let read t idx =
  let buf = Bytes.create t.page_size in
  read_into t idx buf;
  buf

let sync t =
  Failpoint.hit fp_fsync;
  check_alive t;
  match t.backend with
  | Memory _ -> ()
  | Shadow s ->
      ensure_durable_capacity t s t.pages;
      Hashtbl.iter
        (fun idx () ->
          if idx < t.pages then
            Bytes.blit s.volatile (idx * t.page_size) s.durable (idx * t.page_size)
              t.page_size)
        s.unsynced;
      Hashtbl.reset s.unsynced;
      s.durable_pages <- max s.durable_pages t.pages
  | File f -> (
      try Unix.fsync f.fd
      with Unix.Unix_error (e, _, _) ->
        raise (Io_error { op = "fsync"; page = -1; detail = Unix.error_message e }))

let close t =
  match t.backend with
  | Memory _ | Shadow _ -> ()
  | File f -> Unix.close f.fd

(** What a reopen would find after a crash at this instant: a fresh
    memory-backed paged file holding exactly the durable image — every
    write since the last {!sync} is gone (except pages a torn-write
    failpoint promoted). Only meaningful on a {!create_shadow} file. *)
let crash_image t =
  match t.backend with
  | Shadow s ->
      let npages = s.durable_pages in
      let data = Bytes.create (max 1 npages * t.page_size) in
      Bytes.blit s.durable 0 data 0 (npages * t.page_size);
      {
        page_size = t.page_size;
        backend = Memory { data; capacity = max 1 npages };
        pages = npages;
      }
  | Memory _ | File _ ->
      invalid_arg "Paged_file.crash_image: not a shadow-backed file"

(** Pages written since the last [sync] (shadow backend only) — what a
    crash right now would lose. *)
let unsynced_pages t =
  match t.backend with
  | Shadow s -> Hashtbl.length s.unsynced
  | Memory _ | File _ -> 0
