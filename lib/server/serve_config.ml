(** The serve command's backend compatibility matrix, as one total
    function instead of a pile of ad-hoc guards. Every flag combination
    resolves to either a coherent configuration or a single actionable
    error — the CLI applies it verbatim and the tests enumerate it.

    Tree names first: [sagiv-compact] is refused (no compactor runs
    under serve), and the disk backend and [mvcc] both need [sagiv];
    the memory backend serves any other tree by name. Then the backend
    matrix (disk always logs: group commit + replication):

    {v
                         mem                disk
      plain              ok                 ok (+path)
      plain, shards>1    error (no router   ok (+path)
                         without a cut)
      mvcc               ok (volatile)      ok (durable chains; +path)
      mvcc, shards>1     ok (one epoch)     ok (one epoch; +path)
      path               error              ok
    v} *)

type t = {
  backend : [ `Mem | `Disk ];
  mvcc : bool;
  shards : int;
  path : string option;
      (** file-backed store base path ([None] = memory-backed pager) *)
  durable_acks : bool;
      (** the server commits before acking mutations — exactly when the
          backend persists anything *)
}

let validate ~tree ~backend ~shards ~mvcc ~path =
  let ( let* ) = Result.bind in
  let* backend =
    match backend with
    | "mem" -> Ok `Mem
    | "disk" -> Ok `Disk
    | s -> Error (Printf.sprintf "unknown backend %S (mem or disk)" s)
  in
  (* No compactor runs under serve, so a sagiv-compact tree would queue
     every sparse leaf for a drain that never comes. *)
  let* () =
    if tree = "sagiv-compact" then
      Error
        "serve --tree sagiv-compact: compaction under serve waits for the \
         maintenance loop; use --tree sagiv"
    else Ok ()
  in
  let* () =
    if backend = `Disk && tree <> "sagiv" then
      Error (Printf.sprintf "tree %S has no disk backend (only sagiv does)" tree)
    else Ok ()
  in
  let* () =
    if mvcc && tree <> "sagiv" then
      Error
        (Printf.sprintf
           "--mvcc versions the sagiv tree; tree %S has no MVCC backend" tree)
    else Ok ()
  in
  let* () =
    if shards >= 1 then Ok ()
    else Error (Printf.sprintf "--shards %d: shard count must be >= 1" shards)
  in
  let* () =
    if path <> None && backend = `Mem then
      Error "--path requires --backend disk (the memory backend has no files)"
    else Ok ()
  in
  let* () =
    if shards > 1 && backend = `Mem && not mvcc then
      Error
        "--shards > 1 on the memory backend requires --mvcc (cross-shard \
         scans need the shared-epoch cut); use --backend disk for plain \
         sharding"
    else Ok ()
  in
  Ok { backend; mvcc; shards; path; durable_acks = backend = `Disk }
