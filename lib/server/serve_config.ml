(** The serve command's backend compatibility matrix, as one total
    function instead of a pile of ad-hoc guards. Every flag combination
    resolves to either a coherent configuration or a single actionable
    error — the CLI applies it verbatim and the tests enumerate it.

    The matrix (disk always logs: group commit + replication):

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

let validate ~backend ~shards ~mvcc ~path =
  let ( let* ) = Result.bind in
  let* backend =
    match backend with
    | "mem" -> Ok `Mem
    | "disk" -> Ok `Disk
    | s -> Error (Printf.sprintf "unknown backend %S (mem or disk)" s)
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
