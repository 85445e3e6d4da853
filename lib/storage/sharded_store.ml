(** Keyspace partition layer: N fully independent {!Paged_store}
    instances — each with its own node cache, free list, IO stripes,
    commit mutex, group-commit leader, checkpoint and recovery replay — managed as one unit. Nothing is shared between
    shards, so group commits on different shards fsync different log
    devices concurrently, and reopen recovers every shard in parallel
    (one domain per shard).

    Routing is {e not} this module's job: keys are assigned to shards by
    {!Shard_router} at the tree layer ([Tree_intf]'s sharded handle),
    which keeps this module generic over the key type. What this module
    does own is the partition {e identity}: shard [i] of [N] is created
    with [~shard:(i, N)], the identity lands in every header the store
    writes, and reopen passes [~expect_shard] so a store created under a
    different shard count refuses to open ({!Paged_store.Shard_mismatch})
    instead of silently misrouting every key.

    Shutdown is idempotent and exception-safe: every shard's final
    checkpoint and file close is attempted even when an earlier shard
    fails, and the first failure is re-raised once the sweep completes —
    one shard's bad device never leaves another shard unsynced. *)

module Make (K : Key.S) (P : module type of Paged_store.Make (K)) = struct
  type t = {
    stores : P.t array;
    close_mu : Mutex.t;
    mutable closed : bool;
  }

  let count t = Array.length t.stores
  let store t i = t.stores.(i)
  let stores t = t.stores

  (* On-disk layout: shard [i]'s data file is [path.s<i>], its log
     device [wal_path.s<i>] — one suffix scheme for every shard count,
     so a 1-shard store round-trips through the same paths. *)
  let shard_path path i = Printf.sprintf "%s.s%d" path i

  let wrap stores = { stores; close_mu = Mutex.create (); closed = false }

  let create_memory ?page_size ?cache_pages ?stripes ?commit_interval
      ?commit_batch ~shards () =
    if shards < 1 then invalid_arg "Sharded_store: shards must be >= 1";
    wrap
      (Array.init shards (fun i ->
           P.create_memory ~shard:(i, shards) ?page_size ?cache_pages ?stripes
             ?commit_interval ?commit_batch ()))

  let create_file ?page_size ?cache_pages ?stripes ?commit_interval
      ?commit_batch ?wal_path ~shards path =
    if shards < 1 then invalid_arg "Sharded_store: shards must be >= 1";
    let wal_path = Option.value wal_path ~default:(path ^ ".wal") in
    wrap
      (Array.init shards (fun i ->
           P.create_file ~shard:(i, shards) ?page_size ?cache_pages ?stripes
             ?commit_interval ?commit_batch ~wal_path:(shard_path wal_path i)
             (shard_path path i)))

  (* Reopen every shard in parallel — recovery replay is the expensive
     part (log scan + image install), and the shards' devices are
     disjoint, so one domain per shard recovers in the time of the
     slowest shard. A shard that fails to open (corrupt, shard-count
     mismatch) fails the whole open: the shards that did open are
     closed before the error propagates, so nothing leaks. *)
  let open_file ?cache_pages ?stripes ?commit_interval ?commit_batch
      ?wal_path ~shards path =
    if shards < 1 then invalid_arg "Sharded_store: shards must be >= 1";
    let wal_path = Option.value wal_path ~default:(path ^ ".wal") in
    let doms =
      Array.init shards (fun i ->
          Domain.spawn (fun () ->
              P.open_file ~expect_shard:(i, shards) ?cache_pages ?stripes
                ?commit_interval ?commit_batch ~wal_path:(shard_path wal_path i)
                (shard_path path i)))
    in
    let results =
      Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) doms
    in
    match
      Array.fold_left
        (fun first -> function Error e when first = None -> Some e | _ -> first)
        None results
    with
    | None ->
        wrap
          (Array.map (function Ok s -> s | Error _ -> assert false) results)
    | Some e ->
        Array.iter
          (function Ok s -> (try P.close s with _ -> ()) | Error _ -> ())
          results;
        raise e

  (* ---------- durability ---------- *)

  let commit_shard t i = P.commit t.stores.(i)
  let commit_all t = Array.iter P.commit t.stores

  (* Quiescent checkpoint of every shard (each [sync] writes back, flips
     the shard's header, truncates its log). *)
  let sync_all t = Array.iter P.sync t.stores

  (* ---------- shutdown ---------- *)

  (* Visit every shard even when one fails; first failure re-raises
     after the sweep so no other shard is left unclosed behind an
     exception. *)
  let iter_protected f stores =
    let first = ref None in
    Array.iter
      (fun s -> try f s with e -> if !first = None then first := Some e)
      stores;
    match !first with Some e -> raise e | None -> ()

  let close t =
    Mutex.lock t.close_mu;
    let already = t.closed in
    t.closed <- true;
    Mutex.unlock t.close_mu;
    if not already then iter_protected P.close t.stores

  (* ---------- introspection ---------- *)

  let per_shard_io t = Array.map P.io_stats t.stores

  let io_stats t =
    let acc = Stats.io_create () in
    Array.iter (fun s -> Stats.io_merge ~into:acc (P.io_stats s)) t.stores;
    acc

  let generations t = Array.map P.generation t.stores
end
