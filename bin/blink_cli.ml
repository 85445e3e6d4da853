(* blink-cli: drive the trees from the command line.

   Subcommands:
     run       multi-domain workload against a chosen tree implementation
     trace-gen generate an operation trace file
     trace-run replay a trace on every tree and cross-check
     compress  build / delete / compress cycle with occupancy reporting
     dump      print the structure of a small tree
     crash-test  fault-injection battery over the durable store
     serve     pipelined network server over a tree (TCP / Unix socket)
     client    scripted client session against a running server
     replica   WAL-shipping read replica of a running disk-backed server
     scan      pinned-snapshot consistent scan of a running --mvcc server
     backup    online backup of a running --mvcc server into a file
*)

open Cmdliner
open Repro_storage
open Repro_core
open Repro_baseline
open Repro_harness
module S = Sagiv.Make (Key.Int)
module C = Compress.Make (Key.Int)
module Co = Compactor.Make (Key.Int)
module V = Validate.Make (Key.Int)
module D = Dump.Make (Key.Int)

(* The same operation modules over the disk backend, for --backend disk. *)
module Co_disk = Compactor.Make_on_store (Key.Int) (Tree_intf.Paged_int)
module V_disk = Validate.Make_on_store (Key.Int) (Tree_intf.Paged_int)

let impl_of_name ~backend name =
  match (backend, name) with
  | "mem", "sagiv" -> Tree_intf.sagiv ()
  | "mem", "sagiv-compact" -> Tree_intf.sagiv ~enqueue_on_delete:true ()
  | "mem", "sagiv-mvcc" -> Tree_intf.sagiv_mvcc ()
  | "disk", "sagiv" -> Tree_intf.sagiv_disk ()
  | "disk", "sagiv-compact" -> Tree_intf.sagiv_disk ~enqueue_on_delete:true ()
  | "disk", s ->
      failwith (Printf.sprintf "tree %S has no disk backend (only sagiv does)" s)
  | "mem", "lehman-yao" | "mem", "ly" -> Tree_intf.lehman_yao
  | "mem", "lock-couple" | "mem", "lc" -> Tree_intf.lock_couple
  | "mem", "lc-optimistic" | "mem", "lco" -> Tree_intf.lock_couple_optimistic
  | "mem", "coarse" -> Tree_intf.coarse
  | "mem", s -> failwith (Printf.sprintf "unknown tree %S" s)
  | b, _ -> failwith (Printf.sprintf "unknown backend %S (mem or disk)" b)

let mix_of_name = function
  | "search" -> Workload.search_only
  | "insert" -> Workload.insert_only
  | "balanced" -> Workload.balanced
  | "read-mostly" -> Workload.read_mostly
  | "mixed" -> Workload.mixed_sid
  | "delete-heavy" -> Workload.delete_heavy
  | s -> failwith (Printf.sprintf "unknown mix %S" s)

let dist_of_name = function
  | "uniform" -> Repro_util.Distribution.Uniform
  | "zipf" -> Repro_util.Distribution.Zipfian 0.99
  | "sequential" -> Repro_util.Distribution.Sequential
  | "hotspot" -> Repro_util.Distribution.Hotspot { hot_fraction = 0.1; hot_probability = 0.9 }
  | s -> failwith (Printf.sprintf "unknown distribution %S" s)

(* -- run -- *)

(* Wrap a handle so every [every]-th completed mutation (a global
   counter: whichever worker crosses the boundary issues the call)
   triggers a durable commit — the CLI's --commit-every semantics. *)
let with_periodic_commit every (h : Tree_intf.handle) =
  if every <= 0 then h
  else begin
    let count = Atomic.make 0 in
    let bump () =
      if Atomic.fetch_and_add count 1 mod every = every - 1 then
        h.Tree_intf.commit ()
    in
    {
      h with
      Tree_intf.insert =
        (fun c k v ->
          let r = h.Tree_intf.insert c k v in
          bump ();
          r);
      delete =
        (fun c k ->
          let r = h.Tree_intf.delete c k in
          bump ();
          r);
    }
  end

(* Per-shard io lines next to the merged one: the skew observability
   surface (faults / commits / fsyncs / queue depth per shard). A
   durable MVCC serve passes each shard's version gauges ([mvcc]); the
   shards share one epoch, so the merged line counts its pins once. *)
let print_sharded_io ?mvcc sst =
  let per_shard = Tree_intf.Sharded_int.per_shard_io sst in
  Option.iter
    (fun trees ->
      Array.iteri
        (fun i io -> Stats.io_merge ~into:io (Tree_intf.Mvcc_disk.io_stats trees.(i)))
        per_shard)
    mvcc;
  Array.iteri (fun i io -> Printf.printf "io[s%d]: %s\n" i (Stats.io_to_string io)) per_shard;
  let merged = Stats.io_create () in
  Array.iter (fun io -> Stats.io_merge ~into:merged io) per_shard;
  Option.iter
    (fun trees ->
      merged.Stats.snap_pins <- (Tree_intf.Mvcc_disk.io_stats trees.(0)).Stats.snap_pins)
    mvcc;
  Printf.printf "io: %s\n" (Stats.io_to_string merged)

let run_cmd tree_name backend mix_name dist_name domains ops key_space preload order
    seed compactors validate latency commit_every shards zipf =
  if commit_every > 0 && backend <> "disk" then
    failwith "--commit-every requires --backend disk";
  if shards > 1 && backend <> "disk" then
    failwith "--shards requires --backend disk";
  let every = commit_every in
  let dist =
    match zipf with
    | Some theta -> Repro_util.Distribution.Zipfian theta
    | None -> dist_of_name dist_name
  in
  let dist_label = Repro_util.Distribution.kind_to_string dist in
  let impl = impl_of_name ~backend tree_name in
  let spec =
    Workload.spec ~op_mix:(mix_of_name mix_name) ~key_space ~dist ~preload ()
  in
  Printf.printf
    "tree=%s backend=%s mix=%s dist=%s domains=%d ops/domain=%d keyspace=%d preload=%d order=%d%s\n%!"
    impl.Tree_intf.impl_name backend mix_name dist_label domains ops key_space preload
    order
    ((if every > 0 then Printf.sprintf " commit-every=%d" every else "")
    ^ if shards > 1 then Printf.sprintf " shards=%d" shards else "");
  let needs_raw = compactors > 0 || validate in
  let sagiv = tree_name = "sagiv" || tree_name = "sagiv-compact" in
  if needs_raw && shards > 1 then
    failwith "--compactors/--validate are per-tree; not supported with --shards";
  if needs_raw && not sagiv then
    failwith "--compactors/--validate require a sagiv tree";
  let enqueue_on_delete = compactors > 0 || tree_name = "sagiv-compact" in
  (* A sagiv tree comes with its compaction run and its structural
     check, over the raw tree. Every disk run builds its store the way
     [serve] does: one memory-backed partition per shard, wrapped tree
     by tree; compaction and the check use shard 0, the only one. *)
  let sst, h, raw =
    if backend = "disk" then begin
      let sst =
        Tree_intf.Sharded_int.create_memory
          ~page_size:(Tree_intf.page_size_for_order order) ~shards ()
      in
      let trees, h = Tree_intf.sagiv_disk_sharded_on ~enqueue_on_delete ~order sst in
      let h = with_periodic_commit every h in
      ( Some sst,
        h,
        Some
          ( (fun () ->
              Driver.run_ops_with_workers h ~domains ~workers:compactors
                ~worker:(fun ~stop ctx -> Co_disk.run_worker trees.(0) ctx ~stop)
                ~ops_per_domain:ops ~seed spec),
            fun () -> V_disk.check trees.(0) ) )
    end
    else if sagiv then begin
      let t, h = Tree_intf.sagiv_raw ~enqueue_on_delete ~order () in
      ( None,
        h,
        Some
          ( (fun () ->
              Driver.run_ops_with_compaction t h ~domains ~compactors
                ~ops_per_domain:ops ~seed spec),
            fun () -> V.check t ) )
    end
    else (None, impl.Tree_intf.make ~order, None)
  in
  let n = Driver.preload h ~seed spec in
  Printf.printf "preloaded %d keys\n%!" n;
  let r, comp =
    match raw with
    | Some (run_with_compactors, _) when compactors > 0 -> run_with_compactors ()
    | _ ->
        ( Driver.run_ops ~measure_latency:latency h ~domains ~ops_per_domain:ops
            ~seed spec,
          Stats.create () )
  in
  Printf.printf "elapsed %.3fs, %s ops/s\n" r.Driver.elapsed_s
    (Report.fmt_si r.Driver.throughput);
  Printf.printf "workers:    %s\n" (Stats.to_string r.Driver.stats);
  (match r.Driver.latency with
  | Some h -> Printf.printf "latency:    %s\n" (Driver.percentiles_line h)
  | None -> ());
  if compactors > 0 then Printf.printf "compactors: %s\n" (Stats.to_string comp);
  Option.iter print_sharded_io sst;
  (match raw with
  | Some (_, check) when validate ->
      let rep = check () in
      if Validate.ok rep then
        Printf.printf "validate: OK (height=%d nodes=%d keys=%d)\n" rep.Validate.height
          rep.Validate.total_nodes rep.Validate.total_keys
      else begin
        Printf.printf "validate: FAILED\n";
        List.iter (fun e -> Printf.printf "  %s\n" e) rep.Validate.errors;
        exit 1
      end
  | _ -> ());
  Printf.printf "cardinal=%d height=%d\n" (h.Tree_intf.cardinal ()) (h.Tree_intf.height ())

(* -- compress -- *)

let compress_cmd n order keep_every mode =
  let enqueue = mode = "queue" in
  let t = S.create ~order ~enqueue_on_delete:enqueue () in
  let c = S.ctx ~slot:0 in
  for k = 1 to n do
    ignore (S.insert t c k k)
  done;
  let show label =
    let rep = V.check t in
    Printf.printf "%-28s height=%d nodes=%-6d keys=%-7d bytes=%s%s\n" label
      rep.Validate.height rep.Validate.total_nodes rep.Validate.total_keys
      (Report.fmt_bytes rep.Validate.encoded_bytes)
      (if Validate.ok rep then "" else "  INVALID!")
  in
  show "built:";
  for k = 1 to n do
    if k mod keep_every <> 0 then ignore (S.delete t c k)
  done;
  show "after deletes:";
  (match mode with
  | "scan" ->
      let passes = C.compress_to_fixpoint t c in
      Printf.printf "scan compression: %d passes\n" passes
  | "queue" -> (
      match Co.run_until_empty t c with
      | `Drained -> Printf.printf "queue drained (merges=%d)\n" c.Handle.stats.Stats.merges
      | `Step_limit -> Printf.printf "step limit hit\n")
  | m -> failwith ("unknown mode " ^ m));
  let freed = S.reclaim t in
  Printf.printf "reclaimed %d pages\n" freed;
  show "after compression:"

(* -- dump -- *)

let dump_cmd n order =
  let t = S.create ~order () in
  let c = S.ctx ~slot:0 in
  for k = 1 to n do
    ignore (S.insert t c k (k * 10))
  done;
  D.print t

(* -- crash-test: fault-injection battery -- *)

let crash_test_cmd quick verbose shards =
  let log = if verbose then Some (fun s -> Printf.printf "%s\n%!" s) else None in
  Printf.printf
    "crash battery (%s, %d shards): simulated crashes at every failpoint site...\n%!"
    (if quick then "quick" else "full")
    shards;
  match Crash.battery ~quick ~shards ?log () with
  | exception Failure msg ->
      Printf.printf "crash battery FAILED: %s\n" msg;
      exit 1
  | outcomes ->
      List.iter (fun o -> Printf.printf "  %s\n" (Crash.pp_outcome o)) outcomes;
      let crashed = List.length (List.filter (fun o -> o.Crash.crashed) outcomes) in
      Printf.printf "%d runs, %d crashed, all recovered to the oracle\n" (List.length outcomes)
        crashed;
      (match Failpoint.unexercised () with
      | [] -> Printf.printf "all %d failpoint sites exercised\n" (List.length (Failpoint.registered ()))
      | dead ->
          Printf.printf "FAILED: sites registered but never exercised: %s\n"
            (String.concat ", " dead);
          exit 1)

(* -- trace: record and replay -- *)

let trace_gen_cmd path mix_name dist_name ops key_space seed =
  let spec =
    Workload.spec ~op_mix:(mix_of_name mix_name) ~key_space
      ~dist:(dist_of_name dist_name) ()
  in
  let ops_list = Trace.generate ~seed ~ops spec in
  Trace.save path ops_list;
  Printf.printf "wrote %d operations to %s\n" (List.length ops_list) path

let trace_run_cmd path order =
  let ops = Trace.load path in
  Printf.printf "replaying %d operations from %s on every tree:\n" (List.length ops) path;
  let results =
    List.map
      (fun (impl : Tree_intf.impl) ->
        let h = impl.Tree_intf.make ~order in
        let c = Handle.ctx ~slot:0 in
        let t0 = Repro_util.Clock.now () in
        let ins, del, found = Trace.replay h c ops in
        let dt = Repro_util.Clock.now () -. t0 in
        Printf.printf "  %-14s %.3fs  inserted=%d deleted=%d hits=%d cardinal=%d\n"
          impl.Tree_intf.impl_name dt ins del found
          (h.Tree_intf.cardinal ());
        (ins, del, found, h.Tree_intf.cardinal ()))
      Tree_intf.all
  in
  match results with
  | first :: rest when List.for_all (( = ) first) rest ->
      Printf.printf "all trees agree\n"
  | _ ->
      Printf.printf "TREES DISAGREE\n";
      exit 1

(* -- serve / client -- *)

let string_of_sockaddr = function
  | Unix.ADDR_UNIX p -> Printf.sprintf "unix:%s" p
  | Unix.ADDR_INET (a, p) ->
      Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr a) p

let serve_cmd tree_name backend order workers port unix_path shards
    mvcc path =
  let cfg =
    match
      Repro_server.Serve_config.validate ~tree:tree_name ~backend ~shards ~mvcc
        ~path
    with
    | Ok c -> c
    | Error msg -> failwith msg
  in
  (* File-backed disk serves open-or-create through the partition layer
     (an unsharded store is one partition); a reopen recovers every
     shard — WAL replay included — before the listener comes up. *)
  let reopening =
    match path with
    | Some p -> Sys.file_exists (Tree_intf.Sharded_int.shard_path p 0)
    | None -> false
  in
  (* A new store's page is sized to hold a full node of [order]; a
     reopened one keeps the page size its header records. *)
  let page_size = Tree_intf.page_size_for_order order in
  let sst, mvcc_trees, h =
    if backend = "disk" then begin
      (* every disk serve goes through the partition layer (an unsharded
         store is one partition), in memory or file-backed; durable MVCC
         persists its version chains through the same paged stores as
         the tree (one WAL, one group commit per shard), so SNAPSHOT
         sessions and consistent scans survive kill -9 and a reopen
         picks every chain back up *)
      let sst =
        match path with
        | None ->
            Tree_intf.Sharded_int.create_memory ~page_size ~shards ()
        | Some p when reopening ->
            Tree_intf.Sharded_int.open_file ~shards p
        | Some p ->
            Tree_intf.Sharded_int.create_file ~page_size ~shards p
      in
      if mvcc then
        let trees, h =
          if reopening then Tree_intf.sagiv_mvcc_disk_open sst
          else Tree_intf.sagiv_mvcc_disk_on ~order sst
        in
        (Some sst, Some trees, h)
      else
        let _trees, h =
          if reopening then Tree_intf.sagiv_disk_sharded_open sst
          else Tree_intf.sagiv_disk_sharded_on ~order sst
        in
        (Some sst, None, h)
    end
    else if mvcc then begin
      (* version-stamped memory backend: SNAPSHOT sessions and
         per-request consistent RANGE cuts; sharded composition shares
         one epoch *)
      let impl =
        if shards > 1 then Tree_intf.sagiv_mvcc_sharded ~shards ()
        else Tree_intf.sagiv_mvcc ()
      in
      (None, None, impl.Tree_intf.make ~order)
    end
    else
      let impl = impl_of_name ~backend tree_name in
      (None, None, impl.Tree_intf.make ~order)
  in
  let listen =
    (if port >= 0 then [ Unix.ADDR_INET (Unix.inet_addr_loopback, port) ]
     else [])
    @ match unix_path with Some p -> [ Unix.ADDR_UNIX p ] | None -> []
  in
  if listen = [] then failwith "nothing to listen on (--port and/or --unix)";
  (* acks are durable exactly when the backend can group-commit them *)
  let srv =
    Repro_server.Server.start ~workers
      ~durable_acks:cfg.Repro_server.Serve_config.durable_acks ~handle:h
      ~listen ()
  in
  List.iter
    (fun a -> Printf.printf "listening on %s\n%!" (string_of_sockaddr a))
    (Repro_server.Server.addresses srv);
  Printf.printf "tree=%s backend=%s workers=%d%s%s%s%s (ctrl-C stops)\n%!"
    h.Tree_intf.name backend workers
    (if shards > 1 then Printf.sprintf " shards=%d" shards else "")
    (match h.Tree_intf.log with Some _ -> " replication=on" | None -> "")
    (if mvcc then " mvcc=on" else "")
    (match path with
    | Some p -> Printf.sprintf " path=%s%s" p (if reopening then " (reopened)" else "")
    | None -> "");
  let stop = Atomic.make false in
  let on_signal _ = Atomic.set stop true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  while not (Atomic.get stop) do
    Unix.sleepf 0.2
  done;
  Printf.printf "\nshutting down...\n%!";
  Repro_server.Server.stop srv;
  h.Tree_intf.commit ();
  Printf.printf "%s\n"
    (Stats.server_to_string (Repro_server.Server.stats srv));
  (match sst with Some sst -> print_sharded_io ?mvcc:mvcc_trees sst | None -> ());
  (match h.Tree_intf.mvcc with
  | Some m ->
      let g = m.Tree_intf.gauges () in
      Printf.printf "mvcc: min_pinned=%s pins=%d versions=%d pruned=%d gc_pending=%d\n"
        (if g.Tree_intf.g_min_pinned = max_int then "none"
         else string_of_int g.Tree_intf.g_min_pinned)
        g.Tree_intf.g_snap_pins g.Tree_intf.g_live_versions
        g.Tree_intf.g_pruned_versions g.Tree_intf.g_gc_pending
  | None -> ());
  Printf.printf "cardinal=%d height=%d\n" (h.Tree_intf.cardinal ())
    (h.Tree_intf.height ());
  (* file-backed stores take a final checkpoint so the next open needs
     no WAL replay (a crash before this point recovers from the log) *)
  (match (sst, path) with
  | Some sst, Some _ -> Tree_intf.Sharded_int.close sst
  | _ -> ());
  (match unix_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ())

let parse_request line =
  let module P = Repro_server.Protocol in
  match
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  with
  | [] -> None
  | [ "insert"; k; v ] ->
      Some (P.Insert { key = int_of_string k; value = int_of_string v })
  | [ "delete"; k ] -> Some (P.Delete { key = int_of_string k })
  | [ "search"; k ] -> Some (P.Search { key = int_of_string k })
  | [ "range"; lo; hi ] ->
      Some (P.Range { lo = int_of_string lo; hi = int_of_string hi })
  | [ "commit" ] -> Some P.Commit
  | [ "stats" ] -> Some P.Stats
  | [ "snapshot" ] -> Some (P.Snapshot { close = false })
  | [ "snapshot-close" ] -> Some (P.Snapshot { close = true })
  | w :: _ -> failwith (Printf.sprintf "unknown command %S" w)

let client_cmd host port unix_path script =
  let module P = Repro_server.Protocol in
  let addr =
    match unix_path with
    | Some p -> Unix.ADDR_UNIX p
    | None -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  in
  let lines =
    if script <> [] then script
    else begin
      (* read the session from stdin, one command per line *)
      let acc = ref [] in
      (try
         while true do
           acc := input_line stdin :: !acc
         done
       with End_of_file -> ());
      List.rev !acc
    end
  in
  let reqs = List.filter_map parse_request lines in
  if reqs = [] then failwith "empty session (commands on argv or stdin)";
  let c = Repro_client.Client.connect addr in
  Fun.protect
    ~finally:(fun () -> Repro_client.Client.close c)
    (fun () ->
      (* the whole script goes out as one pipelined batch *)
      let resps = Repro_client.Client.pipeline c reqs in
      List.iter2
        (fun req resp ->
          Format.printf "%a -> %a@." P.pp_request req P.pp_response resp)
        reqs resps;
      if List.exists (function P.Error _ -> true | _ -> false) resps then
        exit 1)

(* -- scan / backup: pinned-snapshot reads of a running --mvcc server -- *)

let with_session ~host ~port ~unix_path f =
  let addr =
    match unix_path with
    | Some p -> Unix.ADDR_UNIX p
    | None -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  in
  let c = Repro_client.Client.connect addr in
  Fun.protect ~finally:(fun () -> Repro_client.Client.close c) (fun () -> f c)

(* One pinned chunked sweep: SNAPSHOT open, windowed RANGEs — all
   answered at the same cut because the session pin outlives every
   window — then SNAPSHOT close. Chunking bounds reply frames, not
   consistency: concurrent writers never tear the result. *)
let pinned_sweep c ~lo ~hi ~chunk =
  let module Cl = Repro_client.Client in
  let epoch = Cl.snapshot_open c in
  Fun.protect
    ~finally:(fun () -> try Cl.snapshot_close c with _ -> ())
    (fun () ->
      let rec go wlo acc =
        if wlo > hi then acc
        else begin
          let whi = if hi - wlo >= chunk then wlo + chunk - 1 else hi in
          let acc = List.rev_append (Cl.range c ~lo:wlo ~hi:whi) acc in
          if whi >= hi then acc else go (whi + 1) acc
        end
      in
      (epoch, List.rev (go lo [])))

let scan_cmd host port unix_path lo hi chunk =
  try
    with_session ~host ~port ~unix_path (fun c ->
        let epoch, pairs = pinned_sweep c ~lo ~hi ~chunk in
        List.iter (fun (k, v) -> Printf.printf "%d %d\n" k v) pairs;
        Printf.eprintf "scanned %d pairs at epoch %d (keys %d..%d)\n%!"
          (List.length pairs) epoch lo hi)
  with Repro_client.Client.Remote_error msg ->
    Printf.eprintf "server refused: %s\n%!" msg;
    exit 1

let backup_cmd host port unix_path out lo hi chunk =
  try
    with_session ~host ~port ~unix_path (fun c ->
        let epoch, pairs = pinned_sweep c ~lo ~hi ~chunk in
        let oc = open_out out in
        Printf.fprintf oc "# blink-backup epoch=%d pairs=%d lo=%d hi=%d\n" epoch
          (List.length pairs) lo hi;
        List.iter (fun (k, v) -> Printf.fprintf oc "%d %d\n" k v) pairs;
        close_out oc;
        Printf.printf "backed up %d pairs at epoch %d to %s\n%!"
          (List.length pairs) epoch out)
  with Repro_client.Client.Remote_error msg ->
    Printf.eprintf "server refused: %s\n%!" msg;
    exit 1

(* -- replica: WAL-shipping follower -- *)

let replica_cmd host port unix_path shard serve_port workers poll_ms once
    promote_flag dump =
  let module R = Repro_client.Replica in
  let addr =
    match unix_path with
    | Some p -> Unix.ADDR_UNIX p
    | None -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  in
  let r = R.create ~shard () in
  (* the replica is servable from the start: read-only at its replay
     horizon, read-write after promotion *)
  let srv =
    if serve_port < 0 then None
    else begin
      let srv =
        Repro_server.Server.start ~workers ~durable_acks:false
          ~handle:(R.handle r)
          ~listen:[ Unix.ADDR_INET (Unix.inet_addr_loopback, serve_port) ]
          ()
      in
      List.iter
        (fun a ->
          Printf.printf "replica listening on %s\n%!" (string_of_sockaddr a))
        (Repro_server.Server.addresses srv);
      Some srv
    end
  in
  let stop = Atomic.make false in
  let on_signal _ = Atomic.set stop true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Printf.printf "replicating shard %d from %s%s%s\n%!" shard
    (string_of_sockaddr addr)
    (if promote_flag then " (promote on disconnect)" else "")
    (if once then " (once)" else "");
  let client = ref (Some (Repro_client.Client.connect addr)) in
  let was_caught_up = ref false in
  (* pull loop: long-poll the primary; a broken connection ends it *)
  (try
     while (not (Atomic.get stop)) && !client <> None do
       match !client with
       | None -> ()
       | Some c -> (
           match R.poll ~wait_ms:poll_ms r c with
           | `Applied n ->
               was_caught_up := false;
               Printf.printf "applied %d batch%s (horizon lsn %d, %d keys)\n%!"
                 n
                 (if n = 1 then "" else "es")
                 (R.horizon r) (R.cardinal r)
           | `Caught_up ->
               if not !was_caught_up then
                 Printf.printf "caught up (horizon lsn %d, %d keys)\n%!"
                   (R.horizon r) (R.cardinal r);
               was_caught_up := true;
               if once then begin
                 (match !client with
                 | Some c -> Repro_client.Client.close c
                 | None -> ());
                 client := None
               end
           | exception (End_of_file | Unix.Unix_error _) ->
               Printf.printf "primary connection lost\n%!";
               (match !client with
               | Some c -> ( try Repro_client.Client.close c with _ -> ())
               | None -> ());
               client := None)
     done
   with
  | R.Stream_error msg ->
      Printf.printf "stream error: %s — re-seed the replica\n%!" msg;
      exit 1
  | Repro_client.Client.Remote_error msg ->
      Printf.printf "primary refused: %s\n%!" msg;
      exit 1);
  (match !client with
  | Some c -> ( try Repro_client.Client.close c with _ -> ())
  | None -> ());
  if promote_flag && not once then begin
    R.promote r;
    Printf.printf "promoted: read-write at horizon lsn %d (%d keys, height %d)\n%!"
      (R.horizon r) (R.cardinal r) (R.height r);
    (* keep serving the promoted tree until signalled *)
    if srv <> None then
      while not (Atomic.get stop) do
        Unix.sleepf 0.2
      done
  end;
  (match srv with Some srv -> Repro_server.Server.stop srv | None -> ());
  (* every live pair at the replay horizon, in the lines [scan] prints *)
  Option.iter
    (fun path ->
      let oc = open_out path in
      List.iter
        (fun (k, v) -> Printf.fprintf oc "%d %d\n" k v)
        (R.range r (Repro_core.Handle.ctx ~slot:0) ~lo:min_int ~hi:max_int);
      close_out oc)
    dump;
  Printf.printf "replica done: %d batches applied, horizon lsn %d, cardinal=%d\n%!"
    (R.batches r) (R.horizon r) (R.cardinal r)

(* -- cmdliner plumbing -- *)

let tree_arg =
  Arg.(value & opt string "sagiv"
       & info [ "tree"; "t" ] ~docv:"TREE"
           ~doc:"Tree: sagiv, sagiv-compact, lehman-yao, lock-couple, lc-optimistic, coarse.")

let backend_arg =
  Arg.(value & opt string "mem"
       & info [ "backend"; "b" ] ~docv:"BACKEND"
           ~doc:"Page store backend: mem (in-memory store) or disk \
                 (paged store; sagiv trees only).")

let mix_arg =
  Arg.(value & opt string "balanced"
       & info [ "mix"; "m" ] ~docv:"MIX"
           ~doc:"Mix: search, insert, balanced, read-mostly, mixed, delete-heavy.")

let dist_arg =
  Arg.(value & opt string "uniform"
       & info [ "dist" ] ~docv:"DIST" ~doc:"Distribution: uniform, zipf, sequential, hotspot.")

let domains_arg =
  Arg.(value & opt int 4 & info [ "domains"; "d" ] ~docv:"N" ~doc:"Worker domains.")

let ops_arg =
  Arg.(value & opt int 100_000 & info [ "ops"; "n" ] ~docv:"N" ~doc:"Operations per domain.")

let space_arg =
  Arg.(value & opt int 200_000 & info [ "keyspace" ] ~docv:"N" ~doc:"Key space size.")

let preload_arg =
  Arg.(value & opt int 100_000 & info [ "preload" ] ~docv:"N" ~doc:"Keys preloaded.")

let order_arg =
  Arg.(value & opt int 16 & info [ "order"; "k" ] ~docv:"K" ~doc:"Min pairs per node (cap 2K).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let compactors_arg =
  Arg.(value & opt int 0 & info [ "compactors" ] ~docv:"N" ~doc:"Background compactor domains (sagiv only).")

let validate_arg =
  Arg.(value & flag & info [ "validate" ] ~doc:"Check structural invariants afterwards (sagiv only).")

let latency_arg =
  Arg.(value & flag & info [ "latency" ] ~doc:"Measure per-operation latency percentiles.")

let commit_every_arg =
  Arg.(value & opt int 0
       & info [ "commit-every" ] ~docv:"N"
           ~doc:"Disk backend: durable group commit every N completed \
                 mutations (0 = never).")

let shards_arg =
  Arg.(value & opt int 1
       & info [ "shards" ] ~docv:"N"
           ~doc:"Partition the keyspace into N independent store+WAL shards \
                 (deterministic hash routing; disk backend only).")

let zipf_arg =
  Arg.(value & opt (some float) None
       & info [ "zipf" ] ~docv:"THETA"
           ~doc:"Zipfian key skew with exponent THETA (overrides --dist).")

let run_t =
  Term.(
    const run_cmd $ tree_arg $ backend_arg $ mix_arg $ dist_arg $ domains_arg $ ops_arg
    $ space_arg $ preload_arg $ order_arg $ seed_arg $ compactors_arg $ validate_arg
    $ latency_arg $ commit_every_arg $ shards_arg $ zipf_arg)

let n_arg = Arg.(value & opt int 100_000 & info [ "n" ] ~docv:"N" ~doc:"Number of keys.")

let keep_arg =
  Arg.(value & opt int 5 & info [ "keep-every" ] ~docv:"M" ~doc:"Keep every M-th key; delete the rest.")

let mode_arg =
  Arg.(value & opt string "scan" & info [ "mode" ] ~docv:"MODE" ~doc:"Compression mode: scan or queue.")

let compress_t = Term.(const compress_cmd $ n_arg $ order_arg $ keep_arg $ mode_arg)

let dump_n_arg = Arg.(value & opt int 50 & info [ "n" ] ~docv:"N" ~doc:"Number of keys.")
let dump_order_arg = Arg.(value & opt int 2 & info [ "order"; "k" ] ~docv:"K" ~doc:"Order.")
let dump_t = Term.(const dump_cmd $ dump_n_arg $ dump_order_arg)

let trace_path_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace file.")

let trace_gen_t =
  Term.(const trace_gen_cmd $ trace_path_arg $ mix_arg $ dist_arg $ ops_arg $ space_arg $ seed_arg)

let trace_run_t = Term.(const trace_run_cmd $ trace_path_arg $ order_arg)

let quick_arg =
  Arg.(value & flag
       & info [ "quick" ]
           ~doc:"Fewer configurations and crash ordinals (the CI smoke setting).")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log each run as it happens.")

let crash_shards_arg =
  Arg.(value & opt int 4
       & info [ "shards" ] ~docv:"N"
           ~doc:"Shard count for the sharded crash sweeps (1 skips them).")

let crash_test_t =
  Term.(const crash_test_cmd $ quick_arg $ verbose_arg $ crash_shards_arg)

let workers_arg =
  Arg.(value & opt int 4
       & info [ "workers" ] ~docv:"N"
           ~doc:"Server worker domains (bounds concurrently served connections).")

let port_arg =
  Arg.(value & opt int 7070
       & info [ "port"; "p" ] ~docv:"PORT"
           ~doc:"TCP port on 127.0.0.1 (0 picks one; -1 disables TCP).")

let unix_arg =
  Arg.(value & opt (some string) None
       & info [ "unix" ] ~docv:"PATH" ~doc:"Also listen on a Unix-domain socket.")

let mvcc_arg =
  Arg.(value & flag
       & info [ "mvcc" ]
           ~doc:"Serve the version-stamped sagiv-mvcc backend: SNAPSHOT \
                 sessions pin a consistent cut, and every RANGE is answered \
                 at a point-in-time epoch even without a session. Composes \
                 with --shards (one epoch across all shards) and with \
                 --backend disk, where the version chains persist through \
                 the paged store and survive crash recovery.")

let serve_path_arg =
  Arg.(value & opt (some string) None
       & info [ "path" ] ~docv:"PATH"
           ~doc:"File-backed store base path (requires --backend disk; shard \
                 i lives at PATH.si, its log at PATH.wal.si). Opens an \
                 existing store — recovering from its WAL — or creates a \
                 fresh one.")

let serve_t =
  Term.(
    const serve_cmd $ tree_arg $ backend_arg $ order_arg $ workers_arg $ port_arg $ unix_arg $ shards_arg
    $ mvcc_arg $ serve_path_arg)

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"HOST" ~doc:"Server address.")

let script_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"CMD"
           ~doc:"Session commands (else read from stdin, one per line): \
                 'insert K V', 'delete K', 'search K', 'range LO HI', \
                 'commit', 'stats', 'snapshot', 'snapshot-close'.")

let client_t = Term.(const client_cmd $ host_arg $ port_arg $ unix_arg $ script_arg)

let scan_lo_arg =
  Arg.(value & opt int 0 & info [ "lo" ] ~docv:"K" ~doc:"Lowest key to cover.")

let scan_hi_arg =
  Arg.(value & opt int 1_000_000
       & info [ "hi" ] ~docv:"K" ~doc:"Highest key to cover (inclusive).")

let scan_chunk_arg =
  Arg.(value & opt int 32_768
       & info [ "chunk" ] ~docv:"N"
           ~doc:"Key-window width per RANGE request (bounds frame sizes; the \
                 session pin keeps every window at the same cut).")

let scan_t =
  Term.(
    const scan_cmd $ host_arg $ port_arg $ unix_arg $ scan_lo_arg $ scan_hi_arg
    $ scan_chunk_arg)

let backup_out_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"FILE" ~doc:"Backup file to write ('key value' lines).")

let backup_t =
  Term.(
    const backup_cmd $ host_arg $ port_arg $ unix_arg $ backup_out_arg
    $ scan_lo_arg $ scan_hi_arg $ scan_chunk_arg)

let replica_shard_arg =
  Arg.(value & opt int 0
       & info [ "shard" ] ~docv:"S"
           ~doc:"Primary shard to follow (one replica process per shard).")

let replica_serve_arg =
  Arg.(value & opt int (-1)
       & info [ "serve-port" ] ~docv:"PORT"
           ~doc:"Also serve the replica on this TCP port (127.0.0.1): \
                 read-only at the replay horizon, read-write after \
                 promotion. -1 disables.")

let replica_poll_arg =
  Arg.(value & opt int 300
       & info [ "poll-ms" ] ~docv:"MS"
           ~doc:"Long-poll window per pull when caught up.")

let replica_once_arg =
  Arg.(value & flag
       & info [ "once" ]
           ~doc:"Catch up to the primary's durable horizon, report, and exit \
                 (no promotion).")

let replica_promote_arg =
  Arg.(value & flag
       & info [ "promote" ]
           ~doc:"When the primary connection is lost (or on ctrl-C), promote \
                 the replica read-write at its replay horizon and keep \
                 serving.")

let replica_dump_arg =
  Arg.(value & opt (some string) None
       & info [ "dump" ] ~docv:"FILE"
           ~doc:"On exit, write every live pair at the replay horizon to FILE \
                 as 'key value' lines in key order (what scan prints).")

let replica_t =
  Term.(
    const replica_cmd $ host_arg $ port_arg $ unix_arg $ replica_shard_arg
    $ replica_serve_arg $ workers_arg $ replica_poll_arg $ replica_once_arg
    $ replica_promote_arg $ replica_dump_arg)

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Run a multi-domain workload") run_t;
    Cmd.v (Cmd.info "trace-gen" ~doc:"Generate an operation trace file") trace_gen_t;
    Cmd.v
      (Cmd.info "trace-run" ~doc:"Replay a trace on every tree and cross-check")
      trace_run_t;
    Cmd.v (Cmd.info "compress" ~doc:"Build/delete/compress cycle") compress_t;
    Cmd.v (Cmd.info "dump" ~doc:"Print a small tree's structure") dump_t;
    Cmd.v
      (Cmd.info "crash-test"
         ~doc:"Fault-injection battery: crash at every failpoint site, recover, \
               check against the durability oracle")
      crash_test_t;
    Cmd.v
      (Cmd.info "serve"
         ~doc:"Serve a tree over TCP / Unix sockets (pipelined binary protocol; \
               on the disk backend every acked write is durably committed)")
      serve_t;
    Cmd.v
      (Cmd.info "client" ~doc:"Run a scripted pipelined session against a server")
      client_t;
    Cmd.v
      (Cmd.info "scan"
         ~doc:"Consistent scan of a running --mvcc server: pin a SNAPSHOT \
               session, pull chunked ranges all at that cut, print the pairs")
      scan_t;
    Cmd.v
      (Cmd.info "backup"
         ~doc:"Online backup of a running --mvcc server into a file — one \
               point-in-time cut, zero writer stalls")
      backup_t;
    Cmd.v
      (Cmd.info "replica"
         ~doc:"Follow a disk-backed server as a read replica (pull the log over \
               the Subscribe opcode, serve reads at the replay horizon, \
               optionally promote to read-write when the primary is gone)")
      replica_t;
  ]

let () =
  let doc = "Concurrent B*-tree with overtaking (Sagiv 1985) — workload driver" in
  exit (Cmd.eval (Cmd.group (Cmd.info "blink-cli" ~doc) cmds))
