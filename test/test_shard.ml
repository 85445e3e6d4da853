(* The keyspace partition layer: router determinism (golden values pin
   the hash across processes and restarts), chi-squared routing balance
   over uniform and Zipf key streams, the on-disk shard-identity check
   on reopen, the routed sharded handle against a model oracle, and a
   sharded server session with per-shard ack accounting. *)

open Repro_storage
open Repro_baseline
module PS = Tree_intf.Paged_int
module SS = Tree_intf.Sharded_int
module P = Repro_server.Protocol
module Server = Repro_server.Server
module C = Repro_client.Client

(* ---------- router determinism ---------- *)

(* Golden values: the router is a pure splitmix64 finalizer, so these
   must hold in every process, on every run, across reopens — the
   property the on-disk shard headers rely on. A change to the hash is a
   breaking format change and must fail here. *)
let test_router_golden () =
  List.iter
    (fun (k, expect_mix) ->
      Alcotest.(check int)
        (Printf.sprintf "mix %d" k)
        expect_mix (Shard_router.mix k))
    [
      (0, 0);
      (1, -2152535657050944081);
      (2, -1263085514660420108);
      (42, 1391454601869358542);
      (1000, 1504391059752320062);
      (-1, 3703370420611038912);
      (123456789, 2022186977861948004);
      (-987654321, 1111743019110873981);
    ];
  List.iter
    (fun (k, s4, s8) ->
      Alcotest.(check int)
        (Printf.sprintf "shard_of 4 %d" k)
        s4
        (Shard_router.shard_of ~shards:4 k);
      Alcotest.(check int)
        (Printf.sprintf "shard_of 8 %d" k)
        s8
        (Shard_router.shard_of ~shards:8 k))
    [
      (0, 0, 0);
      (1, 3, 7);
      (2, 0, 4);
      (42, 2, 6);
      (1000, 2, 6);
      (-1, 0, 0);
      (123456789, 0, 4);
      (-987654321, 1, 5);
    ];
  (* single shard short-circuits; invalid counts refuse *)
  Alcotest.(check int) "1 shard" 0 (Shard_router.shard_of ~shards:1 12345);
  (match Shard_router.shard_of ~shards:0 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards=0 accepted")

let test_router_range () =
  for k = -1000 to 1000 do
    let s = Shard_router.shard_of ~shards:7 k in
    if s < 0 || s >= 7 then Alcotest.failf "key %d routed to shard %d" k s
  done

(* ---------- routing balance ---------- *)

let chi2 ~shards keys =
  let counts = Array.make shards 0 in
  let n = ref 0 in
  List.iter
    (fun k ->
      let s = Shard_router.shard_of ~shards k in
      counts.(s) <- counts.(s) + 1;
      incr n)
    keys;
  let expect = float_of_int !n /. float_of_int shards in
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. expect in
      acc +. (d *. d /. expect))
    0.0 counts

(* Uniform key stream: chi-squared against the uniform expectation must
   sit far below the 0.001 critical value (deterministic inputs, so any
   excess is a real balance defect, not noise). *)
let test_balance_uniform () =
  let keys = List.init 100_000 (fun i -> i) in
  let c4 = chi2 ~shards:4 keys in
  let c8 = chi2 ~shards:8 keys in
  if c4 > 20.0 then Alcotest.failf "uniform/4: chi2 %.2f (df 3)" c4;
  if c8 > 30.0 then Alcotest.failf "uniform/8: chi2 %.2f (df 7)" c8

(* Zipf stream (the hot-key workload the benches sweep): the distinct
   keys drawn must still spread evenly — routing is on key identity, so
   skew in reference frequency must not translate into skew of the key
   population. The raw stream concentrates on its hottest ranks, so for
   it we only bound the hottest shard's share: one shard owns rank 1
   (~10% of references at s≈1), so fair routing keeps every share under
   1/shards + the few hottest ranks' mass. *)
let test_balance_zipf () =
  let rng = Repro_util.Splitmix.create 90210 in
  let z = Repro_util.Zipf.create ~n:100_000 ~exponent:0.99 in
  let stream = List.init 100_000 (fun _ -> Repro_util.Zipf.sample z rng) in
  let distinct =
    let h = Hashtbl.create 4096 in
    List.iter (fun k -> Hashtbl.replace h k ()) stream;
    Hashtbl.fold (fun k () acc -> k :: acc) h []
  in
  let c8 = chi2 ~shards:8 distinct in
  if c8 > 30.0 then Alcotest.failf "zipf distinct/8: chi2 %.2f (df 7)" c8;
  let counts = Array.make 8 0 in
  List.iter
    (fun k ->
      let s = Shard_router.shard_of ~shards:8 k in
      counts.(s) <- counts.(s) + 1)
    stream;
  let total = float_of_int (List.length stream) in
  Array.iteri
    (fun s c ->
      let share = float_of_int c /. total in
      if share > 0.4 then
        Alcotest.failf "zipf stream: shard %d holds %.0f%% of references" s
          (100.0 *. share))
    counts

(* ---------- shard identity on reopen ---------- *)

let tmp name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "blink-shard-%d-%s" (Unix.getpid ()) name)

let rm path = try Sys.remove path with Sys_error _ -> ()

(* A store created as shard (1, 4) refuses to open as anything else —
   typed error carrying both identities — and opens as itself. *)
let test_reopen_mismatch () =
  let path = tmp "mismatch.pages" in
  Fun.protect
    ~finally:(fun () -> rm path)
    (fun () ->
      let s = PS.create_file ~shard:(1, 4) path in
      PS.sync s;
      PS.close s;
      (match PS.open_file ~expect_shard:(1, 2) path with
      | exception
          Paged_store.Shard_mismatch
            { expected_index = 1; expected_count = 2; found_index = 1; found_count = 4 }
        -> ()
      | exception e -> raise e
      | s ->
          PS.close s;
          Alcotest.fail "shard-count mismatch accepted");
      (match PS.open_file ~expect_shard:(2, 4) path with
      | exception Paged_store.Shard_mismatch { found_index = 1; found_count = 4; _ }
        -> ()
      | exception e -> raise e
      | s ->
          PS.close s;
          Alcotest.fail "shard-index mismatch accepted");
      let s = PS.open_file ~expect_shard:(1, 4) path in
      Alcotest.(check (pair int int)) "identity survives" (1, 4) (PS.shard s);
      PS.close s;
      (* no expectation: opens regardless, identity still readable *)
      let s = PS.open_file path in
      Alcotest.(check (pair int int)) "identity readable" (1, 4) (PS.shard s);
      PS.close s)

(* An unsharded (default-identity) store is shard (0, 1). *)
let test_default_identity () =
  let path = tmp "default.pages" in
  Fun.protect
    ~finally:(fun () -> rm path)
    (fun () ->
      let s = PS.create_file path in
      Alcotest.(check (pair int int)) "default" (0, 1) (PS.shard s);
      PS.close s;
      let s = PS.open_file ~expect_shard:(0, 1) path in
      PS.close s)

(* The sharded store propagates one shard's mismatch out of its parallel
   reopen (and closes the shards that did open), and reopens cleanly
   under the recorded count. *)
let test_sharded_store_reopen () =
  let path = tmp "sst.pages" in
  let cleanup () =
    for i = 0 to 7 do
      rm (SS.shard_path path i)
    done
  in
  Fun.protect ~finally:cleanup (fun () ->
      let sst = SS.create_file ~shards:4 path in
      SS.sync_all sst;
      SS.close sst;
      (match SS.open_file ~shards:2 path with
      | exception Paged_store.Shard_mismatch { found_count = 4; _ } -> ()
      | exception e -> raise e
      | sst ->
          SS.close sst;
          Alcotest.fail "sharded reopen under the wrong count accepted");
      let sst = SS.open_file ~shards:4 path in
      Alcotest.(check int) "count" 4 (SS.count sst);
      Array.iteri
        (fun i s ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "shard %d identity" i)
            (i, 4) (PS.shard s))
        (SS.stores sst);
      Alcotest.(check int) "per-shard io" 4 (Array.length (SS.per_shard_io sst));
      SS.close sst;
      (* shutdown is idempotent *)
      SS.close sst)

(* ---------- routed handle vs model oracle ---------- *)

(* [shards] memory-backed partitions, one order-4 Sagiv tree each. *)
let memory_sharded ~shards =
  let sst =
    SS.create_memory ~page_size:(Tree_intf.page_size_for_order 4) ~shards ()
  in
  snd (Tree_intf.sagiv_disk_sharded_on ~order:4 sst)

let test_sharded_handle_oracle () =
  let h = memory_sharded ~shards:4 in
  let ctx = Repro_core.Handle.ctx ~slot:0 in
  let model : (int, int) Hashtbl.t = Hashtbl.create 512 in
  let rng = Repro_util.Splitmix.create 1337 in
  for _ = 1 to 4000 do
    let k = Repro_util.Splitmix.int rng 600 in
    match Repro_util.Splitmix.int rng 4 with
    | 0 ->
        let expect = Hashtbl.mem model k in
        let got = h.Tree_intf.delete ctx k in
        if got <> expect then Alcotest.failf "delete %d: %b, model %b" k got expect;
        Hashtbl.remove model k
    | 1 ->
        let expect = Hashtbl.find_opt model k in
        let got = h.Tree_intf.search ctx k in
        if got <> expect then Alcotest.failf "search %d disagrees with model" k
    | _ -> (
        let expect = if Hashtbl.mem model k then `Duplicate else `Ok in
        match h.Tree_intf.insert ctx k (k * 3) with
        | r when r = expect -> if r = `Ok then Hashtbl.replace model k (k * 3)
        | _ -> Alcotest.failf "insert %d disagrees with model" k)
  done;
  h.Tree_intf.commit ();
  Alcotest.(check int) "cardinal sums shards" (Hashtbl.length model)
    (h.Tree_intf.cardinal ());
  (* the k-way merged range is the model's sorted restriction *)
  let lo = 100 and hi = 400 in
  let expect =
    Hashtbl.fold (fun k v acc -> if k >= lo && k <= hi then (k, v) :: acc else acc)
      model []
    |> List.sort compare
  in
  let got =
    match h.Tree_intf.range with
    | Some f -> f ctx ~lo ~hi
    | None -> Alcotest.fail "sharded handle dropped range support"
  in
  Alcotest.(check (list (pair int int))) "merged range" expect got;
  (* routing surface: every model key's shard agrees with the router *)
  match h.Tree_intf.sharding with
  | None -> Alcotest.fail "sharded handle has no sharding surface"
  | Some s ->
      Alcotest.(check int) "shard count" 4 s.Tree_intf.shard_count;
      Hashtbl.iter
        (fun k _ ->
          Alcotest.(check int)
            (Printf.sprintf "route %d" k)
            (Shard_router.shard_of ~shards:4 k)
            (s.Tree_intf.shard_of_key k))
        model

(* ---------- sharded server session ---------- *)

(* A sharded WAL handle behind the server under durable acks: a
   pipelined batch spanning every shard (a same-key sequence, a Commit
   between writes and reads) answers in order, and the merged worker
   stats carry per-shard ack counts. *)
let test_sharded_server () =
  let handle = memory_sharded ~shards:4 in
  let srv =
    Server.start ~workers:2 ~durable_acks:true ~handle
      ~listen:[ Unix.ADDR_INET (Unix.inet_addr_loopback, 0) ]
      ()
  in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let addr = List.hd (Server.addresses srv) in
      let c = C.connect addr in
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          let n = 200 in
          let reqs =
            List.concat
              [
                List.init n (fun i -> P.Insert { key = i; value = i * 11 });
                (* same-key sequence applied in order *)
                [
                  P.Insert { key = 7777; value = 1 };
                  P.Delete { key = 7777 };
                  P.Insert { key = 7777; value = 2 };
                  P.Commit;
                  P.Search { key = 7777 };
                ];
                List.init n (fun i -> P.Search { key = i });
              ]
          in
          let resps = C.pipeline c reqs in
          Alcotest.(check int)
            "one response per request" (List.length reqs) (List.length resps);
          let resps = Array.of_list resps in
          for i = 0 to n - 1 do
            if resps.(i) <> P.Inserted then
              Alcotest.failf "insert %d: %s" i
                (P.response_to_string resps.(i))
          done;
          Alcotest.(check bool) "seq insert" true (resps.(n) = P.Inserted);
          Alcotest.(check bool) "seq delete" true (resps.(n + 1) = P.Deleted);
          Alcotest.(check bool) "seq reinsert" true (resps.(n + 2) = P.Inserted);
          Alcotest.(check bool) "barrier commit" true (resps.(n + 3) = P.Committed);
          Alcotest.(check bool)
            "search after barrier" true
            (resps.(n + 4) = P.Found 2);
          for i = 0 to n - 1 do
            if resps.(n + 5 + i) <> P.Found (i * 11) then
              Alcotest.failf "search %d came back %s" i
                (P.response_to_string resps.(n + 5 + i))
          done;
          let m = Server.stats srv in
          Alcotest.(check int)
            "per-shard ack array sized" 4
            (Array.length m.Stats.shard_acks);
          let total = Array.fold_left ( + ) 0 m.Stats.shard_acks in
          if total < 4 then
            Alcotest.failf "only %d per-shard acks counted" total))

(* ---------- disk bulk load ---------- *)

module Vd = Repro_core.Validate.Make_on_store (Key.Int) (PS)

(* Bulk-load [n] pairs into a fresh file-backed [shards]-way store
   through the handle [build] returns with its sync (a cache far smaller
   than the tree, so the load evicts), sync, close and reopen through
   [reopen], then read every pair back and validate every shard's
   tree. *)
let bulk_roundtrip ~tag ~build ~reopen =
  let path = tmp (tag ^ ".pages") and wal = tmp (tag ^ ".wal") in
  let shards = 2 and n = 20_000 in
  let cleanup () =
    for i = 0 to shards - 1 do
      rm (SS.shard_path path i);
      rm (SS.shard_path wal i)
    done
  in
  cleanup ();
  Fun.protect ~finally:cleanup (fun () ->
      let pairs = List.init n (fun i -> ((i * 5) - 7, i)) in
      let sst = SS.create_file ~cache_pages:64 ~wal_path:wal ~shards path in
      let h, sync = build sst in
      (match h.Tree_intf.bulk_add with
      | Some bulk -> Alcotest.(check bool) (tag ^ ": loaded") true (bulk pairs)
      | None -> Alcotest.fail "no bulk load on a disk handle");
      sync ();
      SS.close sst;
      let sst = SS.open_file ~cache_pages:64 ~wal_path:wal ~shards path in
      let trees, h = reopen sst in
      let ctx = Repro_core.Handle.ctx ~slot:0 in
      List.iter
        (fun (k, v) ->
          if h.Tree_intf.search ctx k <> Some v then
            Alcotest.failf "%s: key %d lost across reopen" tag k)
        pairs;
      Alcotest.(check int) (tag ^ ": cardinal") n (h.Tree_intf.cardinal ());
      Alcotest.(check bool) (tag ^ ": full range is the input") true
        ((Option.get h.Tree_intf.range) ctx ~lo:min_int ~hi:max_int = pairs);
      Array.iteri
        (fun i t ->
          let r = Vd.check t in
          if not (Repro_core.Validate.ok r) then
            Alcotest.failf "%s shard %d: %s" tag i
              (String.concat "; " r.Repro_core.Validate.errors))
        trees;
      SS.close sst)

let test_disk_bulk_load () =
  bulk_roundtrip ~tag:"bulk"
    ~build:(fun sst ->
      let trees, h = Tree_intf.sagiv_disk_sharded_on ~order:16 sst in
      (h, fun () -> Array.iter Tree_intf.Sagiv_disk.flush trees))
    ~reopen:Tree_intf.sagiv_disk_sharded_open

(* The store checkpointed directly, never through the tree: every
   checkpoint records the tree's metadata, so the store still reopens. *)
let test_disk_bulk_load_store_sync () =
  bulk_roundtrip ~tag:"bulk-sync"
    ~build:(fun sst ->
      let _, h = Tree_intf.sagiv_disk_sharded_on ~order:16 sst in
      (h, fun () -> SS.sync_all sst))
    ~reopen:Tree_intf.sagiv_disk_sharded_open

let test_mvcc_disk_bulk_load () =
  let module MD = Tree_intf.Mvcc_disk in
  bulk_roundtrip ~tag:"mvcc-bulk"
    ~build:(fun sst ->
      let ts, h = Tree_intf.sagiv_mvcc_disk_on ~order:16 sst in
      (h, fun () -> Array.iter MD.flush ts))
    ~reopen:(fun sst ->
      let ts, h = Tree_intf.sagiv_mvcc_disk_open sst in
      (Array.map MD.tree ts, h))

let suite =
  [
    ("router golden values", `Quick, test_router_golden);
    ("router stays in range", `Quick, test_router_range);
    ("balance: uniform chi-squared", `Quick, test_balance_uniform);
    ("balance: zipf chi-squared", `Quick, test_balance_zipf);
    ("reopen refuses a shard mismatch", `Quick, test_reopen_mismatch);
    ("default identity is (0,1)", `Quick, test_default_identity);
    ("sharded store parallel reopen", `Quick, test_sharded_store_reopen);
    ("routed handle matches the model", `Quick, test_sharded_handle_oracle);
    ("sharded server session", `Quick, test_sharded_server);
    ("disk bulk load survives reopen", `Quick, test_disk_bulk_load);
    ("disk bulk load survives a store checkpoint and reopen", `Quick,
      test_disk_bulk_load_store_sync);
    ("durable MVCC bulk load survives reopen", `Quick, test_mvcc_disk_bulk_load);
  ]
