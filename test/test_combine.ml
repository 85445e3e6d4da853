(* Hot-key combining: the batch-level dedup layer in the server
   (anchored-no-op elision, search piggy-backing, commit elision).
   Covers exact batch semantics, per-batch state reset, 4-client
   linearizability with dedup on and off, the durable-ack contract
   under a crash taken right after a combined batch's acks, and
   pipeline_sharded's keyless-barrier / same-key-run ordering
   guarantees. *)

open Repro_storage
open Repro_baseline
open Repro_harness
module P = Repro_server.Protocol
module Server = Repro_server.Server
module C = Repro_client.Client
module PS = Tree_intf.Paged_int
module Sg = Tree_intf.Sagiv_disk

let response = Alcotest.testable P.pp_response ( = )
let loopback = Unix.ADDR_INET (Unix.inet_addr_loopback, 0)

let with_server ?workers ?durable_acks ?combine_batch
    ?(handle = (Tree_intf.sagiv ()).make ~order:4) f =
  let srv =
    Server.start ?workers ?durable_acks ?combine_batch ~handle
      ~listen:[ loopback ] ()
  in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f srv (List.hd (Server.addresses srv)))

let with_client addr f =
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) (fun () -> f c)

let check_resps what expected actual =
  Alcotest.(check (list response)) what expected actual

(* ---------- batch-level dedup: exact semantics ---------- *)

(* One pipelined batch walking a key through insert/dup/delete/miss:
   every response must match sequential semantics exactly, with the
   repeats elided behind their in-batch anchor and the hot searches
   piggy-backed on already-known outcomes. *)
let test_batch_dedup_semantics () =
  with_server ~combine_batch:true @@ fun srv addr ->
  with_client addr @@ fun c ->
  let resps =
    C.pipeline c
      [
        P.Insert { key = 1; value = 10 };
        P.Search { key = 1 };
        P.Insert { key = 1; value = 11 };
        P.Search { key = 1 };
        P.Delete { key = 1 };
        P.Search { key = 1 };
        P.Delete { key = 1 };
        P.Search { key = 1 };
      ]
  in
  check_resps "insert/dup/delete/miss walk"
    [
      P.Inserted; P.Found 10; P.Duplicate; P.Found 10; P.Deleted; P.Absent;
      P.Absent; P.Absent;
    ]
    resps;
  let m = Server.stats srv in
  (* elided: the repeat insert and the repeat delete; piggybacked: all
     four searches land on in-batch knowledge *)
  Alcotest.(check int) "elided" 2 m.Stats.elided;
  Alcotest.(check int) "piggybacked" 4 m.Stats.piggybacked

(* Dedup facts must never survive a batch boundary: knowledge recorded
   in one batch cannot answer the next one (the tree between batches is
   shared with other connections). *)
let test_batch_state_reset () =
  with_server ~combine_batch:true @@ fun _srv addr ->
  with_client addr @@ fun c ->
  check_resps "batch 1"
    [ P.Inserted; P.Deleted ]
    (C.pipeline c [ P.Insert { key = 3; value = 30 }; P.Delete { key = 3 } ]);
  (* a fresh batch must re-read the tree, not the stale kstate *)
  check_resps "batch 2 re-reads the tree"
    [ P.Absent; P.Inserted; P.Found 31 ]
    (C.pipeline c
       [
         P.Search { key = 3 };
         P.Insert { key = 3; value = 31 };
         P.Search { key = 3 };
       ]);
  Alcotest.(check (option int)) "tree state final" (Some 31) (C.search c ~key:3)

(* A search on an unknown key is physical; only repeats within the same
   batch piggy-back. *)
let test_piggyback_unknown_key () =
  with_server ~combine_batch:true @@ fun srv addr ->
  with_client addr @@ fun c ->
  check_resps "miss, piggybacked miss, insert, piggybacked hit"
    [ P.Absent; P.Absent; P.Inserted; P.Found 50 ]
    (C.pipeline c
       [
         P.Search { key = 5 };
         P.Search { key = 5 };
         P.Insert { key = 5; value = 50 };
         P.Search { key = 5 };
       ]);
  let m = Server.stats srv in
  Alcotest.(check int) "exactly the repeats piggybacked" 2 m.Stats.piggybacked;
  Alcotest.(check int) "nothing elided" 0 m.Stats.elided

(* ---------- 4-client hot-key linearizability, dedup on/off ---------- *)

(* 4 clients pipeline small batches over 8 hot keys; every response
   becomes an event whose window spans its whole batch (conservative:
   wider windows only make the check more permissive, so any violation
   found is real). Run against a plain server and one with batch dedup
   on: both must linearize, with every key actually checked. *)
let run_hot_key_clients ~combine addr =
  let clock = Atomic.make 0 in
  let all = Atomic.make [] in
  let key_space = 8 and batches = 3 and depth = 4 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Random.State.make [| 8800 + d + if combine then 64 else 0 |] in
            let mine = ref [] in
            with_client addr @@ fun c ->
            for _ = 1 to batches do
              let reqs =
                List.init depth (fun _ ->
                    let key = Random.State.int rng key_space in
                    match Random.State.int rng 3 with
                    | 0 -> P.Insert { key; value = key }
                    | 1 -> P.Delete { key }
                    | _ -> P.Search { key })
              in
              let inv = Atomic.fetch_and_add clock 1 in
              let resps = C.pipeline c reqs in
              let res = Atomic.fetch_and_add clock 1 in
              List.iter2
                (fun req resp ->
                  let key, kind, ok =
                    match (req, resp) with
                    | P.Insert { key; _ }, r ->
                        (key, Linearize.Insert, r = P.Inserted)
                    | P.Delete { key }, r -> (key, Linearize.Delete, r = P.Deleted)
                    | P.Search { key }, r ->
                        ( key,
                          Linearize.Search,
                          match r with P.Found _ -> true | _ -> false )
                    | _ -> assert false
                  in
                  mine := { Linearize.key; kind; ok; inv; res } :: !mine)
                reqs resps
            done;
            let rec publish () =
              let cur = Atomic.get all in
              if not (Atomic.compare_and_set all cur (!mine @ cur)) then
                publish ()
            in
            publish ()))
  in
  List.iter Domain.join domains;
  let v = Linearize.check (Atomic.get all) in
  Alcotest.(check bool) "no skipped keys" true (v.Linearize.skipped = []);
  if not (Linearize.ok v) then
    Alcotest.failf "violations (combine=%b) on keys %s" combine
      (String.concat ", "
         (List.map (fun (k, _) -> string_of_int k) v.Linearize.violations))

let test_hot_keys_linearizable_off () =
  with_server ~workers:4 @@ fun _srv addr ->
  run_hot_key_clients ~combine:false addr

let test_hot_keys_linearizable_on () =
  with_server ~workers:4 ~combine_batch:true @@ fun _srv addr ->
  run_hot_key_clients ~combine:true addr

(* ---------- durable acks under combining ---------- *)

(* The contract combining must not weaken: snapshot the crash image the
   moment a combined batch's acks are in — elided repeats and all — and
   recovery must hold every physical effect those acks were anchored
   to. A trailing all-no-op batch exercises commit elision (it must
   skip its fsync precisely because there is nothing new to lose). *)
let test_wal_combined_acked_crash () =
  let data_page_size = 512 in
  let wal_page_size = Wal.log_page_size ~data_page_size in
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:64 ~wal:lfile pfile in
  let t = Sg.create ~order:4 ~store () in
  Sg.flush t;
  let handle =
    Tree_intf.of_ops
      ~commit:(fun () -> Sg.commit t)
      ~range:(Sg.range t) ~name:"sagiv-disk" (module Sg) t
  in
  let n = 50 in
  let image, limage =
    with_server ~workers:2 ~durable_acks:true ~combine_batch:true ~handle
    @@ fun srv addr ->
    with_client addr @@ fun c ->
    (* each key: a surviving insert, an elided repeat, a physical miss
       delete and an elided repeat of it *)
    let reqs =
      List.concat_map
        (fun i ->
          [
            P.Insert { key = i; value = i * 7 };
            P.Insert { key = i; value = 999 };
            P.Delete { key = 1000 + i };
            P.Delete { key = 1000 + i };
          ])
        (List.init n Fun.id)
    in
    let resps = C.pipeline c reqs in
    List.iteri
      (fun j r ->
        let expect =
          match j mod 4 with
          | 0 -> P.Inserted
          | 1 -> P.Duplicate
          | _ -> P.Absent
        in
        Alcotest.check response (Printf.sprintf "ack %d" j) expect r)
      resps;
    (* a pure no-op batch: acked, but its commit is elided *)
    let dups =
      C.pipeline c
        (List.init n (fun i -> P.Insert { key = i; value = 0 }))
    in
    Alcotest.(check bool) "all duplicates" true
      (List.for_all (( = ) P.Duplicate) dups);
    let m = Server.stats srv in
    Alcotest.(check bool)
      (Printf.sprintf "no-op batch skipped its commit (%d)" m.Stats.commits_skipped)
      true
      (m.Stats.commits_skipped > 0);
    Alcotest.(check bool) "state-changing batch committed" true
      (m.Stats.acked_commits > 0);
    (* the crash: both devices snapshotted right after the acks *)
    (Paged_file.crash_image pfile, Paged_file.crash_image lfile)
  in
  let store2 = PS.open_from ~cache_pages:64 ~wal:limage image in
  let t2 = Sg.open_existing store2 in
  let c2 = Sg.ctx ~slot:0 in
  for i = 0 to n - 1 do
    (match Sg.search t2 c2 i with
    | Some v when v = i * 7 -> ()
    | Some v -> Alcotest.failf "key %d recovered with value %d" i v
    | None ->
        Alcotest.failf "acked key %d lost: combined-batch ack outran its commit"
          i);
    match Sg.search t2 c2 (1000 + i) with
    | None -> ()
    | Some _ -> Alcotest.failf "phantom key %d materialised" (1000 + i)
  done

(* ---------- pipeline_sharded ordering ---------- *)

(* Same-key runs must keep their relative order through the client-side
   shard regrouping, and keyless requests (Commit) are barriers nothing
   crosses — checked end to end against a sharded combined server,
   where any illegal reorder changes an answer. *)
let test_pipeline_sharded_order () =
  let shards = 4 in
  let handle =
    Tree_intf.sharded ~name:"sagiv-sharded"
      (Array.init shards (fun _ -> (Tree_intf.sagiv ()).make ~order:4))
  in
  with_server ~combine_batch:true ~handle @@ fun _srv addr ->
  with_client addr @@ fun c ->
  (* same-key run: insert/delete/insert/search on one key must not be
     reordered by the regrouping *)
  check_resps "same-key run keeps order"
    [ P.Inserted; P.Deleted; P.Inserted; P.Found 2 ]
    (C.pipeline_sharded c ~shards
       [
         P.Insert { key = 5; value = 1 };
         P.Delete { key = 5 };
         P.Insert { key = 5; value = 2 };
         P.Search { key = 5 };
       ]);
  (* keyless barrier: the delete after the Commit must see the insert
     before it, on every shard the keys hash to *)
  check_resps "keyless barrier not crossed"
    [
      P.Inserted; P.Inserted; P.Found 10; P.Committed; P.Duplicate; P.Deleted;
      P.Absent;
    ]
    (C.pipeline_sharded c ~shards
       [
         P.Insert { key = 11; value = 10 };
         P.Insert { key = 12; value = 20 };
         P.Search { key = 11 };
         P.Commit;
         P.Insert { key = 11; value = 99 };
         P.Delete { key = 12 };
         P.Search { key = 12 };
       ]);
  (* responses come back in caller order even when shard grouping
     permutes the wire order of distinct keys *)
  let n = 64 in
  let reqs = List.init n (fun i -> P.Insert { key = 100 + i; value = i }) in
  let resps = C.pipeline_sharded c ~shards reqs in
  Alcotest.(check int) "one response per request" n (List.length resps);
  Alcotest.(check bool) "all fresh inserts acked" true
    (List.for_all (( = ) P.Inserted) resps);
  List.iteri
    (fun i _ ->
      Alcotest.(check (option int))
        (Printf.sprintf "key %d" (100 + i))
        (Some i)
        (C.search c ~key:(100 + i)))
    reqs

let suite =
  [
    ("batch dedup exact semantics", `Quick, test_batch_dedup_semantics);
    ("dedup state resets per batch", `Quick, test_batch_state_reset);
    ("piggyback only on in-batch knowledge", `Quick,
     test_piggyback_unknown_key);
    ("combined-batch acks survive crash (wal)", `Quick,
     test_wal_combined_acked_crash);
    ("pipeline_sharded same-key runs and barriers", `Quick,
     test_pipeline_sharded_order);
    ("4 hot-key clients linearizable, combining off", `Quick,
     test_hot_keys_linearizable_off);
    ("4 hot-key clients linearizable, batch dedup on", `Quick,
     test_hot_keys_linearizable_on);
  ]
