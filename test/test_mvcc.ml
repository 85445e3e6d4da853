(* MVCC snapshots end to end: version visibility at a pinned cut,
   vacuum behind and after pins, group snapshots across shards, the
   scan-consistency oracle under 4 concurrent writer domains (single
   tree and sharded), the documented-weak unversioned range, the online
   leak-check with writers live, the server's SNAPSHOT session and the
   online backup it carries, and the replica's one-horizon-per-scan
   regression. *)

open Repro_storage
open Repro_baseline
open Repro_harness
module M = Tree_intf.Mvcc_int
module Sg = Repro_core.Sagiv.Make (Key.Int)
module V = Repro_core.Validate.Make (Key.Int)
module P = Repro_server.Protocol
module Server = Repro_server.Server
module C = Repro_client.Client
module R = Repro_client.Replica

let mctx = M.ctx

(* ---------- snapshot visibility ---------- *)

let test_snapshot_visibility () =
  let st = M.create ~order:4 () in
  let c = mctx ~slot:0 in
  for k = 1 to 100 do
    M.upsert st c k (k * 10)
  done;
  let s = M.snapshot st in
  (* post-cut churn of every flavour *)
  M.upsert st c 1 999;
  Alcotest.(check bool) "delete live" true (M.delete st c 2);
  Alcotest.(check bool) "insert new" true (M.insert st c 101 5 = `Ok);
  (* the cut is frozen *)
  Alcotest.(check (option int)) "snap overwritten" (Some 10) (M.snap_get st s c 1);
  Alcotest.(check (option int)) "snap deleted" (Some 20) (M.snap_get st s c 2);
  Alcotest.(check (option int)) "snap unborn" None (M.snap_get st s c 101);
  (* current time moved on *)
  Alcotest.(check (option int)) "now overwritten" (Some 999) (M.get st c 1);
  Alcotest.(check (option int)) "now deleted" None (M.get st c 2);
  Alcotest.(check (option int)) "now born" (Some 5) (M.get st c 101);
  Alcotest.(check (list (pair int int)))
    "snap range is the cut"
    [ (1, 10); (2, 20); (3, 30) ]
    (M.snap_range st s c ~lo:1 ~hi:3);
  M.release s;
  (* released snaps refuse reads instead of lying *)
  (match M.snap_get st s c 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "released snapshot still answered");
  M.release s (* idempotent *)

let test_vacuum_behind_pin () =
  let st = M.create ~order:4 () in
  let c = mctx ~slot:0 in
  for k = 1 to 50 do
    M.upsert st c k k
  done;
  let s = M.snapshot st in
  for k = 1 to 50 do
    if k mod 2 = 0 then ignore (M.delete st c k : bool)
  done;
  (* every tombstone postdates the pin: nothing is removable *)
  let removed = M.vacuum st c in
  Alcotest.(check int) "vacuum behind the pin removes nothing" 0 removed;
  Alcotest.(check (option int)) "pinned read intact" (Some 2) (M.snap_get st s c 2);
  Alcotest.(check int) "snap scan sees all 50" 50
    (List.length (M.snap_range st s c ~lo:1 ~hi:50));
  M.release s;
  (* horizon passes the tombstones: the dead pairs go *)
  let removed = M.vacuum st c in
  ignore (M.reclaim st : int);
  Alcotest.(check int) "vacuum after release removes the evens" 25 removed;
  Alcotest.(check (option int)) "gone" None (M.get st c 2);
  Alcotest.(check int) "current scan halved" 25
    (List.length (M.range st c ~lo:1 ~hi:50))

let test_version_pruning () =
  let st = M.create ~order:4 () in
  let c = mctx ~slot:0 in
  for i = 1 to 100 do
    M.upsert st c 7 i
  done;
  Alcotest.(check bool) "chain built up" true (M.live_versions st > 1);
  ignore (M.vacuum st c : int);
  Alcotest.(check bool) "cold tail pruned" true (M.pruned_versions st > 0);
  Alcotest.(check (option int)) "newest survives" (Some 100) (M.get st c 7);
  let io = M.io_stats st in
  Alcotest.(check int) "io gauge versions" (M.live_versions st)
    io.Stats.mvcc_versions;
  Alcotest.(check int) "io gauge pruned" (M.pruned_versions st)
    io.Stats.mvcc_pruned;
  Alcotest.(check int) "io gauge pins" 0 io.Stats.snap_pins

(* A live chain whose tail a pin held through one vacuum must stay a
   candidate: no later write may come to re-note the key. *)
let test_vacuum_requeues_pinned_live_chain () =
  let st = M.create ~order:4 () in
  let c = mctx ~slot:0 in
  M.upsert st c 7 0;
  let s = M.snapshot st in
  for i = 1 to 5 do
    M.upsert st c 7 i
  done;
  ignore (M.vacuum st c : int);
  Alcotest.(check int) "the pin keeps every version" 6 (M.live_versions st);
  let pruned = M.pruned_versions st in
  M.release s;
  ignore (M.vacuum st c : int);
  ignore (M.reclaim st : int);
  Alcotest.(check int) "one version left" 1 (M.live_versions st);
  Alcotest.(check int) "five versions pruned" (pruned + 5) (M.pruned_versions st);
  Alcotest.(check (option int)) "newest survives" (Some 5) (M.get st c 7)

let test_group_snapshot () =
  let epoch = Epoch.create () in
  let a = M.create ~order:4 ~epoch () in
  let b = M.create ~order:4 ~epoch () in
  let c = mctx ~slot:0 in
  M.upsert a c 1 10;
  M.upsert b c 2 20;
  let s = M.snapshot_group [| a; b |] in
  M.upsert a c 1 11;
  M.upsert b c 2 21;
  Alcotest.(check (option int)) "a at cut" (Some 10) (M.snap_get a s c 1);
  Alcotest.(check (option int)) "b at cut" (Some 20) (M.snap_get b s c 2);
  M.release s;
  let lone = M.create ~order:4 () in
  match M.snapshot_group [| a; lone |] with
  | exception Invalid_argument _ -> ()
  | s ->
      M.release s;
      Alcotest.fail "group snapshot over unrelated epochs accepted"

(* ---------- the scan-consistency oracle ---------- *)

(* Writer [w] owns keys [w*1000 .. w*1000+block-1], preloaded with 0 and
   swept with steps 1..steps (value = step, distinct per key). Scans run
   from the main domain while the sweep is live; the oracle then decides
   feasibility from the logged wall-clock intervals. *)
let run_scan_battery ~writers ~block ~steps ~upsert ~scan =
  let universe =
    List.concat
      (List.init writers (fun w -> List.init block (fun i -> (w * 1000) + i)))
  in
  List.iter (fun k -> upsert (mctx ~slot:0) k 0) universe;
  let logs = Array.init writers (fun _ -> Scan_oracle.log_create ()) in
  let running = Atomic.make writers in
  let doms =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            let ctx = mctx ~slot:(w + 1) in
            for s = 1 to steps do
              for i = 0 to block - 1 do
                let k = (w * 1000) + i in
                Scan_oracle.logged logs.(w) ~key:k ~value:(Some s) (fun () ->
                    upsert ctx k s)
              done
            done;
            Atomic.decr running))
  in
  let scans = ref [] in
  while Atomic.get running > 0 do
    scans := scan (mctx ~slot:0) :: !scans;
    Domain.cpu_relax ()
  done;
  List.iter Domain.join doms;
  (* and one quiescent scan: must be the exact final state *)
  let final = scan (mctx ~slot:0) in
  List.iter
    (fun (k, v) ->
      if v <> steps then Alcotest.failf "final scan: key %d at step %d" k v)
    final;
  Alcotest.(check int) "final scan covers the universe"
    (List.length universe) (List.length final);
  let checked = ref 0 in
  List.iter
    (fun scan ->
      incr checked;
      match
        Scan_oracle.check ~logs
          ~owner:(fun k -> k / 1000)
          ~initial:(fun _ -> Some 0)
          ~universe ~scan
      with
      | [] -> ()
      | vs ->
          Alcotest.failf "scan %d inconsistent: %s" !checked
            (String.concat "; " vs))
    (final :: !scans);
  !checked

let test_scan_oracle_single () =
  let st, h = Tree_intf.sagiv_mvcc_raw ~order:4 () in
  let m = Option.get h.Tree_intf.mvcc in
  let scanned =
    run_scan_battery ~writers:4 ~block:32 ~steps:25
      ~upsert:(fun ctx k v -> M.upsert st ctx k v)
      ~scan:(fun ctx ->
        let s = m.Tree_intf.snapshot () in
        Fun.protect ~finally:s.Tree_intf.snap_release (fun () ->
            s.Tree_intf.snap_range ctx ~lo:0 ~hi:max_int))
  in
  Alcotest.(check bool) "scanned while writers ran" true (scanned >= 1);
  (* vacuum converges once quiescent *)
  ignore (m.Tree_intf.vacuum (mctx ~slot:0) : int);
  let g = m.Tree_intf.gauges () in
  Alcotest.(check int) "no pins left" 0 g.Tree_intf.g_snap_pins

let test_scan_oracle_sharded () =
  let shards = 4 in
  let ts, h = Tree_intf.sagiv_mvcc_sharded_raw ~shards ~order:4 () in
  let m = Option.get h.Tree_intf.mvcc in
  let route k = Shard_router.shard_of ~shards k in
  let scanned =
    run_scan_battery ~writers:4 ~block:24 ~steps:20
      ~upsert:(fun ctx k v -> M.upsert ts.(route k) ctx k v)
      ~scan:(fun ctx ->
        let s = m.Tree_intf.snapshot () in
        Fun.protect ~finally:s.Tree_intf.snap_release (fun () ->
            s.Tree_intf.snap_range ctx ~lo:0 ~hi:max_int))
  in
  Alcotest.(check bool) "scanned while writers ran" true (scanned >= 1)

(* The unversioned [handle.range] is documented weak: under writers it
   need not be a cut, but it must stay a well-formed ordered scan
   (strictly ascending keys, every value some step each key held). *)
let test_weak_range_documented () =
  let st, h = Tree_intf.sagiv_mvcc_raw ~order:4 () in
  let range = Option.get h.Tree_intf.range in
  let c0 = mctx ~slot:0 in
  let block = 64 and steps = 30 in
  for k = 0 to block - 1 do
    M.upsert st c0 k 0
  done;
  let running = Atomic.make 2 in
  let doms =
    List.init 2 (fun w ->
        Domain.spawn (fun () ->
            let ctx = mctx ~slot:(w + 1) in
            for s = 1 to steps do
              for i = 0 to (block / 2) - 1 do
                M.upsert st ctx ((w * block / 2) + i) s
              done
            done;
            Atomic.decr running))
  in
  while Atomic.get running > 0 do
    let ps = range c0 ~lo:0 ~hi:max_int in
    let rec ordered = function
      | (a, _) :: ((b, _) :: _ as rest) ->
          if a >= b then Alcotest.failf "weak range out of order at %d" b;
          ordered rest
      | _ -> ()
    in
    ordered ps;
    List.iter
      (fun (k, v) ->
        if k < 0 || k >= block || v < 0 || v > steps then
          Alcotest.failf "weak range: impossible pair %d=%d" k v)
      ps
  done;
  List.iter Domain.join doms

(* The oracle itself must reject infeasible scans. *)
let test_oracle_rejects () =
  let l = Scan_oracle.log_create () in
  Scan_oracle.record l ~key:1 ~value:(Some 1) ~start:1.0 ~stop:1.1;
  Scan_oracle.record l ~key:2 ~value:(Some 1) ~start:1.2 ~stop:1.3;
  Scan_oracle.record l ~key:1 ~value:(Some 2) ~start:2.0 ~stop:2.1;
  Scan_oracle.record l ~key:2 ~value:(Some 2) ~start:2.2 ~stop:2.3;
  let check scan =
    Scan_oracle.check ~logs:[| l |]
      ~owner:(fun _ -> 0)
      ~initial:(fun _ -> None)
      ~universe:[ 1; 2 ] ~scan
  in
  (* key 2 already at step 2 while key 1 still at step 1: the writer
     finished 1@2 before starting 2@2, so no instant shows this *)
  Alcotest.(check bool) "torn sweep rejected" true (check [ (1, 1); (2, 2) ] <> []);
  (* the mid-sweep cut (key 1 advanced first) is fine *)
  Alcotest.(check (list string)) "mid-sweep cut accepted" [] (check [ (1, 2); (2, 1) ]);
  Alcotest.(check (list string)) "old state accepted" [] (check [ (1, 1); (2, 1) ]);
  Alcotest.(check (list string)) "new state accepted" [] (check [ (1, 2); (2, 2) ]);
  (* cross-writer: per-writer consistent states with disjoint windows *)
  let a = Scan_oracle.log_create () and b = Scan_oracle.log_create () in
  Scan_oracle.record a ~key:1 ~value:(Some 1) ~start:1.0 ~stop:1.2;
  Scan_oracle.record a ~key:1 ~value:(Some 2) ~start:1.8 ~stop:2.0;
  Scan_oracle.record b ~key:1001 ~value:(Some 1) ~start:1.0 ~stop:1.2;
  Scan_oracle.record b ~key:1001 ~value:(Some 2) ~start:5.0 ~stop:5.2;
  let check2 scan =
    Scan_oracle.check ~logs:[| a; b |]
      ~owner:(fun k -> k / 1000)
      ~initial:(fun _ -> None)
      ~universe:[ 1; 1001 ] ~scan
  in
  Alcotest.(check bool) "no common instant rejected" true
    (check2 [ (1, 1); (1001, 2) ] <> []);
  Alcotest.(check (list string)) "common instant accepted" []
    (check2 [ (1, 2); (1001, 1) ])

(* ---------- online validate ---------- *)

(* Stable keys 1..400 never move; two writer domains churn a disjoint
   high block while the online pass runs. *)
let with_churn f =
  let t = Sg.create ~order:4 () in
  let c = Sg.ctx ~slot:0 in
  for k = 1 to 400 do
    ignore (Sg.insert t c k (k * 3))
  done;
  let stop = Atomic.make false in
  let doms =
    List.init 2 (fun w ->
        Domain.spawn (fun () ->
            let ctx = Sg.ctx ~slot:(w + 1) in
            let base = 10_000 + (w * 1000) in
            let i = ref 0 in
            while not (Atomic.get stop) do
              let k = base + (!i mod 500) in
              (match Sg.insert t ctx k !i with
              | `Ok -> ()
              | `Duplicate -> ignore (Sg.delete t ctx k : bool));
              incr i
            done))
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Domain.join doms)
    (fun () -> f t c)

let test_online_leak_check () =
  with_churn @@ fun t _c ->
  for pass = 1 to 3 do
    match V.leak_check_online t with
    | [] -> ()
    | leaks ->
        Alcotest.failf "pass %d: %d pages reported leaked under churn" pass
          (List.length leaks)
  done

(* Quiescent cross-check: a lock-free fold over all pairs (the unbounded
   range) equals the model of a tree with deletions. *)
let test_full_fold_quiescent () =
  let t = Sg.create ~order:4 () in
  let c = Sg.ctx ~slot:0 in
  for k = 1 to 1000 do
    ignore (Sg.insert t c k (k * 7))
  done;
  for k = 1 to 1000 do
    if k mod 3 = 0 then ignore (Sg.delete t c k : bool)
  done;
  let scanned =
    List.rev
      (Sg.fold_range t c ~lo:min_int ~hi:max_int ~init:[] (fun acc k p ->
           (k, p) :: acc))
  in
  let model =
    List.filter_map
      (fun k -> if k mod 3 = 0 then None else Some (k, k * 7))
      (List.init 1000 succ)
  in
  Alcotest.(check (list (pair int int))) "fold over all = model" model scanned

(* ---------- server SNAPSHOT sessions ---------- *)

let loopback = Unix.ADDR_INET (Unix.inet_addr_loopback, 0)

let with_server ~handle f =
  let srv = Server.start ~workers:2 ~handle ~listen:[ loopback ] () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f (List.hd (Server.addresses srv)))

let with_client addr f =
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) (fun () -> f c)

let test_server_snapshot_session () =
  with_server ~handle:((Tree_intf.sagiv_mvcc ()).make ~order:4) @@ fun addr ->
  with_client addr @@ fun c ->
  Alcotest.(check bool) "seed" true (C.insert c ~key:1 ~value:10 = `Ok);
  let epoch = C.snapshot_open c in
  Alcotest.(check bool) "epoch sane" true (epoch >= 0);
  (* writes keep landing (even on the pinned connection) *)
  Alcotest.(check bool) "post-cut insert" true (C.insert c ~key:2 ~value:20 = `Ok);
  Alcotest.(check bool) "post-cut delete" true (C.delete c ~key:1);
  (* ... but this connection reads at the cut *)
  Alcotest.(check (option int)) "pinned search" (Some 10) (C.search c ~key:1);
  Alcotest.(check (option int)) "unborn invisible" None (C.search c ~key:2);
  Alcotest.(check (list (pair int int)))
    "pinned range" [ (1, 10) ] (C.range c ~lo:0 ~hi:100);
  (* a second connection reads current time *)
  (with_client addr @@ fun c2 ->
   Alcotest.(check (option int)) "fresh conn current" (Some 20) (C.search c2 ~key:2));
  C.snapshot_close c;
  Alcotest.(check (option int)) "current after close" None (C.search c ~key:1);
  Alcotest.(check (list (pair int int)))
    "current range" [ (2, 20) ] (C.range c ~lo:0 ~hi:100)

let test_server_snapshot_unsupported () =
  with_server ~handle:((Tree_intf.sagiv ()).make ~order:4) @@ fun addr ->
  with_client addr @@ fun c ->
  match C.snapshot_open c with
  | exception C.Remote_error _ -> ()
  | _ -> Alcotest.fail "non-MVCC backend opened a snapshot"

(* Regression: an exception thrown between pin publication and release —
   here an ack commit failing after the batch executed — must not leak
   the connection's SNAPSHOT pin. Before the [Fun.protect] teardown the
   exception skipped the release entirely (worker_loop swallows it), so
   the pin held vacuum's horizon down forever. *)
let test_server_pin_survives_conn_crash () =
  let st, h = Tree_intf.sagiv_mvcc_raw ~order:4 () in
  let h =
    { h with Tree_intf.commit = (fun () -> failwith "injected commit failure") }
  in
  let srv =
    Server.start ~workers:2 ~durable_acks:true ~handle:h ~listen:[ loopback ] ()
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let addr = List.hd (Server.addresses srv) in
  let c0 = mctx ~slot:0 in
  let c = C.connect addr in
  ignore (C.snapshot_open c : int);
  Alcotest.(check bool) "pin held" true (M.min_pinned st <> max_int);
  (* the mutation's durable ack calls the poisoned commit: the batch
     loop dies mid-connection, past the per-request exception guard *)
  (match C.insert c ~key:1 ~value:1 with
  | _ -> ()
  | exception _ -> ());
  (try C.close c with _ -> ());
  let rec wait n =
    if M.min_pinned st <> max_int then
      if n = 0 then Alcotest.fail "SNAPSHOT pin leaked after connection crash"
      else begin
        Unix.sleepf 0.01;
        wait (n - 1)
      end
  in
  wait 300;
  (* with the pin gone, vacuum proceeds *)
  M.upsert st c0 5 50;
  ignore (M.delete st c0 5 : bool);
  Alcotest.(check bool) "vacuum proceeds" true (M.vacuum st c0 >= 1)

let test_snapshot_frame_roundtrip () =
  let req r =
    let b = Buffer.create 64 in
    P.encode_request b ~seq:9 r;
    let bytes = Buffer.to_bytes b in
    match P.decode_request bytes ~pos:0 ~len:(Bytes.length bytes) with
    | Frame { body; _ } -> Alcotest.(check bool) "req" true (body = r)
    | Need_more -> Alcotest.fail "Need_more"
  in
  req (P.Snapshot { close = false });
  req (P.Snapshot { close = true });
  let resp r =
    let b = Buffer.create 64 in
    P.encode_response b ~seq:9 r;
    let bytes = Buffer.to_bytes b in
    match P.decode_response bytes ~pos:0 ~len:(Bytes.length bytes) with
    | Frame { body; _ } -> Alcotest.(check bool) "resp" true (body = r)
    | Need_more -> Alcotest.fail "Need_more"
  in
  resp (P.Snap_reply { epoch = 12345 });
  resp (P.Snap_reply { epoch = -1 })

(* Online backup of a live server: the chunked sweep that [blink_cli
   backup] makes — SNAPSHOT open, windowed RANGEs, SNAPSHOT close —
   while two client connections churn. Stable keys 1..400 must land
   exactly. Each churn writer moves one token around a ring of keys
   set a window apart (insert the next key, then delete the current
   one), so at any one cut its ring holds one key or two neighbours; a
   sweep whose windows were read at different instants sees none, or
   keys that are not neighbours. *)
let test_online_backup_under_churn () =
  with_server ~handle:((Tree_intf.sagiv_mvcc ()).make ~order:4) @@ fun addr ->
  with_client addr @@ fun c ->
  for k = 1 to 400 do
    ignore (C.insert c ~key:k ~value:(k * 3))
  done;
  let chunk = 8 and ring = 32 in
  let base w = 1_000 + (w * chunk * ring) in
  let ring_key w j = base w + (j * chunk) in
  for w = 0 to 1 do
    ignore (C.insert c ~key:(ring_key w 0) ~value:0)
  done;
  let stop = Atomic.make false in
  let doms =
    List.init 2 (fun w ->
        Domain.spawn (fun () ->
            with_client addr @@ fun cw ->
            let j = ref 0 in
            while not (Atomic.get stop) do
              let next = (!j + 1) mod ring in
              ignore (C.insert cw ~key:(ring_key w next) ~value:next);
              ignore (C.delete cw ~key:(ring_key w !j) : bool);
              j := next
            done))
  in
  let sweep ~lo ~hi =
    ignore (C.snapshot_open c : int);
    Fun.protect
      ~finally:(fun () -> C.snapshot_close c)
      (fun () ->
        let rec go wlo acc =
          if wlo > hi then List.rev acc
          else
            let whi = min hi (wlo + chunk - 1) in
            go (whi + 1) (List.rev_append (C.range c ~lo:wlo ~hi:whi) acc)
        in
        go lo [])
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Domain.join doms)
    (fun () ->
      for pass = 1 to 10 do
        let pairs = sweep ~lo:1 ~hi:(base 2 - 1) in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "pass %d: stable keys exact" pass)
          (List.init 400 (fun i -> (i + 1, (i + 1) * 3)))
          (List.filter (fun (k, _) -> k <= 400) pairs);
        List.iter
          (fun (k, _) ->
            if k > 400 && (k < base 0 || (k - base 0) mod chunk <> 0) then
              Alcotest.failf "pass %d: backup invented key %d" pass k)
          pairs;
        for w = 0 to 1 do
          let held =
            List.filter_map
              (fun (k, _) ->
                if k >= base w && k < base (w + 1) then
                  Some ((k - base w) / chunk)
                else None)
              pairs
          in
          match held with
          | [ _ ] -> ()
          | [ a; b ] when b = a + 1 || (a = 0 && b = ring - 1) -> ()
          | _ ->
              Alcotest.failf "pass %d: writer %d ring holds [%s] at one cut"
                pass w
                (String.concat "; " (List.map string_of_int held))
        done
      done)

(* ---------- replica scan horizon ---------- *)

module PS = Tree_intf.Paged_int
module SgD = Tree_intf.Sagiv_disk

(* Regression: the replica installs a whole batch under the same mutex
   its scans hold, so a long scan can never straddle a batch. Each round
   commits a contiguous key block; a scan must always see a contiguous
   prefix (a torn install would surface high keys of a batch while
   lower ones are still missing). *)
let test_replica_scan_horizon () =
  let data_page_size = 512 in
  let wal_page_size = Wal.log_page_size ~data_page_size in
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:64 ~wal:lfile pfile in
  let t = SgD.create ~order:4 ~store () in
  SgD.flush t;
  let handle = Tree_intf.disk_sub_handle t in
  let srv =
    Server.start ~workers:2 ~durable_acks:true ~handle ~listen:[ loopback ] ()
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let addr = List.hd (Server.addresses srv) in
  with_client addr @@ fun c ->
  with_client addr @@ fun rc ->
  let r = R.create () in
  let stop = Atomic.make false in
  let bad = Atomic.make None in
  let scanner =
    Domain.spawn (fun () ->
        let ctx = Repro_core.Handle.ctx ~slot:3 in
        while not (Atomic.get stop) do
          let ps = R.range r ctx ~lo:0 ~hi:max_int in
          List.iteri
            (fun i (k, v) ->
              if k <> i then
                Atomic.set bad
                  (Some (Printf.sprintf "gap: index %d holds key %d" i k))
              else if v <> k / 25 then
                Atomic.set bad
                  (Some (Printf.sprintf "key %d from batch %d" k v)))
            ps;
          Domain.cpu_relax ()
        done)
  in
  let drain () =
    let rec go n =
      match R.poll ~wait_ms:50 r rc with
      | `Applied a -> go (n + a)
      | `Caught_up -> n
    in
    go 0
  in
  for b = 0 to 19 do
    let reqs = List.init 25 (fun i -> P.Insert { key = (b * 25) + i; value = b }) in
    List.iter
      (function
        | P.Inserted -> ()
        | resp -> Alcotest.failf "insert: %s" (P.response_to_string resp))
      (C.pipeline c reqs);
    C.commit c;
    ignore (drain () : int)
  done;
  Atomic.set stop true;
  Domain.join scanner;
  (match Atomic.get bad with
  | Some msg -> Alcotest.failf "replica scan straddled a batch: %s" msg
  | None -> ());
  Alcotest.(check int) "all batches applied" 500 (R.cardinal r)

(* ---------- logical records ---------- *)

let slot_state_str = function
  | Record_store.Slot_empty -> "empty"
  | Record_store.Slot_sealed -> "sealed"
  | Record_store.Slot_chain v ->
      let rec walk = function
        | None -> []
        | Some (v : int Record_store.version) ->
            Printf.sprintf "%d:%s" v.Record_store.epoch
              (match v.Record_store.value with Some x -> string_of_int x | None -> "dead")
            :: walk v.Record_store.prev
      in
      "[" ^ String.concat " " (walk (Some v)) ^ "]"

let entries_str es =
  String.concat "; " (List.map (fun (s, st) -> Printf.sprintf "%d=%s" s (slot_state_str st)) es)

let chain vs =
  let rec build = function
    | [] -> None
    | (epoch, value) :: rest -> Some { Record_store.epoch; value; prev = build rest }
  in
  Record_store.Slot_chain (Option.get (build vs))

(* Every slot state a capture can hold survives encode/decode: empty and
   sealed slots, tombstone heads, payloads that need 9-byte varints
   (>= 2^56, and their negatives), across record boundaries. *)
let test_logical_roundtrip () =
  let big = 1 lsl 56 in
  Alcotest.(check int) "2^56 takes a 9-byte varint" 9 (Page_codec.varint_bytes big);
  let entries =
    [
      (0, Record_store.Slot_empty);
      (1, Record_store.Slot_sealed);
      (2, chain [ (7, None); (5, Some 50); (1, Some 10) ]);
      (63, chain [ (3, Some big) ]);
      (64, chain [ (4, Some max_int); (2, Some (-big)); (1, Some min_int) ]);
      (1_000_000, chain [ (max_int, None) ]);
      (5, Record_store.Slot_empty);
    ]
  in
  List.iter
    (fun budget ->
      let records = Repro_core.Mvcc.encode_logical ~budget ~enc:Fun.id entries in
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "budget %d: record of %d bytes fits" budget (Bytes.length r))
            true
            (Bytes.length r <= budget))
        records;
      Alcotest.(check string)
        (Printf.sprintf "budget %d: round trip" budget)
        (entries_str entries)
        (entries_str (Repro_core.Mvcc.decode_logical ~dec:Fun.id records)))
    [ 512; 24; 12 ];
  Alcotest.(check int) "no slots, no records" 0
    (List.length (Repro_core.Mvcc.encode_logical ~budget:512 ~enc:Fun.id []));
  (* a capture whose last record is missing is refused, not half-applied *)
  let records = Repro_core.Mvcc.encode_logical ~budget:12 ~enc:Fun.id entries in
  match
    Repro_core.Mvcc.decode_logical ~dec:Fun.id
      (List.filteri (fun i _ -> i < List.length records - 1) records)
  with
  | _ -> Alcotest.fail "a capture cut short must not decode"
  | exception Repro_core.Mvcc.Corrupt_vrec _ -> ()

(* One commit of 2,000 fresh upserts is one capture too large for one
   record: it splits across several, each at most one data page, all in
   the commit's one batch, and together they carry every slot. *)
let test_logical_split () =
  let module PS = Tree_intf.Paged_int in
  let module MD = Tree_intf.Mvcc_disk in
  let module Codec = Page_codec.Make (Key.Int) in
  let page_size = 512 in
  let store = PS.create_memory ~page_size () in
  let t = MD.create_durable ~order:4 ~enc:Fun.id ~dec:Fun.id store in
  MD.flush t;
  let c = mctx ~slot:0 in
  for k = 1 to 2000 do
    MD.upsert t c k (k * 7)
  done;
  MD.commit t;
  let a = Wal.Apply.create ~data_page_size:page_size () in
  let batches = ref [] in
  let rec pull lsn =
    match PS.wal_fetch store ~lsn ~max_pages:64 with
    | Wal.Pages { pages; next } ->
        List.iter
          (fun p ->
            match Wal.Apply.step a p with
            | Wal.Apply.Batch b -> batches := b :: !batches
            | Wal.Apply.Progress -> ()
            | Wal.Apply.Reject msg -> Alcotest.failf "stream: %s" msg)
          pages;
        pull next
    | Wal.At_end | Wal.Stale -> ()
  in
  pull 0;
  let last = List.hd !batches in
  let records = last.Wal.Apply.b_logical in
  Alcotest.(check bool)
    (Printf.sprintf "split across several records (%d)" (List.length records))
    true
    (List.length records > 10);
  List.iter
    (fun r ->
      Alcotest.(check bool) "each record fits a page" true (Bytes.length r <= page_size))
    records;
  let entries = Repro_core.Mvcc.decode_logical ~dec:Fun.id records in
  Alcotest.(check int) "every upsert's slot logged once" 2000 (List.length entries);
  (* and the pages wait for the fold *)
  Alcotest.(check bool) "no vrec page in the commit" true
    (List.for_all
       (fun (_, img) -> (Codec.of_bytes img).Node.level <> Node.vrec_level)
       last.Wal.Apply.b_images)

(* ---------- durable mode (version chains through the paged store) ---------- *)

module MD = Tree_intf.Mvcc_disk
module Pg = Tree_intf.Paged_int
module Sh = Tree_intf.Sharded_int

let temp_base tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "mvcc_durable_%s_%d" tag (Unix.getpid ()))

let rm f = try Sys.remove f with Sys_error _ -> ()

let test_durable_roundtrip () =
  let path = temp_base "rt" and wal = temp_base "rt.wal" in
  rm path;
  rm wal;
  let store = Pg.create_file ~wal_path:wal path in
  let t =
    MD.create_durable ~order:4 ~enc:Fun.id ~dec:Fun.id store
  in
  let c = mctx ~slot:0 in
  for k = 1 to 200 do
    MD.upsert t c k (k * 10)
  done;
  (* churn: overwrites build chains, deletes leave tombstones *)
  for k = 1 to 50 do
    MD.upsert t c k (k * 100)
  done;
  for k = 151 to 170 do
    ignore (MD.delete t c k : bool)
  done;
  MD.commit t;
  Alcotest.(check bool) "durable" true (MD.durable t);
  (* a commit logs the changed slots; pages wait for the fold *)
  Alcotest.(check int) "nothing folded at commit" 0 (MD.persisted_versions t);
  Pg.close store;
  (* the store's close checkpoints, and its checkpoint folds first *)
  Alcotest.(check bool) "versions persisted" true (MD.persisted_versions t > 200);
  Alcotest.(check bool) "vrec pages allocated" true (MD.persisted_pages t > 0);
  (* reopen: chains must replay exactly *)
  let store = Pg.open_file ~wal_path:wal path in
  let t = MD.open_durable ~enc:Fun.id ~dec:Fun.id store in
  let c = mctx ~slot:0 in
  Alcotest.(check (option int)) "overwritten key newest" (Some 100) (MD.get t c 1);
  Alcotest.(check (option int)) "untouched key" (Some 1000) (MD.get t c 100);
  Alcotest.(check (option int)) "tombstoned key" None (MD.get t c 160);
  Alcotest.(check int) "cardinal" 180 (MD.cardinal t);
  (* overwritten chains kept both versions across the reopen *)
  Alcotest.(check bool)
    (Printf.sprintf "chains replayed (%d live versions)" (MD.live_versions t))
    true
    (MD.live_versions t >= 250);
  (* a fresh snapshot over the recovered store still gives a cut *)
  let s = MD.snapshot t in
  MD.upsert t c 1 7;
  Alcotest.(check (option int)) "snap sees recovered version" (Some 100)
    (MD.snap_get t s c 1);
  Alcotest.(check (option int)) "now sees new" (Some 7) (MD.get t c 1);
  MD.release s;
  Pg.close store;
  rm path;
  rm wal

let test_durable_migrates_plain_store () =
  let path = temp_base "mig" in
  rm path;
  (* build a plain (unversioned, v2-only) tree and flush it *)
  let store = Pg.create_file path in
  let module Sd = Tree_intf.Sagiv_disk in
  let pt = Sd.create ~order:4 ~store () in
  let c = Sd.ctx ~slot:0 in
  for k = 1 to 100 do
    ignore (Sd.insert pt c k (k * 3))
  done;
  Sd.flush pt;
  Pg.close store;
  (* open it as durable MVCC: payloads migrate into one-version chains *)
  let store = Pg.open_file path in
  let t = MD.open_durable ~enc:Fun.id ~dec:Fun.id store in
  let c = mctx ~slot:0 in
  Alcotest.(check (option int)) "migrated value" (Some 3) (MD.get t c 1);
  Alcotest.(check int) "migrated cardinal" 100 (MD.cardinal t);
  Alcotest.(check int) "one version per key" 100 (MD.live_versions t);
  MD.upsert t c 1 999;
  MD.commit t;
  Pg.close store;
  (* and the migrated store reopens as MVCC from then on *)
  let store = Pg.open_file path in
  let t = MD.open_durable ~enc:Fun.id ~dec:Fun.id store in
  let c = mctx ~slot:0 in
  Alcotest.(check (option int)) "post-migration upsert" (Some 999) (MD.get t c 1);
  Alcotest.(check int) "chain grew" 101 (MD.live_versions t);
  Pg.close store;
  rm path

let test_durable_no_resurrection () =
  let path = temp_base "prune" and wal = temp_base "prune.wal" in
  rm path;
  rm wal;
  let store = Pg.create_file ~wal_path:wal path in
  let t =
    MD.create_durable ~order:4 ~enc:Fun.id ~dec:Fun.id store
  in
  let c = mctx ~slot:0 in
  for k = 1 to 40 do
    for v = 1 to 5 do
      MD.upsert t c k ((k * 10) + v)
    done
  done;
  MD.commit t;
  Alcotest.(check int) "5 versions per chain" 200 (MD.live_versions t);
  (* no pins: vacuum prunes every chain to its newest version *)
  ignore (MD.vacuum t c : int);
  ignore (MD.reclaim t : int);
  MD.commit t;
  Alcotest.(check int) "pruned to newest" 40 (MD.live_versions t);
  Pg.close store;
  (* WAL replay rematerializes pre-prune page images; the persisted
     horizon must re-prune them — pruned versions never resurrect *)
  let store = Pg.open_file ~wal_path:wal path in
  let t = MD.open_durable ~enc:Fun.id ~dec:Fun.id store in
  let c = mctx ~slot:0 in
  Alcotest.(check int) "no resurrection" 40 (MD.live_versions t);
  Alcotest.(check (option int)) "newest survives" (Some 15) (MD.get t c 1);
  Pg.close store;
  rm path;
  rm wal

let test_durable_sharded_reopen () =
  let path = temp_base "shard" and wal = temp_base "shard.wal" in
  let shards = 4 in
  for i = 0 to shards - 1 do
    rm (Sh.shard_path path i);
    rm (Sh.shard_path wal i)
  done;
  let sst = Sh.create_file ~wal_path:wal ~shards path in
  let _, h = Tree_intf.sagiv_mvcc_disk_on ~order:4 sst in
  let c = mctx ~slot:0 in
  for k = 1 to 400 do
    ignore (h.Tree_intf.insert c k (k * 2))
  done;
  for k = 1 to 100 do
    ignore (h.Tree_intf.delete c k)
  done;
  h.Tree_intf.commit ();
  Sh.close sst;
  let sst = Sh.open_file ~wal_path:wal ~shards path in
  let ts, h = Tree_intf.sagiv_mvcc_disk_open sst in
  Alcotest.(check int) "shards reopened" shards (Array.length ts);
  Alcotest.(check int) "cardinal across shards" 300 (h.Tree_intf.cardinal ());
  Alcotest.(check (option int)) "routed read" (Some 400) (h.Tree_intf.search c 200);
  (* the reopened composition still serves a true cross-shard cut *)
  let m = Option.get h.Tree_intf.mvcc in
  let s = m.Tree_intf.snapshot () in
  ignore (h.Tree_intf.insert c 1 111);
  ignore (h.Tree_intf.delete c 150);
  Alcotest.(check (option int)) "snap misses post-cut insert" None
    (s.Tree_intf.snap_search c 1);
  Alcotest.(check (option int)) "snap keeps post-cut delete" (Some 300)
    (s.Tree_intf.snap_search c 150);
  Alcotest.(check int) "snap range one cut" 300
    (List.length (s.Tree_intf.snap_range c ~lo:1 ~hi:400));
  s.Tree_intf.snap_release ();
  Sh.close sst;
  for i = 0 to shards - 1 do
    rm (Sh.shard_path path i);
    rm (Sh.shard_path wal i)
  done

let suite =
  [
    ("snapshot visibility", `Quick, test_snapshot_visibility);
    ("vacuum stops behind a pin", `Quick, test_vacuum_behind_pin);
    ("version chains prune", `Quick, test_version_pruning);
    ("group snapshot shares one cut", `Quick, test_group_snapshot);
    ("4-writer scan oracle (single tree)", `Quick, test_scan_oracle_single);
    ("4-writer scan oracle (sharded cut)", `Quick, test_scan_oracle_sharded);
    ("unversioned range stays weak but well-formed", `Quick, test_weak_range_documented);
    ("oracle rejects infeasible scans", `Quick, test_oracle_rejects);
    ("online backup under churn", `Quick, test_online_backup_under_churn);
    ("online leak check under churn", `Quick, test_online_leak_check);
    ("fold_all equals range when quiescent", `Quick, test_full_fold_quiescent);
    ("SNAPSHOT frame roundtrip", `Quick, test_snapshot_frame_roundtrip);
    ("server snapshot session", `Quick, test_server_snapshot_session);
    ("snapshot on plain backend refused", `Quick, test_server_snapshot_unsupported);
    ( "SNAPSHOT pin released on connection crash",
      `Quick,
      test_server_pin_survives_conn_crash );
    ("replica scans pin one horizon", `Quick, test_replica_scan_horizon);
    ("durable chains survive close/reopen", `Quick, test_durable_roundtrip);
    ("plain v2 store migrates in place", `Quick, test_durable_migrates_plain_store);
    ("pruned versions never resurrect", `Quick, test_durable_no_resurrection);
    ("sharded durable MVCC reopens with one cut", `Quick, test_durable_sharded_reopen);
    ("logical records round-trip every slot state", `Quick, test_logical_roundtrip);
    ("2000 upserts split across page-sized records", `Quick, test_logical_split);
    ( "vacuum re-queues a live chain a pin held",
      `Quick,
      test_vacuum_requeues_pinned_live_chain );
  ]
