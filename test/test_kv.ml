(* The key-value store: the index over a record heap ([Mvcc] at string
   payloads), sequential and concurrent, with record-slot reclamation. *)

open Repro_storage
module KV = Repro_core.Mvcc.Make (Key.Int)

let ctx = KV.ctx
let create ~order = KV.create ~order ~size:String.length ()

(* Vacuum dead pairs and stale versions, then free what passed its grace
   period: vacuum first, it retires the slots reclaim then frees. *)
let reclaim kv c =
  let removed = KV.vacuum kv c in
  removed + KV.reclaim kv

let live_records kv = Record_store.live_count (KV.records kv)

let test_record_store_basic () =
  let rs = Record_store.create ~size:String.length () in
  let a = Record_store.put rs ~epoch:0 "hello" in
  let b = Record_store.put rs ~epoch:0 "world" in
  Alcotest.(check (option string)) "a" (Some "hello") (Record_store.get rs a);
  Alcotest.(check (option string)) "b" (Some "world") (Record_store.get rs b);
  Alcotest.(check int) "live" 2 (Record_store.live_count rs);
  Alcotest.(check int) "bytes" 10 (Record_store.bytes_stored rs);
  Record_store.free rs a;
  (match Record_store.get rs a with
  | exception Record_store.Freed_record _ -> ()
  | _ -> Alcotest.fail "freed record readable");
  let c = Record_store.put rs ~epoch:0 "again" in
  Alcotest.(check int) "slot recycled" a c;
  Alcotest.(check int) "live after recycle" 2 (Record_store.live_count rs)

let test_record_store_concurrent () =
  let rs = Record_store.create ~size:String.length () in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            Array.init 2_000 (fun i ->
                let s = Printf.sprintf "%d:%d" d i in
                (Record_store.put rs ~epoch:0 s, s))))
  in
  let all = Array.concat (Array.to_list (Array.map Domain.join domains)) in
  Array.iter
    (fun (p, s) ->
      if Record_store.get rs p <> Some s then Alcotest.failf "record %d corrupted" p)
    all

let test_kv_basic () =
  let kv = create ~order:4 in
  let c = ctx ~slot:0 in
  KV.upsert kv c 1 "one";
  KV.upsert kv c 2 "two";
  Alcotest.(check (option string)) "get" (Some "one") (KV.get kv c 1);
  Alcotest.(check (option string)) "miss" None (KV.get kv c 3);
  KV.upsert kv c 1 "uno";
  Alcotest.(check (option string)) "overwrite" (Some "uno") (KV.get kv c 1);
  Alcotest.(check bool) "remove" true (KV.delete kv c 1);
  Alcotest.(check bool) "remove gone" false (KV.delete kv c 1);
  Alcotest.(check (option string)) "after remove" None (KV.get kv c 1);
  Alcotest.(check int) "cardinal" 1 (KV.cardinal kv)

let test_kv_oracle () =
  let kv = create ~order:4 in
  let c = ctx ~slot:0 in
  let model = Hashtbl.create 97 in
  let rng = Repro_util.Splitmix.create 8 in
  for i = 1 to 20_000 do
    let k = Repro_util.Splitmix.int rng 1_000 in
    match Repro_util.Splitmix.int rng 3 with
    | 0 ->
        let v = Printf.sprintf "v%d@%d" k i in
        Hashtbl.replace model k v;
        KV.upsert kv c k v
    | 1 ->
        let expected = Hashtbl.mem model k in
        Hashtbl.remove model k;
        if KV.delete kv c k <> expected then Alcotest.failf "remove %d diverged" k
    | _ ->
        if KV.get kv c k <> Hashtbl.find_opt model k then
          Alcotest.failf "get %d diverged at op %d" k i
  done;
  Alcotest.(check int) "cardinal" (Hashtbl.length model) (KV.cardinal kv);
  (* periodic reclamation frees overwritten records *)
  ignore (reclaim kv c);
  Alcotest.(check int) "live records = live keys" (Hashtbl.length model)
    (live_records kv)

let test_kv_range () =
  let kv = create ~order:4 in
  let c = ctx ~slot:0 in
  for k = 0 to 99 do
    KV.upsert kv c k (string_of_int (k * 2))
  done;
  let b = KV.range kv c ~lo:10 ~hi:14 in
  Alcotest.(check (list (pair int string)))
    "bindings"
    [ (10, "20"); (11, "22"); (12, "24"); (13, "26"); (14, "28") ]
    b;
  let sum = KV.fold_range kv c ~lo:0 ~hi:99 ~init:0 (fun acc _ v -> acc + int_of_string v) in
  Alcotest.(check int) "fold" (2 * (99 * 100 / 2)) sum

let test_kv_concurrent_updates () =
  (* Readers continuously get keys while writers overwrite them; every
     read must return a complete value some writer wrote for that key —
     never a torn/wrong-key value, and never hit a reclaimed slot. *)
  let kv = create ~order:8 in
  let c = ctx ~slot:0 in
  let keys = 500 in
  for k = 0 to keys - 1 do
    KV.upsert kv c k (Printf.sprintf "%d:init" k)
  done;
  let stop = Atomic.make false in
  let errors = Atomic.make 0 in
  let writers =
    Array.init 2 (fun w ->
        Domain.spawn (fun () ->
            let wc = ctx ~slot:(1 + w) in
            let rng = Repro_util.Splitmix.create (w + 40) in
            for i = 1 to 30_000 do
              let k = Repro_util.Splitmix.int rng keys in
              KV.upsert kv wc k (Printf.sprintf "%d:w%d.%d" k w i);
              if i mod 1000 = 0 then ignore (reclaim kv c)
            done))
  in
  let readers =
    Array.init 2 (fun r ->
        Domain.spawn (fun () ->
            let rc = ctx ~slot:(3 + r) in
            let rng = Repro_util.Splitmix.create (r + 50) in
            while not (Atomic.get stop) do
              let k = Repro_util.Splitmix.int rng keys in
              match KV.get kv rc k with
              | Some v ->
                  (* value must start with "<k>:" *)
                  let prefix = string_of_int k ^ ":" in
                  if
                    String.length v < String.length prefix
                    || String.sub v 0 (String.length prefix) <> prefix
                  then Atomic.incr errors
              | None -> Atomic.incr errors
              | exception Record_store.Freed_record _ -> Atomic.incr errors
            done))
  in
  Array.iter Domain.join writers;
  Atomic.set stop true;
  Array.iter Domain.join readers;
  Alcotest.(check int) "no torn/stale/freed reads" 0 (Atomic.get errors);
  ignore (reclaim kv c);
  Alcotest.(check int) "records = keys after reclaim" keys (live_records kv)

let test_kv_reclaim_bounded () =
  (* Overwriting the same key many times must not leak records. *)
  let kv = create ~order:4 in
  let c = ctx ~slot:0 in
  for i = 1 to 10_000 do
    KV.upsert kv c 7 (string_of_int i);
    if i mod 100 = 0 then ignore (reclaim kv c)
  done;
  ignore (reclaim kv c);
  Alcotest.(check int) "single live record" 1 (live_records kv);
  Alcotest.(check (option string)) "latest wins" (Some "10000") (KV.get kv c 7)

let suite =
  [
    Alcotest.test_case "record store basics" `Quick test_record_store_basic;
    Alcotest.test_case "record store concurrent" `Quick test_record_store_concurrent;
    Alcotest.test_case "kv basics" `Quick test_kv_basic;
    Alcotest.test_case "kv vs oracle" `Quick test_kv_oracle;
    Alcotest.test_case "kv range" `Quick test_kv_range;
    Alcotest.test_case "kv concurrent updates" `Quick test_kv_concurrent_updates;
    Alcotest.test_case "kv reclaim bounded" `Quick test_kv_reclaim_bounded;
  ]
