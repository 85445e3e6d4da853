(* A concurrent key-value store built on the tree: the dense index over a
   record heap, with overwrites, deletes, range queries and record-slot
   reclamation — a miniature of the "large file + B*-tree index" system
   the paper targets. The store is [Mvcc] at string payloads.

   Run with:  dune exec examples/kv_store.exe *)

open Repro_storage
module KV = Repro_core.Mvcc.Make (Key.Int)

let accounts = 10_000

let () =
  let store = KV.create ~order:16 ~size:String.length () in
  let c = KV.ctx ~slot:0 in

  (* Seed account records. *)
  for id = 0 to accounts - 1 do
    KV.upsert store c id (Printf.sprintf "{\"id\":%d,\"balance\":100}" id)
  done;
  Printf.printf "seeded %d accounts (%d bytes of records, index height %d)\n" accounts
    (KV.bytes_stored store)
    (KV.T.height (KV.tree store));

  (* Concurrent traffic: two writers update balances, one auditor scans
     ranges, one janitor reclaims retired record slots. *)
  let stop = Atomic.make false in
  let writers =
    Array.init 2 (fun w ->
        Domain.spawn (fun () ->
            let ctx = KV.ctx ~slot:(1 + w) in
            let rng = Repro_util.Splitmix.create (w + 123) in
            let n = ref 0 in
            for i = 1 to 50_000 do
              let id = Repro_util.Splitmix.int rng accounts in
              KV.upsert store ctx id
                (Printf.sprintf "{\"id\":%d,\"balance\":%d}" id (100 + i));
              incr n
            done;
            !n))
  in
  let auditor =
    Domain.spawn (fun () ->
        let ctx = KV.ctx ~slot:3 in
        let scans = ref 0 in
        while not (Atomic.get stop) do
          let lo = !scans * 97 mod accounts in
          let n =
            KV.fold_range store ctx ~lo ~hi:(lo + 499) ~init:0 (fun acc _ _ -> acc + 1)
          in
          if n = 0 then failwith "range scan lost a whole bucket";
          incr scans
        done;
        !scans)
  in
  (* vacuum retires dead pairs and stale versions; reclaim then frees
     the slots whose grace period has passed *)
  let reclaim ctx =
    let removed = KV.vacuum store ctx in
    removed + KV.reclaim store
  in
  let janitor =
    Domain.spawn (fun () ->
        let jctx = KV.ctx ~slot:4 in
        let freed = ref 0 in
        while not (Atomic.get stop) do
          freed := !freed + reclaim jctx;
          Domain.cpu_relax ()
        done;
        !freed)
  in
  let written = Array.fold_left (fun acc d -> acc + Domain.join d) 0 writers in
  Atomic.set stop true;
  let scans = Domain.join auditor in
  let freed = Domain.join janitor in
  let freed = freed + reclaim c in

  Printf.printf "applied %d overwrites; auditor completed %d range scans\n" written scans;
  Printf.printf "janitor reclaimed %d retired record slots; %d live records remain\n"
    freed
    (Record_store.live_count (KV.records store));

  (* Spot-check consistency: every account resolves to a record for ITS id. *)
  for id = 0 to accounts - 1 do
    match KV.get store c id with
    | Some json ->
        let prefix = Printf.sprintf "{\"id\":%d," id in
        if String.length json < String.length prefix
           || String.sub json 0 (String.length prefix) <> prefix
        then failwith "record mismatch"
    | None -> failwith "account lost"
  done;
  Printf.printf "all %d accounts consistent; final store: %d bytes\n" accounts
    (KV.bytes_stored store)
