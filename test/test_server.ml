(* The network layer: protocol frame roundtrips and rejection of
   malformed / truncated / oversized / corrupted frames; the live
   server's pipelined sessions, per-connection error isolation,
   connection-drop robustness; ≥4-client concurrent linearizability
   through real sockets, hot-key pipelined batches included; the WAL
   ack-durability contract — an acked write survives a crash taken
   right after the ack; and a pipeline far past the socket buffers. *)

open Repro_storage
open Repro_baseline
open Repro_harness
module P = Repro_server.Protocol
module Server = Repro_server.Server
module C = Repro_client.Client
module PS = Tree_intf.Paged_int
module Sg = Tree_intf.Sagiv_disk

let response = Alcotest.testable P.pp_response ( = )

(* ---------- protocol ---------- *)

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

(* The [Buffer.t] entry point's frame, after checking that the writer the
   server and client flush from renders the very same bytes. *)
let encoded encode write r =
  let b = Buffer.create 64 in
  encode b r;
  let w = P.Writer.create () in
  write w r;
  let bytes = Buffer.to_bytes b in
  Alcotest.(check string) "Buffer.t entry point = writer"
    (hex (Bytes.sub (P.Writer.bytes w) 0 (P.Writer.length w)))
    (hex bytes);
  bytes

let roundtrip_req r =
  let bytes =
    encoded (P.encode_request ~seq:7) (P.Writer.request ~seq:7) r
  in
  match P.decode_request bytes ~pos:0 ~len:(Bytes.length bytes) with
  | Frame { seq; body; consumed } ->
      Alcotest.(check int) "seq" 7 seq;
      Alcotest.(check int) "consumed" (Bytes.length bytes) consumed;
      Alcotest.(check bool) "body" true (body = r)
  | Need_more -> Alcotest.fail "complete request decoded as Need_more"

let roundtrip_resp r =
  let bytes =
    encoded (P.encode_response ~seq:3) (P.Writer.response ~seq:3) r
  in
  match P.decode_response bytes ~pos:0 ~len:(Bytes.length bytes) with
  | Frame { seq; body; consumed } ->
      Alcotest.(check int) "seq" 3 seq;
      Alcotest.(check int) "consumed" (Bytes.length bytes) consumed;
      Alcotest.check response "body" r body
  | Need_more -> Alcotest.fail "complete response decoded as Need_more"

let sample_stats =
  {
    P.s_conns_opened = 1; s_conns_active = 2; s_frames_in = 3;
    s_frames_out = 4; s_bytes_in = 5; s_bytes_out = 6;
    s_max_pipeline = 7; s_protocol_errors = 8; s_acked_commits = 9;
    s_lat_p50_us = 10; s_lat_p99_us = 11; s_cardinal = 12;
    s_height = 13;
  }

(* One frame of every kind, byte for byte: magic "BL", version 2, the
   opcode or status, seq, payload length, the payload's mx32, then the
   big-endian payload. A layout change has to change these. *)
let golden_requests =
  [
    ( P.Insert { key = 1; value = -2 },
      "424c02010000000700000010c21eca5a" ^ "0000000000000001fffffffffffffffe" );
    (P.Delete { key = 42 }, "424c020200000007000000083bb81215000000000000002a");
    (P.Search { key = -42 }, "424c020300000007000000082d62c3a1ffffffffffffffd6");
    ( P.Range { lo = -10; hi = 10 },
      "424c0204000000070000001012bbb90bfffffffffffffff6000000000000000a" );
    (P.Commit, "424c02050000000700000000380b481b");
    (P.Stats, "424c02060000000700000000380b481b");
    ( P.Subscribe { shard = 1; from_lsn = 258; max_pages = 16; wait_ms = 500 },
      "424c020700000007000000149004b252"
      ^ "00000001000000000000010200000010000001f4" );
    (P.Snapshot { close = true }, "424c0208000000070000000405f28ea500000001");
  ]

let golden_responses =
  [
    (P.Inserted, "424c02400000000300000000380b481b");
    (P.Duplicate, "424c02410000000300000000380b481b");
    (P.Deleted, "424c02420000000300000000380b481b");
    (P.Absent, "424c02430000000300000000380b481b");
    (P.Found (-123456789), "424c024400000003000000081e3de236fffffffff8a432eb");
    ( P.Pairs [ (1, 10); (-2, 20) ],
      "424c02450000000300000024f7211e6b00000002"
      ^ "0000000000000001000000000000000afffffffffffffffe0000000000000014" );
    (P.Committed, "424c02460000000300000000380b481b");
    ( P.Stats_reply sample_stats,
      "424c024700000003000000683a634eba"
      ^ String.concat ""
          (List.init 13 (fun i -> Printf.sprintf "%016x" (i + 1))) );
    ( P.Wal_chunk
        { shard = 2; next_lsn = 9; pages = [ Bytes.of_string "abcd"; Bytes.of_string "efgh" ] },
      "424c0248000000030000001cfeb54e06"
      ^ "00000002000000000000000900000004000000026162636465666768" );
    (P.Snap_reply { epoch = 5 }, "424c02490000000300000008268265b20000000000000005");
    (P.Error "boom", "424c02ff0000000300000004b52848e9626f6f6d");
  ]

let test_roundtrip () =
  List.iter
    (fun (r, golden) ->
      Alcotest.(check string)
        (Format.asprintf "%a" P.pp_request r)
        golden
        (hex (encoded (P.encode_request ~seq:7) (P.Writer.request ~seq:7) r));
      roundtrip_req r)
    golden_requests;
  List.iter
    (fun (r, golden) ->
      Alcotest.(check string) (P.response_to_string r) golden
        (hex (encoded (P.encode_response ~seq:3) (P.Writer.response ~seq:3) r));
      roundtrip_resp r)
    golden_responses;
  (* the int edges, as keys and as values *)
  let edges = [ min_int; max_int; -1; 0 ] in
  List.iter
    (fun k ->
      List.iter
        (fun v -> roundtrip_req (P.Insert { key = k; value = v }))
        edges;
      roundtrip_req (P.Delete { key = k });
      roundtrip_req (P.Search { key = k });
      roundtrip_req (P.Range { lo = k; hi = -k });
      roundtrip_resp (P.Found k);
      roundtrip_resp (P.Snap_reply { epoch = k }))
    edges;
  roundtrip_resp (P.Pairs (List.concat_map (fun k -> List.map (fun v -> (k, v)) edges) edges));
  List.iter roundtrip_req
    [
      P.Insert { key = 1; value = 2 };
      P.Insert { key = -5; value = max_int };
      P.Insert { key = min_int; value = -1 };
      P.Delete { key = 42 };
      P.Search { key = -42 };
      P.Range { lo = -10; hi = 10 };
      P.Commit;
      P.Stats;
    ];
  List.iter roundtrip_resp
    [
      P.Inserted;
      P.Duplicate;
      P.Deleted;
      P.Absent;
      P.Found (-123456789);
      P.Pairs [];
      P.Pairs [ (1, 10); (-2, 20); (3, -30) ];
      P.Committed;
      P.Stats_reply sample_stats;
      P.Error "boom";
    ]

(* Frames encoded and decoded on four domains at once come back as their
   own: the scratch writer behind the [Buffer.t] entry points is not
   shared between domains. *)
let test_domain_private_scratch () =
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 499 do
              let req = P.Insert { key = (d * 1_000_000) + i; value = -d } in
              let resp = P.Pairs (List.init ((i + d) mod 40) (fun j -> (d, i + j))) in
              let b = Buffer.create 64 in
              P.encode_request b ~seq:i req;
              P.encode_response b ~seq:(i + 1) resp;
              let bytes = Buffer.to_bytes b in
              let len = Bytes.length bytes in
              match P.decode_request bytes ~pos:0 ~len with
              | Frame { seq; body; consumed } -> (
                  if seq <> i || body <> req then
                    Alcotest.failf "domain %d got another request at %d" d i;
                  match P.decode_response bytes ~pos:consumed ~len:(len - consumed) with
                  | Frame { seq; body; _ } ->
                      if seq <> i + 1 || body <> resp then
                        Alcotest.failf "domain %d got another response at %d" d i
                  | Need_more -> Alcotest.fail "response cut short")
              | Need_more -> Alcotest.fail "request cut short"
            done))
  in
  List.iter Domain.join domains

(* Every strict prefix of a frame must decode as Need_more, never raise:
   a reader that has half a frame just waits for the rest. *)
let test_truncated () =
  let b = Buffer.create 64 in
  P.encode_request b ~seq:1 (P.Insert { key = 99; value = 100 });
  let bytes = Buffer.to_bytes b in
  for len = 0 to Bytes.length bytes - 1 do
    match P.decode_request bytes ~pos:0 ~len with
    | Need_more -> ()
    | Frame _ -> Alcotest.failf "prefix of %d bytes decoded a frame" len
  done

(* Two frames back to back decode in order, [consumed] advancing. *)
let test_stream () =
  let b = Buffer.create 64 in
  P.encode_request b ~seq:1 (P.Search { key = 5 });
  P.encode_request b ~seq:2 P.Commit;
  let bytes = Buffer.to_bytes b in
  let len = Bytes.length bytes in
  match P.decode_request bytes ~pos:0 ~len with
  | Need_more -> Alcotest.fail "first frame"
  | Frame { seq; consumed; _ } -> (
      Alcotest.(check int) "first seq" 1 seq;
      match P.decode_request bytes ~pos:consumed ~len:(len - consumed) with
      | Need_more -> Alcotest.fail "second frame"
      | Frame { seq; consumed = c2; _ } ->
          Alcotest.(check int) "second seq" 2 seq;
          Alcotest.(check int) "stream fully consumed" len (consumed + c2))

let expect_bad what f =
  match f () with
  | exception P.Bad_frame _ -> ()
  | P.Need_more -> Alcotest.failf "%s: Need_more instead of Bad_frame" what
  | P.Frame _ -> Alcotest.failf "%s: decoded instead of Bad_frame" what

let test_malformed () =
  let fresh () =
    let b = Buffer.create 64 in
    P.encode_request b ~seq:1 (P.Insert { key = 1; value = 2 });
    Buffer.to_bytes b
  in
  let decode bytes ?max_payload () =
    P.decode_request ?max_payload bytes ~pos:0 ~len:(Bytes.length bytes)
  in
  let patch off v =
    let bytes = fresh () in
    Bytes.set bytes off (Char.chr v);
    bytes
  in
  expect_bad "magic" (decode (patch 0 0x58));
  expect_bad "version" (decode (patch 2 9));
  expect_bad "opcode" (decode (patch 3 200));
  (* oversized: the length field alone must reject the frame, before any
     attempt to buffer the payload *)
  let oversized = fresh () in
  Bytes.set oversized 8 '\x7f';
  expect_bad "oversized" (decode oversized);
  expect_bad "small cap" (decode (fresh ()) ~max_payload:8);
  (* flip one payload bit: checksum must catch it *)
  let corrupt = fresh () in
  Bytes.set corrupt 20 (Char.chr (Char.code (Bytes.get corrupt 20) lxor 1));
  expect_bad "checksum" (decode corrupt);
  (* a one-bit flip anywhere in a 50-pair reply: 804 payload bytes cover
     both mx32 lanes and its byte tail *)
  let b = Buffer.create 1024 in
  P.encode_response b ~seq:1 (P.Pairs (List.init 50 (fun i -> (i - 25, i * 7))));
  let pairs = Buffer.to_bytes b in
  for off = P.header_size to Bytes.length pairs - 1 do
    let flipped = Bytes.copy pairs in
    Bytes.set_uint8 flipped off (Bytes.get_uint8 flipped off lxor (1 lsl (off mod 8)));
    expect_bad
      (Printf.sprintf "bit flip at byte %d" off)
      (fun () -> P.decode_response flipped ~pos:0 ~len:(Bytes.length flipped))
  done;
  (* a version-1 frame, FNV-checksummed as v1 was, is refused *)
  let v1 = fresh () in
  Bytes.set_uint8 v1 2 1;
  let plen = Bytes.length v1 - P.header_size in
  Bytes.set_int32_be v1 12
    (Int32.of_int (Repro_util.Checksum.fnv32 v1 ~pos:P.header_size ~len:plen));
  expect_bad "version 1" (decode v1)

(* ---------- live server helpers ---------- *)

let loopback = Unix.ADDR_INET (Unix.inet_addr_loopback, 0)

let with_server ?workers ?durable_acks ?(handle = (Tree_intf.sagiv ()).make ~order:4)
    ?(listen = [ loopback ]) f =
  let srv = Server.start ?workers ?durable_acks ~handle ~listen () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f srv (List.hd (Server.addresses srv)))

let with_client addr f =
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) (fun () -> f c)

let test_session () =
  with_server @@ fun srv addr ->
  with_client addr @@ fun c ->
  Alcotest.(check bool) "insert" true (C.insert c ~key:1 ~value:10 = `Ok);
  Alcotest.(check bool) "dup" true (C.insert c ~key:1 ~value:11 = `Duplicate);
  Alcotest.(check (option int)) "search" (Some 10) (C.search c ~key:1);
  Alcotest.(check (option int)) "miss" None (C.search c ~key:2);
  Alcotest.(check bool) "delete" true (C.delete c ~key:1);
  Alcotest.(check bool) "delete miss" false (C.delete c ~key:1);
  for k = 1 to 50 do
    ignore (C.insert c ~key:k ~value:(k * 2))
  done;
  Alcotest.(check (list (pair int int)))
    "range" [ (10, 20); (11, 22); (12, 24) ] (C.range c ~lo:10 ~hi:12);
  C.commit c;
  let s = C.stats c in
  Alcotest.(check int) "cardinal" 50 s.P.s_cardinal;
  Alcotest.(check bool) "frames counted" true (s.P.s_frames_in > 50);
  let m = Server.stats srv in
  Alcotest.(check int) "one connection" 1 m.Stats.conns_opened

(* A deep pipelined batch answers in order, one response per request,
   and counts as one high-water mark. *)
let test_pipeline () =
  with_server @@ fun srv addr ->
  with_client addr @@ fun c ->
  let n = 500 in
  let reqs =
    List.init n (fun i ->
        if i mod 2 = 0 then P.Insert { key = i; value = i }
        else P.Search { key = i - 1 })
  in
  let resps = C.pipeline c reqs in
  Alcotest.(check int) "one response per request" n (List.length resps);
  List.iteri
    (fun i r ->
      let expect = if i mod 2 = 0 then P.Inserted else P.Found (i - 1) in
      Alcotest.check response (Printf.sprintf "op %d" i) expect r)
    resps;
  let m = Server.stats srv in
  Alcotest.(check bool)
    (Printf.sprintf "pipeline high-water %d > 1" m.Stats.max_pipeline)
    true
    (m.Stats.max_pipeline > 1)

(* A bad frame earns a final Error and costs only that connection: the
   poisoned client sees the error then EOF, and a fresh connection is
   served as if nothing happened. *)
let test_error_isolation () =
  with_server @@ fun srv addr ->
  (with_client addr @@ fun c ->
   Alcotest.(check bool) "seed" true (C.insert c ~key:7 ~value:70 = `Ok));
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) SOCK_STREAM 0
  in
  Unix.connect fd addr;
  let garbage = Bytes.of_string "XXXXXXXXXXXXXXXXXXXXXXXX" in
  ignore (Unix.write fd garbage 0 (Bytes.length garbage));
  (* the terminal Error frame, then EOF *)
  let buf = Bytes.create 4096 in
  let n = Unix.read fd buf 0 4096 in
  (match P.decode_response buf ~pos:0 ~len:n with
  | Frame { body = P.Error _; _ } -> ()
  | _ -> Alcotest.fail "expected a terminal Error frame");
  Alcotest.(check int) "EOF after the error" 0 (Unix.read fd buf 0 4096);
  Unix.close fd;
  (with_client addr @@ fun c ->
   Alcotest.(check (option int))
     "later connections unaffected" (Some 70) (C.search c ~key:7));
  let m = Server.stats srv in
  Alcotest.(check int) "protocol error counted" 1 m.Stats.protocol_errors;
  (* the workers notice the closed fds asynchronously *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec settle () =
    if (Server.stats srv).Stats.conns_active = 0 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "connection leak: conns_active never returned to 0"
    else begin
      Unix.sleepf 0.01;
      settle ()
    end
  in
  settle ()

(* A client that pipelines a batch and drops the connection without
   reading a single response: the batch still executes (acks are lost,
   the work is not) and the server survives the EPIPE. *)
let test_drop_mid_batch () =
  with_server @@ fun _srv addr ->
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) SOCK_STREAM 0
  in
  Unix.connect fd addr;
  let b = Buffer.create 1024 in
  for i = 0 to 49 do
    P.encode_request b ~seq:i (P.Insert { key = 1000 + i; value = i })
  done;
  let bytes = Buffer.to_bytes b in
  ignore (Unix.write fd bytes 0 (Bytes.length bytes));
  Unix.close fd;
  (* the batch raced the drop; poll until the keys land *)
  with_client addr @@ fun c ->
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    if C.search c ~key:1049 = Some 49 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "dropped batch never executed"
    else begin
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ();
  Alcotest.(check (option int)) "first key" (Some 0) (C.search c ~key:1000)

(* ---------- concurrency ---------- *)

(* ≥4 clients hammering one small key space through real sockets; every
   response feeds the per-key linearizability oracle. *)
let test_linearizable () =
  with_server ~workers:4 @@ fun _srv addr ->
  let rec_ = Linearize.recorder () in
  let key_space = 16 and per_client = 400 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let l = Linearize.local rec_ in
            let rng = Random.State.make [| 7000 + d |] in
            with_client addr @@ fun c ->
            for _ = 1 to per_client do
              let key = Random.State.int rng key_space in
              ignore
                (match Random.State.int rng 3 with
                | 0 ->
                    Linearize.record l ~key ~kind:Insert (fun () ->
                        C.insert c ~key ~value:key = `Ok)
                | 1 ->
                    Linearize.record l ~key ~kind:Delete (fun () ->
                        C.delete c ~key)
                | _ ->
                    Linearize.record l ~key ~kind:Search (fun () ->
                        C.search c ~key <> None))
            done;
            Linearize.merge_local l))
  in
  List.iter Domain.join domains;
  let v = Linearize.check (Linearize.events rec_) in
  if not (Linearize.ok v) then
    Alcotest.failf "linearizability violations on keys %s"
      (String.concat ", "
         (List.map (fun (k, _) -> string_of_int k) v.Linearize.violations));
  Alcotest.(check int) "all keys checked" key_space v.Linearize.keys_checked

(* 4 clients pipelining disjoint key ranges concurrently; every ack must
   be reflected in the final tree. *)
let test_concurrent_pipelines () =
  with_server ~workers:4 @@ fun _srv addr ->
  let per_client = 300 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            with_client addr @@ fun c ->
            let base = d * per_client in
            let resps =
              C.pipeline c
                (List.init per_client (fun i ->
                     P.Insert { key = base + i; value = base + i }))
            in
            List.for_all (( = ) P.Inserted) resps))
  in
  let all_acked = List.for_all Domain.join domains in
  Alcotest.(check bool) "every pipelined insert acked" true all_acked;
  with_client addr @@ fun c ->
  let s = C.stats c in
  Alcotest.(check int) "cardinal" (4 * per_client) s.P.s_cardinal;
  Alcotest.(check int) "five connections served" 5 s.P.s_conns_opened

(* ---------- Unix-domain socket ---------- *)

let test_unix_socket () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "blink-test-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      with_server ~listen:[ Unix.ADDR_UNIX path ] @@ fun _srv addr ->
      with_client addr @@ fun c ->
      Alcotest.(check bool) "insert" true (C.insert c ~key:5 ~value:50 = `Ok);
      Alcotest.(check (option int)) "search" (Some 50) (C.search c ~key:5))

(* ---------- WAL ack durability ---------- *)

(* The contract the server sells under durable acks: snapshot the crash
   image of both devices the moment the client has its acks — no
   shutdown, no extra sync — and recovery must hold every acked key. *)
let test_wal_acked_crash () =
  let data_page_size = 512 in
  let wal_page_size = Wal.log_page_size ~data_page_size in
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:64 ~wal:lfile pfile in
  let t = Sg.create ~order:4 ~store () in
  (* a committed checkpoint generation must exist for the log to replay
     against — same bootstrap the crash battery does *)
  Sg.flush t;
  let handle = Tree_intf.disk_sub_handle t in
  let n = 200 in
  let image, limage =
    with_server ~workers:2 ~durable_acks:true ~handle @@ fun _srv addr ->
    with_client addr @@ fun c ->
    let resps =
      C.pipeline c (List.init n (fun i -> P.Insert { key = i; value = i * 7 }))
    in
    List.iteri
      (fun i r -> Alcotest.check response (Printf.sprintf "ack %d" i) P.Inserted r)
      resps;
    (Paged_file.crash_image pfile, Paged_file.crash_image lfile)
  in
  let store2 = PS.open_from ~cache_pages:64 ~wal:limage image in
  let t2 = Sg.open_existing store2 in
  let c2 = Sg.ctx ~slot:0 in
  for i = 0 to n - 1 do
    match Sg.search t2 c2 i with
    | Some v when v = i * 7 -> ()
    | Some v -> Alcotest.failf "key %d recovered with value %d" i v
    | None -> Alcotest.failf "acked key %d lost across the crash" i
  done

(* ---------- replication over the wire ---------- *)

let check_resps what expected actual =
  Alcotest.(check (list response)) what expected actual

module R = Repro_client.Replica

(* A disk primary: its handle carries its store's log, so the server
   answers subscriptions with no further wiring. *)
let with_wal_primary f =
  let data_page_size = 512 in
  let wal_page_size = Wal.log_page_size ~data_page_size in
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:64 ~wal:lfile pfile in
  let t = Sg.create ~order:4 ~store () in
  Sg.flush t;
  let handle = Tree_intf.disk_sub_handle t in
  let srv =
    Server.start ~workers:2 ~durable_acks:true ~handle ~listen:[ loopback ] ()
  in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f srv (List.hd (Server.addresses srv)))

let drain_replica r c =
  let rec go applied =
    match R.poll ~wait_ms:50 r c with
    | `Applied n -> go (applied + n)
    | `Caught_up -> applied
  in
  go 0

(* A replica subscribing through the real socket catches up with every
   committed batch and serves reads at its horizon; uncommitted work is
   invisible to it. *)
let test_replica_catch_up () =
  with_wal_primary @@ fun _srv addr ->
  with_client addr @@ fun c ->
  for k = 0 to 49 do
    ignore (C.insert c ~key:k ~value:(k * 3))
  done;
  C.commit c;
  with_client addr @@ fun rc ->
  let r = R.create () in
  let batches = drain_replica r rc in
  Alcotest.(check bool) "caught up with >= 1 batch" true (batches >= 1);
  Alcotest.(check int) "replica cardinal" 50 (R.cardinal r);
  let ctx = Repro_core.Handle.ctx ~slot:0 in
  Alcotest.(check (option int)) "replica search" (Some 21) (R.search r ctx 7);
  Alcotest.(check (list (pair int int)))
    "replica range"
    [ (10, 30); (11, 33); (12, 36) ]
    (R.range r ctx ~lo:10 ~hi:12);
  (* more committed writes arrive on the next poll *)
  for k = 50 to 59 do
    ignore (C.insert c ~key:k ~value:(k * 3))
  done;
  C.commit c;
  let more = drain_replica r rc in
  Alcotest.(check bool) "incremental batch applied" true (more >= 1);
  Alcotest.(check int) "replica cardinal after" 60 (R.cardinal r);
  (* under durable acks the ack itself implies a commit — which ships *)
  ignore (C.insert c ~key:999 ~value:1);
  Alcotest.(check bool) "acked write ships" true (drain_replica r rc >= 1);
  Alcotest.(check (option int)) "acked key visible" (Some 1) (R.search r ctx 999)

(* Kill the primary, promote the drained replica in place, and keep
   going read-write from the applied horizon. *)
let test_replica_promotion () =
  let r = R.create () in
  let ctx = Repro_core.Handle.ctx ~slot:0 in
  (with_wal_primary @@ fun _srv addr ->
   (with_client addr @@ fun c ->
    for k = 0 to 29 do
      ignore (C.insert c ~key:k ~value:(k * 5))
    done;
    C.commit c);
   with_client addr @@ fun rc ->
   ignore (drain_replica r rc));
  (* primary gone; the follower owns what it applied *)
  Alcotest.(check bool) "not promoted yet" false (R.promoted r);
  let h = R.handle r in
  (match h.Tree_intf.insert ctx 100 1 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "read-only replica accepted a write");
  R.promote r;
  Alcotest.(check bool) "promoted" true (R.promoted r);
  Alcotest.(check int) "history intact" 30 (R.cardinal r);
  Alcotest.(check bool) "write lands" true (h.Tree_intf.insert ctx 100 1 = `Ok);
  Alcotest.(check bool) "delete lands" true (h.Tree_intf.delete ctx 0);
  h.Tree_intf.commit ();
  Alcotest.(check (option int)) "new key" (Some 1) (R.search r ctx 100);
  Alcotest.(check (option int)) "deleted key" None (R.search r ctx 0);
  Alcotest.(check int) "cardinal tracks" 30 (R.cardinal r)

(* A sharded disk handle carries one log per shard, so its server
   streams every shard with no wiring: a follower of shard 1 holds
   exactly the keys the router sends to shard 1, a shard past the last
   is refused, and a memory handle has nothing to stream. *)
let test_sharded_logs_published () =
  let shards = 2 in
  let sst =
    Tree_intf.Sharded_int.create_memory
      ~page_size:(Tree_intf.page_size_for_order 4) ~shards ()
  in
  let _, handle = Tree_intf.sagiv_disk_sharded_on ~order:4 sst in
  let subscribe c shard =
    C.pipeline c
      [ P.Subscribe { shard; from_lsn = 0; max_pages = 16; wait_ms = 0 } ]
  in
  (with_server ~workers:2 ~durable_acks:true ~handle @@ fun _srv addr ->
   let n = 300 in
   (with_client addr @@ fun c ->
    let resps =
      C.pipeline c (List.init n (fun k -> P.Insert { key = k; value = k * 2 }))
    in
    Alcotest.(check bool) "every insert acked" true
      (List.for_all (( = ) P.Inserted) resps));
   with_client addr @@ fun rc ->
   let r = R.create ~shard:1 () in
   ignore (drain_replica r rc);
   let expect =
     List.filter_map
       (fun k ->
         if Shard_router.shard_of ~shards k = 1 then Some (k, k * 2) else None)
       (List.init n Fun.id)
   in
   Alcotest.(check bool) "the router splits the keys" true
     (expect <> [] && List.length expect < n);
   let ctx = Repro_core.Handle.ctx ~slot:0 in
   Alcotest.(check (list (pair int int)))
     "shard 1's follower holds exactly shard 1's keys" expect
     (R.range r ctx ~lo:0 ~hi:max_int);
   Alcotest.(check int) "follower cardinal" (List.length expect) (R.cardinal r);
   check_resps "a shard past the last is refused"
     [ P.Error "no shard 2 (have 2)" ]
     (subscribe rc 2));
  with_server @@ fun _srv addr ->
  with_client addr @@ fun c ->
  match subscribe c 0 with
  | [ P.Error m ] ->
      Alcotest.(check bool)
        ("memory handle: " ^ m)
        true
        (String.starts_with ~prefix:"replication unsupported" m)
  | _ -> Alcotest.fail "a memory handle answered a subscription"

(* ---------- durable-MVCC replica reads ---------- *)

(* A durable-MVCC primary ships vrec (version-chain) pages through the
   same WAL stream as tree pages. The replica must resolve leaf slot
   pointers through the shipped chains at the persisted clock — raw leaf
   payloads are record pointers, not values. *)
let test_replica_mvcc_reads () =
  let module MD = Tree_intf.Mvcc_disk in
  let data_page_size = 512 in
  let wal_page_size = Wal.log_page_size ~data_page_size in
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:64 ~wal:lfile pfile in
  let md =
    MD.create_durable ~order:4 ~enc:Fun.id ~dec:Fun.id store
  in
  MD.flush md;
  let handle = Tree_intf.mvcc_disk_handle md in
  let srv =
    Server.start ~workers:2 ~durable_acks:true ~handle ~listen:[ loopback ] ()
  in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
  @@ fun () ->
  let addr = List.hd (Server.addresses srv) in
  (with_client addr @@ fun c ->
   for k = 0 to 29 do
     ignore (C.insert c ~key:k ~value:(k * 3))
   done;
   C.commit c);
  with_client addr @@ fun rc ->
  let r = R.create () in
  ignore (drain_replica r rc);
  let ctx = Repro_core.Handle.ctx ~slot:0 in
  Alcotest.(check bool) "mvcc horizon detected" true (R.mvcc_horizon r <> None);
  (* values, not record pointers *)
  Alcotest.(check (option int)) "chain resolved" (Some 21) (R.search r ctx 7);
  Alcotest.(check (list (pair int int)))
    "range resolves chains"
    [ (10, 30); (11, 33); (12, 36) ]
    (R.range r ctx ~lo:10 ~hi:12);
  Alcotest.(check int) "live cardinal" 30 (R.cardinal r);
  (* a tombstone ships as a chain head and reads as absent *)
  (with_client addr @@ fun c ->
   ignore (C.delete c ~key:7);
   C.commit c);
  ignore (drain_replica r rc);
  Alcotest.(check (option int)) "tombstone absent" None (R.search r ctx 7);
  Alcotest.(check int) "tombstone excluded from cardinal" 29 (R.cardinal r);
  (* overwrites append versions; the replica reads the newest at the cut *)
  (with_client addr @@ fun c ->
   ignore (C.insert c ~key:7 ~value:777);
   C.commit c);
  ignore (drain_replica r rc);
  Alcotest.(check (option int)) "resurrected head" (Some 777) (R.search r ctx 7);
  (* the clock ticks on snapshot cuts; the next shipped meta carries it *)
  let s = MD.snapshot md in
  MD.release s;
  (with_client addr @@ fun c ->
   ignore (C.insert c ~key:500 ~value:1);
   C.commit c);
  ignore (drain_replica r rc);
  let h1 = Option.get (R.mvcc_horizon r) in
  Alcotest.(check bool) "horizon advanced past the cut" true (h1 > 0);
  Alcotest.(check (option int)) "post-cut write visible" (Some 1)
    (R.search r ctx 500);
  (* a checkpoint folds the logical records into vrec pages; the next
     generation's first batch drops the replica's overlay, and every
     chain still reads from the folded pages *)
  MD.flush md;
  (with_client addr @@ fun c ->
   ignore (C.insert c ~key:600 ~value:6);
   ignore (C.delete c ~key:10);
   C.commit c);
  ignore (drain_replica r rc);
  Alcotest.(check (option int)) "folded resurrection" (Some 777) (R.search r ctx 7);
  Alcotest.(check (option int)) "folded write" (Some 1) (R.search r ctx 500);
  Alcotest.(check (option int)) "next-generation write" (Some 6) (R.search r ctx 600);
  Alcotest.(check (option int)) "next-generation tombstone" None (R.search r ctx 10);
  Alcotest.(check int) "live cardinal across the checkpoint" 31 (R.cardinal r)

(* ---------- serve flag compatibility matrix ---------- *)

(* One case per row of the Serve_config matrix: every flag combination
   either resolves to a coherent configuration (with the expected ack
   durability) or is rejected with an actionable error.  This replaces
   the ad-hoc guards the CLI used to carry inline — the CLI now applies
   [Serve_config.validate] verbatim, so this table IS the behaviour. *)
let test_serve_config_matrix () =
  let module SC = Repro_server.Serve_config in
  let v ?(tree = "sagiv") ?(backend = "mem") ?(shards = 1) ?(mvcc = false)
      ?path () =
    SC.validate ~tree ~backend ~shards ~mvcc ~path
  in
  let ok name r =
    match r with
    | Ok (c : SC.t) -> c
    | Error e -> Alcotest.failf "%s: unexpected rejection: %s" name e
  in
  let err name r =
    match r with
    | Ok (_ : SC.t) -> Alcotest.failf "%s: accepted an invalid combination" name
    | Error e -> Alcotest.(check bool) (name ^ " message nonempty") true (e <> "")
  in
  (* accepted rows *)
  let c = ok "mem plain" (v ()) in
  Alcotest.(check bool) "mem acks volatile" false c.SC.durable_acks;
  let c = ok "disk plain" (v ~backend:"disk" ()) in
  Alcotest.(check bool) "disk acks durable" true c.SC.durable_acks;
  ignore (ok "disk sharded" (v ~backend:"disk" ~shards:4 ()));
  ignore (ok "mem mvcc" (v ~mvcc:true ()));
  ignore (ok "mem mvcc sharded" (v ~mvcc:true ~shards:4 ()));
  let c =
    ok "disk mvcc sharded path"
      (v ~backend:"disk" ~shards:4 ~mvcc:true ~path:"/tmp/t.db" ())
  in
  Alcotest.(check bool) "durable mvcc acks durable" true c.SC.durable_acks;
  Alcotest.(check int) "shards carried" 4 c.SC.shards;
  Alcotest.(check (option string)) "path carried" (Some "/tmp/t.db") c.SC.path;
  ignore (ok "disk mvcc plain" (v ~backend:"disk" ~mvcc:true ()));
  (* rejected rows *)
  err "unknown backend" (v ~backend:"floppy" ());
  err "zero shards" (v ~shards:0 ());
  err "negative shards" (v ~shards:(-3) ());
  err "path on mem" (v ~path:"/tmp/t.db" ());
  err "plain mem sharding" (v ~shards:4 ());
  (* the row the tentpole fixed: mem sharding is fine WITH mvcc, and
     disk sharding never needed it *)
  ignore (ok "mem sharding with mvcc" (v ~shards:8 ~mvcc:true ()));
  ignore (ok "disk sharding sans mvcc" (v ~backend:"disk" ~shards:8 ()));
  (* tree rows: the memory backend serves any plain tree by name; no
     compactor runs under serve; disk and mvcc both version or persist
     the sagiv tree only *)
  ignore (ok "mem lehman-yao" (v ~tree:"lehman-yao" ()));
  ignore (ok "mem coarse" (v ~tree:"coarse" ()));
  err "mem sagiv-compact" (v ~tree:"sagiv-compact" ());
  err "disk sagiv-compact" (v ~tree:"sagiv-compact" ~backend:"disk" ());
  err "disk lehman-yao" (v ~tree:"lehman-yao" ~backend:"disk" ());
  err "mem mvcc coarse" (v ~tree:"coarse" ~mvcc:true ());
  err "mem mvcc sharded coarse" (v ~tree:"coarse" ~mvcc:true ~shards:2 ());
  err "disk mvcc coarse" (v ~tree:"coarse" ~backend:"disk" ~mvcc:true ())

(* ---------- pipelined batches ---------- *)

(* 4 clients pipeline small batches over 8 hot keys; every response
   becomes an event whose window spans its whole batch (conservative:
   wider windows only make the check more permissive, so any violation
   found is real). Every key must be checked. *)
let test_hot_keys_linearizable () =
  with_server ~workers:4 @@ fun _srv addr ->
  let clock = Atomic.make 0 in
  let all = Atomic.make [] in
  let key_space = 8 and batches = 3 and depth = 4 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Random.State.make [| 8800 + d |] in
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
    Alcotest.failf "violations on keys %s"
      (String.concat ", "
         (List.map (fun (k, _) -> string_of_int k) v.Linearize.violations))

(* The durable-ack contract for whole pipelined batches: snapshot the
   crash image the moment a batch's acks are in — duplicates and misses
   among them — and recovery must hold every effect those acks report.
   A trailing all-duplicate batch still commits, and the commit is
   free: the store has nothing unsealed, so the log gets no fsync. *)
let test_wal_pipelined_acked_crash () =
  let data_page_size = 512 in
  let wal_page_size = Wal.log_page_size ~data_page_size in
  let pfile = Paged_file.create_shadow ~page_size:data_page_size () in
  let lfile = Paged_file.create_shadow ~page_size:wal_page_size () in
  let store = PS.create_on ~cache_pages:64 ~wal:lfile pfile in
  let t = Sg.create ~order:4 ~store () in
  Sg.flush t;
  let handle = Tree_intf.disk_sub_handle t in
  let n = 50 in
  let image, limage =
    with_server ~workers:2 ~durable_acks:true ~handle @@ fun srv addr ->
    with_client addr @@ fun c ->
    (* each key: a fresh insert, a duplicate of it, a delete that misses
       and a repeat of that miss *)
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
    let fsyncs () = (PS.io_stats store).Stats.wal_fsyncs in
    let before = fsyncs () in
    let dups =
      C.pipeline c
        (List.init n (fun i -> P.Insert { key = i; value = 0 }))
    in
    Alcotest.(check bool) "all duplicates" true
      (List.for_all (( = ) P.Duplicate) dups);
    Alcotest.(check int) "all-duplicate batch added no fsync" before
      (fsyncs ());
    Alcotest.(check bool) "every mutating batch committed" true
      ((Server.stats srv).Stats.acked_commits >= 2);
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
    | None -> Alcotest.failf "acked key %d lost: its ack outran its commit" i);
    match Sg.search t2 c2 (1000 + i) with
    | None -> ()
    | Some _ -> Alcotest.failf "phantom key %d materialised" (1000 + i)
  done

(* A pipeline far larger than the socket buffers: the client keeps a
   bounded window of requests unanswered, so neither side blocks
   writing while the other does too. Insert/search pairs make every
   response's position checkable. *)
let test_huge_pipeline () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "blink-huge-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      with_server ~listen:[ Unix.ADDR_UNIX path ] @@ fun _srv addr ->
      with_client addr @@ fun c ->
      let pairs = 50_000 in
      let resps =
        C.pipeline c
          (List.concat
             (List.init pairs (fun k ->
                  [ P.Insert { key = k; value = k + 1 }; P.Search { key = k } ])))
      in
      Alcotest.(check int) "one response per request" (2 * pairs)
        (List.length resps);
      List.iteri
        (fun j r ->
          let k = j / 2 in
          let expect = if j mod 2 = 0 then P.Inserted else P.Found (k + 1) in
          if r <> expect then
            Alcotest.failf "response %d: %s, expected %s" j
              (P.response_to_string r) (P.response_to_string expect))
        resps)

(* ---------- waiting for the next batch ---------- *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A worker spins only after a wait that ended inside its window: once
   the connection goes idle it blocks in read(2), and the process burns
   no core while the client holds the connection open. *)
let test_idle_costs_no_cpu () =
  with_server @@ fun _srv addr ->
  with_client addr @@ fun c ->
  ignore (C.insert c ~key:1 ~value:10);
  let cpu0 = cpu_s () and t0 = Unix.gettimeofday () in
  Unix.sleepf 0.3;
  let cpu = cpu_s () -. cpu0 and wall = Unix.gettimeofday () -. t0 in
  if cpu > wall /. 4. then
    Alcotest.failf "idle connection: %.0f ms CPU over %.0f ms" (cpu *. 1e3)
      (wall *. 1e3);
  Alcotest.(check (option int)) "still served" (Some 10) (C.search c ~key:1)

(* Stop a server whose one connection is still open, right after [warm]
   ran on it, and fail unless [Server.stop] returns within a second. *)
let stop_after what warm =
  let srv =
    Server.start
      ~handle:((Tree_intf.sagiv ()).make ~order:4)
      ~listen:[ loopback ] ()
  in
  let c = C.connect (List.hd (Server.addresses srv)) in
  warm c;
  let t0 = Unix.gettimeofday () in
  Server.stop srv;
  let took = Unix.gettimeofday () -. t0 in
  C.close c;
  if took > 1.0 then Alcotest.failf "%s: stop took %.2f s" what took

(* Back-to-back batches keep the worker's waits short, so right after
   the last answer it is polling for the next batch. *)
let test_stop_ends_spinning_worker () =
  stop_after "polling worker" (fun c ->
      for k = 1 to 200 do
        ignore
          (C.pipeline c
             [ P.Search { key = 1 }; P.Insert { key = k; value = 0 } ])
      done)

(* Past the window a worker parks in a blocking read; stop's shutdown
   must wake it. *)
let test_stop_ends_parked_worker () =
  stop_after "parked worker" (fun c ->
      ignore (C.insert c ~key:1 ~value:10);
      Unix.sleepf 0.02)

(* Each batch arrives 1 ms after the last answer, well past the spin
   window: the worker gives up polling and blocks, and every answer
   still comes back right and in order. *)
let test_batches_after_a_pause () =
  with_server @@ fun _srv addr ->
  with_client addr @@ fun c ->
  for round = 0 to 49 do
    let k = round * 4 in
    let resps =
      C.pipeline c
        [
          P.Insert { key = k; value = round };
          P.Search { key = k };
          P.Insert { key = k; value = -1 };
          P.Search { key = k + 1 };
        ]
    in
    Alcotest.(check (list response))
      (Printf.sprintf "round %d" round)
      [ P.Inserted; P.Found round; P.Duplicate; P.Absent ]
      resps;
    Unix.sleepf 0.001
  done

let suite =
  [
    ("protocol roundtrip", `Quick, test_roundtrip);
    ("truncated frames wait", `Quick, test_truncated);
    ("frame stream", `Quick, test_stream);
    ("malformed frames rejected", `Quick, test_malformed);
    ("client session", `Quick, test_session);
    ("deep pipeline", `Quick, test_pipeline);
    ("bad frame isolates its connection", `Quick, test_error_isolation);
    ("connection drop mid-batch", `Quick, test_drop_mid_batch);
    ("4 clients linearizable", `Quick, test_linearizable);
    ("4 pipelined clients, all acks hold", `Quick, test_concurrent_pipelines);
    ("unix-domain socket", `Quick, test_unix_socket);
    ("acked write survives crash (wal)", `Quick, test_wal_acked_crash);
    ("replica catches up over the socket", `Quick, test_replica_catch_up);
    ("replica promotion after primary loss", `Quick, test_replica_promotion);
    ("replica resolves durable-mvcc chains", `Quick, test_replica_mvcc_reads);
    ("serve flag compatibility matrix", `Quick, test_serve_config_matrix);
    ("4 domains encode at once", `Quick, test_domain_private_scratch);
    ("hot keys linearizable, four clients", `Quick,
     test_hot_keys_linearizable);
    ("pipelined acks survive crash (wal)", `Quick,
     test_wal_pipelined_acked_crash);
    ("client pipeline of 100k requests", `Quick, test_huge_pipeline);
    ("sharded server publishes every shard's log", `Quick,
     test_sharded_logs_published);
    ("idle connection costs no CPU", `Quick, test_idle_costs_no_cpu);
    ("stop ends a spinning worker", `Quick, test_stop_ends_spinning_worker);
    ("stop ends a parked worker", `Quick, test_stop_ends_parked_worker);
    ("batches after a pause past the spin window", `Quick,
     test_batches_after_a_pause);
  ]
